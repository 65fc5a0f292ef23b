"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public functions of each layer (class
methods and module functions, named after the repo modules) with spans.
Spans are kept in memory with their parents and a phase tag; self times
are computed when the run ends: a span's duration minus the durations of
its direct children.  Nothing under ``src/`` is modified -- the wrappers
are installed on the imported classes and modules for the traced run
only and removed afterwards.
"""

from __future__ import annotations

import os
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import access_control, accountant, adaptive, durability
from repro.core import model_store, platform
from repro.data import database
from repro.workload import oracle

PHASES = ("setup", "hours", "check", "recover")


def _release_cells(args, kwargs) -> float:
    """Waiting rows x held columns touched by one ``release``."""
    table, row, waiting_rows = args[0], args[1], args[2]
    return float(len(waiting_rows) * np.count_nonzero(table.matrix[row] > 0.0))


def _wal_size_before(args, kwargs) -> float:
    return float(os.path.getsize(args[0].path))


def _wal_bytes(args, kwargs, result, before) -> float:
    return os.path.getsize(args[0].path) - before


def _snapshot_bytes(args, kwargs, result, before) -> float:
    return float(os.path.getsize(result))


# (span name, owner, attribute, before hook, after hook, counter suffix)
Target = Tuple[str, object, str, Optional[Callable], Optional[Callable], str]
TARGETS: List[Target] = [
    ("platform.advance", platform.Sage, "advance", None, None, ""),
    ("recover", platform.Sage, "recover", None, None, ""),
    ("reservations.allocate", platform.ReservationTable, "allocate", None, None, ""),
    ("reservations.grant_free", platform.ReservationTable, "grant_free", None, None, ""),
    ("reservations.release", platform.ReservationTable, "release", _release_cells, None, "cells"),
    ("reservations.settle", platform.ReservationTable, "settle", None, None, ""),
    ("reservations.values", platform.ReservationTable, "values", None, None, ""),
    ("reservations.limit", platform.ReservationTable, "limit", None, None, ""),
    ("adaptive.propose", adaptive.AdaptiveSession, "propose", None, None, ""),
    ("adaptive.complete", adaptive.AdaptiveSession, "complete", None, None, ""),
    ("access.register_blocks", access_control.SageAccessControl, "register_blocks", None, None, ""),
    ("access.offer_recent_blocks", access_control.SageAccessControl, "offer_recent_blocks", None, None, ""),
    ("access.max_epsilon", access_control.SageAccessControl, "max_epsilon", None, None, ""),
    ("access.stage_request", access_control.SageAccessControl, "stage_request", None, None, ""),
    ("access.begin_staging", access_control.SageAccessControl, "begin_staging", None, None, ""),
    ("access.commit_staged", access_control.SageAccessControl, "commit_staged", None, None, ""),
    ("accountant.usable_blocks_tail", accountant.BlockAccountant, "usable_blocks_tail", None, None, ""),
    ("accountant.rows_for_keys", accountant.BlockAccountant, "rows_for_keys", None, None, ""),
    ("data.ingest", database.StreamIngestor, "advance", None, None, ""),
    ("data.assemble", database.GrowingDatabase, "assemble", None, None, ""),
    ("pipeline.run", oracle.OraclePipeline, "run", None, None, ""),
    ("store.release", model_store.ModelFeatureStore, "release", None, None, ""),
    ("durability.state_digest", durability, "state_digest", None, None, ""),
    ("durability.build_snapshot_payload", durability, "build_snapshot_payload", None, None, ""),
    ("durability.snapshot_write", durability.SnapshotStore, "write", None, _snapshot_bytes, "bytes"),
    ("durability.wal_append", durability.WalWriter, "append_hour", _wal_size_before, _wal_bytes, "bytes"),
    ("durability.wal_commit", durability.WalWriter, "commit_hour", None, None, ""),
    ("durability.wal_compact", durability.WalWriter, "compact", None, None, ""),
    ("durability.fsync", os, "fsync", None, None, ""),
    ("durability.read_wal", durability, "read_wal", None, None, ""),
    ("durability.snapshot_latest", durability.SnapshotStore, "latest", None, None, ""),
    ("durability.restore_snapshot_payload", durability, "restore_snapshot_payload", None, None, ""),
]
SPAN_NAMES = [target[0] for target in TARGETS]
COUNTER_NAMES = [f"{t[0]}.{t[5]}" for t in TARGETS if t[5]]


class LayerTracer:
    """Spans at every layer boundary, in memory, with parents and phases.

    Use as a context manager: entering installs the wrappers, leaving
    removes them.  :meth:`set` tags later spans with a phase (it is the
    episode's :class:`~workloads.Phases` hook).
    """

    def __init__(self) -> None:
        self._name = array("i")
        self._parent = array("i")
        self._phase = array("b")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []
        self._phase_id = 0
        self._phase_started = time.perf_counter()
        self.phase_wall = dict.fromkeys(PHASES, 0.0)
        self.counters: Dict[str, float] = dict.fromkeys(COUNTER_NAMES, 0.0)
        self._saved: List[Tuple[object, str, object]] = []

    # phase hook -------------------------------------------------------
    def set(self, phase: str) -> None:
        now = time.perf_counter()
        self.phase_wall[PHASES[self._phase_id]] += now - self._phase_started
        self._phase_id = PHASES.index(phase)
        self._phase_started = now

    # wrappers ---------------------------------------------------------
    def _wrap(self, name_id: int, fn, before, after, counter: str):
        names, parents, phases = self._name, self._parent, self._phase
        starts, ends, stack = self._start, self._end, self._stack
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            measured = before(args, kwargs) if before is not None else None
            if before is not None and after is None:
                counters[counter] += measured
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            phases.append(self._phase_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                counters[counter] += after(args, kwargs, result, measured)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def __enter__(self) -> "LayerTracer":
        for name_id, (_, owner, attr, before, after, counter) in enumerate(TARGETS):
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(
                owner,
                attr,
                self._wrap(name_id, fn, before, after, f"{SPAN_NAMES[name_id]}.{counter}"),
            )
        self._phase_started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.set(PHASES[self._phase_id])
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # analysis ---------------------------------------------------------
    @property
    def span_count(self) -> int:
        return len(self._start)

    def self_times(self):
        """``(self_s, calls)``, each indexed ``[phase, span name]``."""
        n_names, n_phases = len(SPAN_NAMES), len(PHASES)
        name = np.frombuffer(self._name, dtype=np.intc).astype(np.intp)
        parent = np.frombuffer(self._parent, dtype=np.intc).astype(np.intp)
        phase = np.frombuffer(self._phase, dtype=np.int8).astype(np.intp)
        duration = np.frombuffer(self._end) - np.frombuffer(self._start)
        nested = parent >= 0
        children = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        own = duration - children
        cell = phase * n_names + name
        self_s = np.bincount(cell, weights=own, minlength=n_phases * n_names)
        calls = np.bincount(cell, minlength=n_phases * n_names)
        root = np.bincount(
            phase[~nested], weights=duration[~nested], minlength=n_phases
        )
        return (
            self_s.reshape(n_phases, n_names),
            calls.reshape(n_phases, n_names),
            root,
        )

    def report(self) -> Tuple[Dict[str, float], str]:
        """Per-layer metrics summed over all phases, and the layer table
        (self time and share of each phase's wall)."""
        self_s, calls, root = self.self_times()
        metrics: Dict[str, float] = {}
        for j, name in enumerate(SPAN_NAMES):
            metrics[f"{name}.self_ms"] = float(self_s[:, j].sum() * 1e3)
            metrics[f"{name}.calls"] = float(calls[:, j].sum())
        metrics.update(self.counters)
        lines = []
        for i, phase in enumerate(PHASES):
            wall = self.phase_wall[phase]
            if wall <= 0.0 or not calls[i].any():
                continue
            lines.append(f"-- {phase}: wall {wall * 1e3:.1f} ms")
            order = np.argsort(-self_s[i])
            for j in order:
                if calls[i, j]:
                    lines.append(
                        f"   {SPAN_NAMES[j]:<38} {self_s[i, j] * 1e3:11.2f} ms "
                        f"{self_s[i, j] / wall:7.1%} {int(calls[i, j]):9d} calls"
                    )
            outside = wall - root[i]
            lines.append(
                f"   {'(benchmark, outside spans)':<38} {outside * 1e3:11.2f} ms "
                f"{outside / wall:7.1%}"
            )
        return metrics, "\n".join(lines)

    def hour_coverage(self) -> Tuple[float, float, float]:
        """``(coverage, advance wall s, summed self s)`` of the hours
        phase: coverage is the share of traced hour wall inside named
        spans other than ``platform.advance`` self."""
        self_s, _, root = self.self_times()
        hours = PHASES.index("hours")
        advance = SPAN_NAMES.index("platform.advance")
        total = float(root[hours])
        if total <= 0.0:
            return 0.0, 0.0, 0.0
        return (
            1.0 - float(self_s[hours, advance]) / total,
            total,
            float(self_s[hours].sum()),
        )
