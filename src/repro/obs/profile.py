"""Wall-clock profiling: where the hours actually go.

PR 9's tracer answers *what happened in what order* -- its logical tick
clock makes traces replayable and byte-identical across runs, which is
exactly why it cannot answer *where the time went*.  This module is the
other half of the split: a :class:`WallProfiler` that records the very
same span taxonomy (``session.drive``, ``shard.validate``,
``staging.commit``, ``wal.fsync``, ...) but stamps every span with real
``time.perf_counter`` durations, so a profiled contention hour decomposes
into a per-phase wall-clock breakdown instead of a tick ordering.

The profiler attaches *alongside* the tracer, never instead of it::

    from repro.obs import Telemetry, WallProfiler
    telemetry = Telemetry(profiler=WallProfiler())
    sage = Sage(source, telemetry=telemetry)
    ...
    print(render_profile(telemetry.profiler))

**The parity contract carries over.**  Profiling observes, never
participates: a profiled run's accounting trajectory (state digests *and*
WAL bytes) is byte-identical to a bare run's, and the deterministic
tracer's output is byte-identical whether or not a profiler rides along
-- both property-tested in ``tests/obs/test_platform_telemetry.py``.
The price of wall time is that the *profiler's own* output is not
replayable: two identical runs produce different durations.  That is the
wall-clock-vs-logical-tick split by design -- the profiler is excluded
from every byte-parity artifact, while the tracer remains the replayable
record.

**Serial emission still holds.**  Like the tracer, the profiler's span
stack is only ever touched from the serial drive.  Work that happens in
pool threads (per-shard phase-one validation) is measured *in* the worker
with plain ``perf_counter`` arithmetic and recorded at the serial commit
point via :meth:`WallProfiler.record_span`, which synthesizes an
already-closed span carrying the measured duration -- per-shard wall
attribution without a single cross-thread profiler call.  Because those
shards validated concurrently, their wall times may legitimately sum to
more than the enclosing phase's duration; the analyzer clamps self-times
at zero for exactly this case.

Durations and timestamps are microseconds (so profiler spans export
through the same Chrome-trace path as tracer spans with ``ts`` already in
the unit Perfetto expects).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.trace import Event, Span, Tracer

__all__ = [
    "Probe",
    "SpanStats",
    "WallClock",
    "WallProfiler",
    "render_profile",
]


class WallClock:
    """``time.perf_counter`` in microseconds -- the profiler's clock."""

    __slots__ = ()

    def __call__(self) -> float:
        return time.perf_counter() * 1e6


@dataclass
class SpanStats:
    """Aggregated wall statistics for one span name (microseconds).

    ``self_time`` is duration minus child-span time, clamped at zero per
    span (pool-parallel children recorded via
    :meth:`WallProfiler.record_span` may exceed their serial parent).
    ``by_shard`` decomposes names whose spans carry a ``shard`` argument
    (``shard.validate`` / ``shard.commit``) into per-shard rows.
    """

    name: str
    count: int = 0
    total: float = 0.0
    self_time: float = 0.0
    p50: float = 0.0
    p95: float = 0.0
    max: float = 0.0
    by_shard: Dict[int, "SpanStats"] = field(default_factory=dict)


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile over an ascending list (empty -> 0.0)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-int(q * len(sorted_values) * 100) // 100))
    return sorted_values[min(rank, len(sorted_values)) - 1]


class WallProfiler(Tracer):
    """A tracer on a wall clock, plus per-name aggregation.

    Spans carry real ``perf_counter`` microseconds; everything else --
    counter ids, the serial open stack, parent nesting, the ambient hour
    -- is inherited from :class:`~repro.obs.trace.Tracer`, so the
    analyzer (:mod:`repro.obs.analyze`) and the Chrome-trace exporter
    work on a profile exactly as they do on a trace.  ``clock`` injects a
    deterministic stand-in for tests.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        super().__init__(clock=clock if clock is not None else WallClock())

    def record_span(self, name: str, duration: float, **args: object) -> Span:
        """Record a pre-measured span (e.g. pool-parallel shard work).

        The span closes at the current clock reading and extends
        ``duration`` microseconds back from it, parented under whatever
        span is open on the serial stack -- measurement happened
        elsewhere (a worker thread), emission happens here, serially.
        """
        self._next_id += 1
        end = self._clock()
        span = Span(
            self._next_id,
            self._open[-1].span_id if self._open else None,
            name,
            end - duration,
            end,
            self.hour,
            args,
            self,
        )
        self.spans.append(span)
        return span

    def aggregate(self) -> Dict[str, SpanStats]:
        """Per-name wall statistics: count / total / self / p50 / p95 /
        max, with per-shard sub-rows for shard-labelled spans."""
        from repro.obs.analyze import self_times

        selfs = self_times(self)
        groups: Dict[str, List[Span]] = {}
        for span in self.spans:
            groups.setdefault(span.name, []).append(span)
        stats: Dict[str, SpanStats] = {}
        for name in sorted(groups):
            spans = groups[name]
            stats[name] = entry = _stats_of(name, spans, selfs)
            shards: Dict[int, List[Span]] = {}
            for span in spans:
                shard = span.args.get("shard")
                if shard is not None:
                    shards.setdefault(int(shard), []).append(span)
            for shard in sorted(shards):
                entry.by_shard[shard] = _stats_of(name, shards[shard], selfs)
        return stats


def _stats_of(
    name: str, spans: List[Span], selfs: Dict[int, float]
) -> SpanStats:
    durations = sorted(span.duration for span in spans)
    return SpanStats(
        name=name,
        count=len(spans),
        total=sum(durations),
        self_time=sum(selfs.get(span.span_id, 0.0) for span in spans),
        p50=_percentile(durations, 0.50),
        p95=_percentile(durations, 0.95),
        max=durations[-1] if durations else 0.0,
    )


def render_profile(profiler: WallProfiler) -> str:
    """The aggregation as a fixed-width text table (milliseconds)."""
    stats = profiler.aggregate()
    total_wall = sum(s.self_time for s in stats.values())
    lines = [
        f"{'span':<28} {'count':>7} {'total':>10} {'self':>10} "
        f"{'p50':>9} {'p95':>9} {'max':>9} {'self%':>6}"
    ]
    ordered = sorted(stats.values(), key=lambda s: -s.self_time)
    for entry in ordered:
        lines.append(_stats_row(entry.name, entry, total_wall))
        for shard, sub in sorted(entry.by_shard.items()):
            lines.append(_stats_row(f"  [shard {shard}]", sub, total_wall))
    lines.append(
        f"{'(total self time)':<28} {'':>7} {'':>10} "
        f"{total_wall / 1e3:>8.2f}ms"
    )
    return "\n".join(lines)


def _stats_row(label: str, s: SpanStats, total_wall: float) -> str:
    share = (s.self_time / total_wall * 100.0) if total_wall > 0 else 0.0
    return (
        f"{label:<28} {s.count:>7} {s.total / 1e3:>8.2f}ms "
        f"{s.self_time / 1e3:>8.2f}ms {s.p50 / 1e3:>7.2f}ms "
        f"{s.p95 / 1e3:>7.2f}ms {s.max / 1e3:>7.2f}ms {share:>5.1f}%"
    )


class _TeeSpan:
    """One ``with`` handle entering a tracer span and its profiler twin.

    The deterministic span is primary: ``duration`` (read by the WAL
    fsync-tick histogram) and ``args`` delegate to it, so metrics fed
    from span fields stay byte-deterministic with a profiler attached.
    """

    __slots__ = ("_halves",)

    def __init__(self, halves: Tuple[Span, ...]) -> None:
        self._halves = halves

    def __enter__(self) -> "_TeeSpan":
        for half in self._halves:
            half.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        for half in reversed(self._halves):
            half.__exit__(exc_type, exc, tb)
        return False

    def set(self, **args: object) -> None:
        for half in self._halves:
            half.set(**args)

    @property
    def duration(self) -> float:
        return self._halves[0].duration

    @property
    def args(self) -> Dict[str, object]:
        return self._halves[0].args


class Probe:
    """Fans one instrumentation site out to the tracer *and* a profiler.

    The platform's telemetry handle (``Sage._tracer``, the WAL writer's
    ``_tracer``, the accountant's attached tracer) is this object when a
    profiler is configured, and the plain tracer otherwise -- call sites
    are written once against the common ``span`` / ``event`` / ``hour``
    surface.  The tracer half always goes first (its tick sequence must
    not depend on the profiler's presence); consumers that need one half
    specifically (the sharded commit point's per-shard attribution)
    reach it via ``.tracer`` / ``.profiler``.
    """

    __slots__ = ("tracer", "profiler")

    def __init__(self, tracer: Tracer, profiler: WallProfiler) -> None:
        self.tracer = tracer
        self.profiler = profiler

    @property
    def hour(self) -> int:
        return self.tracer.hour

    @hour.setter
    def hour(self, value: int) -> None:
        self.tracer.hour = value
        self.profiler.hour = value

    def span(self, name: str, **args: object) -> _TeeSpan:
        return _TeeSpan(
            (self.tracer.span(name, **args), self.profiler.span(name, **args))
        )

    def event(self, name: str, **args: object) -> Event:
        self.profiler.event(name, **args)
        return self.tracer.event(name, **args)
