"""Sharded hourly drive parity + packed window assembly.

* Parity (always asserted first): hash- and range-partitioned sharded
  platforms must reproduce the single-store drive's simulation byte for
  byte.
* ``stream_assembly``: window assembly through the growing database's
  packed-column store (preallocated columns filled once at ingest, windows
  read back as one slice/gather) versus the legacy per-block
  ``StreamBatch.concatenate`` walk -- the before/after of the
  assembly-dominated hot path.

Run as a script (``PYTHONPATH=src python benchmarks/bench_sharded_advance.py``);
``--assert-assembly-speedup`` gates the packed assembly win.
"""

import argparse
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

from benchjson import write_bench_json, write_bench_report
from repro.core.adaptive import AdaptiveConfig
from repro.core.platform import Sage
from repro.core.sharding import sharded_accountant_factory
from repro.data.stream import StreamBatch
from repro.workload.oracle import CountStreamSource, OraclePipeline

DEFAULT_BLOCKS = 5_000


# ----------------------------------------------------------------------
# Parity: sharded drives must reproduce the single-store drive byte for
# byte.
# ----------------------------------------------------------------------
def _fingerprint(sage):
    sage.access.accountant.retired_blocks()  # persist pending retirement
    return (
        [
            [
                (a.attempt, a.window, a.budget.epsilon, a.outcome)
                for a in e.session.attempts
            ]
            for e in sage.pipelines
        ],
        [e.status for e in sage.pipelines],
        [e.release_time_hours for e in sage.pipelines],
        sage.access.accountant.store.totals.tobytes(),
        sage.access.accountant.store.live.tobytes(),
        sage.reservation_table.matrix.tobytes(),
        [
            (r.budget.epsilon, r.block_keys, r.label)
            for r in sage.access.accountant.charges
        ],
    )


def check_sharded_parity():
    def drive(factory):
        sage = Sage(
            CountStreamSource(4000, scale=1000),
            seed=3,
            accountant_factory=factory,
        )
        for i, complexity in enumerate((2_000.0, 10_000.0, 40_000.0, 1e9)):
            sage.submit(
                OraclePipeline(name=f"p{i}", n_at_eps1=complexity),
                AdaptiveConfig(max_attempts=16),
            )
        for _ in range(40):
            sage.advance(1.0)
        fingerprint = _fingerprint(sage)
        sage.close()
        return fingerprint

    reference = drive(None)
    for policy, n_shards in (("hash", 2), ("hash", 4), ("range", 4), ("hash", 8)):
        got = drive(sharded_accountant_factory(n_shards, policy=policy))
        if got != reference:
            raise AssertionError(
                f"sharded {policy} N={n_shards} diverged from the "
                "single-store drive"
            )


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ----------------------------------------------------------------------
# Window assembly -- packed columns vs per-block concatenation
# ----------------------------------------------------------------------
def bench_assembly(n_blocks, repeats=5):
    """Assemble a window of ``n_blocks`` one-row blocks (the simulator's
    block shape) through the packed store vs the legacy concatenate walk."""
    sage = Sage(CountStreamSource(1000, scale=1000), seed=0)
    sage.advance(float(n_blocks))
    database = sage.database
    keys = database.keys
    # The "before": per-block slabs (as the database used to store them)
    # concatenated per assembled window.  Materialized once, outside the
    # timed loop, so the baseline measures exactly the old walk.
    slabs = [database.get(k).batch for k in keys]

    def packed():
        return database.assemble(keys)

    def legacy():
        return StreamBatch.concatenate(slabs)

    fast = packed()
    slow = legacy()
    if not (
        np.array_equal(fast.X, slow.X)
        and np.array_equal(fast.y, slow.y)
        and np.array_equal(fast.timestamps, slow.timestamps)
        and np.array_equal(fast.user_ids, slow.user_ids)
        and set(fast.extras) == set(slow.extras)
        and all(np.array_equal(fast.extras[k], slow.extras[k]) for k in slow.extras)
    ):
        raise AssertionError("packed assembly diverged from concatenate")
    t_slow = _best_of(legacy, repeats)
    t_fast = _best_of(packed, repeats)
    return t_slow, t_fast, t_slow / t_fast


# ----------------------------------------------------------------------
def run(n_blocks, assert_assembly=0.0):
    check_sharded_parity()

    a_slow, a_fast, a_speedup = bench_assembly(n_blocks)
    case = write_bench_json(
        "stream_assembly",
        {"blocks": n_blocks, "rows_per_block": 1},
        a_slow * 1e3,
        a_fast * 1e3,
        bench="sharded_advance",
    )
    if assert_assembly and a_speedup < assert_assembly:
        raise AssertionError(
            f"packed assembly speedup {a_speedup:.1f}x is below the required "
            f"{assert_assembly}x"
        )
    return write_bench_report(
        "sharded_advance",
        f"window assembly: per-block concatenate vs packed ({n_blocks} blocks)",
        [case],
        columns=("concatenate", "packed"),
        notes=[
            "parity: hash- and range-sharded drives reproduce the "
            "single-store drive byte for byte",
        ],
    )


def test_sharded_parity_and_assembly():
    """CI smoke: sharded parity + the packed assembly win."""
    check_sharded_parity()
    a_slow, a_fast, a_speedup = bench_assembly(1500)
    assert a_speedup >= 2.0, f"assembly only {a_speedup:.1f}x"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--blocks", type=int, default=DEFAULT_BLOCKS)
    parser.add_argument(
        "--assert-assembly-speedup",
        type=float,
        default=0.0,
        help="fail unless packed assembly beats per-block concatenation "
        "by this factor",
    )
    args = parser.parse_args()
    print(
        run(args.blocks, assert_assembly=args.assert_assembly_speedup)
    )


if __name__ == "__main__":
    main()
