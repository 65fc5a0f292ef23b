"""Packed window assembly vs the per-block concatenation walk.

``stream_assembly`` assembles a window through the growing database's
packed-column store (preallocated columns filled once at ingest, windows
read back as one slice/gather) and through the legacy per-block
``StreamBatch.concatenate`` walk -- the before/after of the
assembly-dominated hot path.  Parity of the two results is asserted
before any timing.

Run as a script (``PYTHONPATH=src python benchmarks/bench_stream_assembly.py``);
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
from repro.core.platform import Sage
from repro.data.stream import StreamBatch
from repro.workload.oracle import CountStreamSource

DEFAULT_BLOCKS = 5_000


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
    a_slow, a_fast, a_speedup = bench_assembly(n_blocks)
    case = write_bench_json(
        "stream_assembly",
        {"blocks": n_blocks, "rows_per_block": 1},
        a_slow * 1e3,
        a_fast * 1e3,
        # The bench's pre-rename key, so perf-report keeps its baseline.
        bench="sharded_advance",
    )
    if assert_assembly and a_speedup < assert_assembly:
        raise AssertionError(
            f"packed assembly speedup {a_speedup:.1f}x is below the required "
            f"{assert_assembly}x"
        )
    return write_bench_report(
        "stream_assembly",
        f"window assembly: per-block concatenate vs packed ({n_blocks} blocks)",
        [case],
        columns=("concatenate", "packed"),
    )


def test_packed_assembly_beats_concatenate():
    """CI smoke: the packed assembly win."""
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
