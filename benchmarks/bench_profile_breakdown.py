"""Profiled contention hour: where the wall clock of a heavy hour goes.

PR 10's acceptance bench.  One contention-shaped hour (every pipeline
scanning a long stream and charging out of the freshly granted free
pool) is driven with a :class:`~repro.obs.WallProfiler` riding alongside
the deterministic tracer, and two claims are checked:

* **Parity**: the profiled drive reproduces the bare drive's state
  digest byte for byte -- profiling observes, never participates.
* **Coverage**: the per-phase wall-clock breakdown under the hour's
  root span accounts for at least ``--assert-coverage`` of the measured
  hour (CI gates 0.9: the instrumented phases must explain >= 90% of
  where the time went, or the profile is lying by omission).

Run as a script
(``PYTHONPATH=src python benchmarks/bench_profile_breakdown.py``).
"""

import argparse
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from benchjson import write_bench_json, write_bench_report
from repro.core import durability
from repro.core.adaptive import AdaptiveConfig
from repro.core.platform import Sage
from repro.obs import Telemetry, WallProfiler
from repro.obs.analyze import hour_coverage, phase_breakdown
from repro.workload.oracle import CountStreamSource, OraclePipeline

DEFAULT_PIPELINES = 200
DEFAULT_BLOCKS = 5_000


def build_contention_platform(n_pipelines, n_blocks, telemetry=None):
    """A stream ``n_blocks`` hours old with ``n_pipelines`` sessions
    submitted but not yet granted: the *next* hour is the contention
    hour, where the free pool lands and every session scans the whole
    stream and charges.  The tiny epsilon keeps every attempt affordable
    (so the hour exercises ``charge_many``) while the unreachable target
    keeps every session mid-flight."""
    sage = Sage(CountStreamSource(1000, scale=1000), seed=0, telemetry=telemetry)
    sage.advance(float(n_blocks))  # blocks land with nobody waiting
    config = AdaptiveConfig(epsilon_start=0.001, epsilon_floor=0.001, max_attempts=4)
    for i in range(n_pipelines):
        sage.submit(OraclePipeline(name=f"p{i}", n_at_eps1=1e12), config)
    return sage


def profile_contention_hour(n_pipelines, n_blocks):
    """Drive the contention hour profiled and bare; return the measured
    wall (s), the profiler, and the hour coverage."""
    telemetry = Telemetry(profiler=WallProfiler())
    profiled = build_contention_platform(n_pipelines, n_blocks, telemetry=telemetry)
    bare = build_contention_platform(n_pipelines, n_blocks)
    profiler = telemetry.profiler
    # Drop the ingest warmup so every remaining span belongs to the one
    # contention hour the coverage claim is about.
    profiler.spans.clear()
    profiler.events.clear()

    start = time.perf_counter()
    profiled.advance(1.0)
    wall_s = time.perf_counter() - start
    bare.advance(1.0)

    if durability.state_digest(profiled) != durability.state_digest(bare):
        raise AssertionError(
            "profiled drive diverged from the bare drive -- profiling "
            "participated in the simulation"
        )
    profiled.close()
    bare.close()
    return wall_s, profiler, hour_coverage(profiler)


def run(n_pipelines, n_blocks, assert_coverage=0.0):
    wall_s, profiler, coverage = profile_contention_hour(n_pipelines, n_blocks)
    hour = profiler.find_spans("advance.hour")[0]
    instrumented_us = hour.duration * coverage
    case = write_bench_json(
        "profile_breakdown",
        {
            "pipelines": n_pipelines,
            "blocks": n_blocks,
            "hour_coverage": round(coverage, 4),
        },
        wall_s * 1e3,
        instrumented_us / 1e3,
        bench="profile_breakdown",
    )
    if assert_coverage and coverage < assert_coverage:
        raise AssertionError(
            f"instrumented phases cover only {coverage:.1%} of the "
            f"measured hour, below the required {assert_coverage:.0%}"
        )
    notes = [
        f"coverage {coverage:.1%}",
        "speedup column reads as measured-hour / instrumented-phase wall "
        "(1.0x would be full coverage)",
    ]
    for row in phase_breakdown(profiler)[:6]:
        notes.append(
            f"  {row.name:<24} self {row.self_time / 1e3:>9.2f}ms  "
            f"share {row.share:>6.1%}"
        )
    return write_bench_report(
        "profile_breakdown",
        "profiled contention hour: wall-clock phase breakdown "
        f"({n_pipelines} pipelines x {n_blocks} blocks)",
        [case],
        columns=("measured", "instrumented"),
        notes=notes,
    )


def test_profile_breakdown_smoke():
    """CI smoke: parity and a loose coverage floor at reduced scale (the
    90% acceptance gate runs at full scale, where the instrumented
    phases dominate even harder)."""
    wall_s, profiler, coverage = profile_contention_hour(60, 1_500)
    assert coverage >= 0.6, f"hour coverage only {coverage:.1%}"
    hour = profiler.find_spans("advance.hour")[0]
    assert hour.duration <= wall_s * 1e6 * 1.5


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pipelines", type=int, default=DEFAULT_PIPELINES)
    parser.add_argument("--blocks", type=int, default=DEFAULT_BLOCKS)
    parser.add_argument(
        "--assert-coverage",
        type=float,
        default=0.0,
        help="fail unless the per-phase breakdown explains this fraction "
        "of the measured hour",
    )
    args = parser.parse_args()
    print(
        run(
            args.pipelines,
            args.blocks,
            assert_coverage=args.assert_coverage,
        )
    )


if __name__ == "__main__":
    main()
