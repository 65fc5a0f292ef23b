"""The Sage hour benchmark: one workload, one seed, one run.

    python3 sagebench/run.py --workload steady --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` repeats whole episodes of the workload (identical inputs)
for about ``--seconds`` and reports the end-to-end metrics; ``--trace 1``
runs one untraced episode in a child process and one traced episode here,
and reports the per-layer metrics.  The last line of standard output is
one JSON object; the lines before it are a readable summary.  Exit code 2
means the program could not be imported (nothing was measured).
"""

from __future__ import annotations

import os

# One process, one thread: keep NumPy's BLAS pools single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".sagebench_work"
WORKLOADS = ("steady", "contention", "durable")
# Set-ups per run (each episode's plus discarded extras): at least
# SETUP_SAMPLES, more while the extras stay cheap, for a steady median.
SETUP_SAMPLES = 3
SETUP_SAMPLES_MAX = 25
SETUP_EXTRA_S = 2.0
CHILD_TIMEOUT_S = 170

for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def percentile(values, q):
    """Linear-interpolated quantile; a failed call (inf) misses it."""
    return float(np.percentile(values, q * 100.0)) if values else float("inf")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_timed(workload, seed, seconds, episodes_max=None):
    """Repeat episodes with identical inputs while the next one fits in
    ``seconds`` (at least one); return (episodes, extra set-up samples)."""
    import workloads

    spec = workloads.SPECS[workload]
    traffic = spec.traffic(seed)
    episodes = []
    started = time.perf_counter()
    while True:
        episodes.append(workloads.run_episode(spec, traffic, WORK_DIR))
        # Free the episode's platform (it holds reference cycles) before
        # the next one, so peak memory does not grow with the count.
        gc.collect()
        elapsed = time.perf_counter() - started
        if episodes[-1].failed or (episodes_max and len(episodes) >= episodes_max):
            break
        if elapsed * (len(episodes) + 1) / len(episodes) > seconds:
            break
    extra = []
    if episodes_max is None:
        while len(episodes) + len(extra) < SETUP_SAMPLES or (
            len(episodes) + len(extra) < SETUP_SAMPLES_MAX
            and sum(extra) < SETUP_EXTRA_S
        ):
            extra.append(workloads.setup_only(spec, traffic, WORK_DIR))
    return episodes, extra


def consistency_problems(episodes):
    """Identical inputs must give identical outcomes across episodes."""
    first = episodes[0]
    problems = []
    for other in episodes[1:]:
        if (other.digest, other.release_hours_mean, other.disk_bytes) != (
            first.digest,
            first.release_hours_mean,
            first.disk_bytes,
        ):
            problems.append("repeated episodes of one seed disagree")
    return problems


def end_to_end(workload, seed, seconds):
    episodes, extra_setups = run_timed(workload, seed, seconds)
    hours = [wall for ep in episodes for wall in ep.hour_walls]
    recovers = [wall for ep in episodes for wall in ep.recover_walls]
    setups = [ep.setup_s for ep in episodes] + extra_setups
    problems = [p for ep in episodes for p in ep.problems]
    problems += consistency_problems(episodes)
    metrics = {
        "hour_ms_p50": _metric(percentile(hours, 0.5) * 1e3, "ms"),
        "hour_ms_p90": _metric(percentile(hours, 0.9) * 1e3, "ms"),
        "hours_per_s": _metric(len(hours) / sum(hours), "1/s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "setup_s": _metric(statistics.median(setups), "s"),
    }
    first = episodes[0]
    summary = [
        f"workload {workload} seed {seed}: {len(episodes)} episode(s), "
        f"{len(hours)} timed hours, {len(setups)} set-ups",
    ]
    summary += [f"  {name:<20} {m['value']:.4f} {m['unit']}" for name, m in metrics.items()]
    summary.append(f"  {'release_hours_mean':<20} {first.release_hours_mean:.4f} h")
    if recovers:
        summary.append(
            f"  {'recover_ms':<20} {percentile(recovers, 0.5) * 1e3:.4f} ms "
            f"({len(recovers)} recoveries)"
        )
        summary.append(f"  {'disk_mb':<20} {first.disk_bytes / 2**20:.4f} MB")
    attempted = sum(ep.attempted for ep in episodes)
    failed = sum(ep.failed for ep in episodes)
    return metrics, problems, attempted, failed, summary


def reference_child(workload, seed, seconds):
    """The untraced side of a traced run, as a separate process."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
        "--reference",
    ]
    done = subprocess.run(
        cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT
    )
    if done.returncode != 0:
        raise RuntimeError(f"reference run failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def reference(workload, seed, seconds):
    (episode,), _ = run_timed(workload, seed, seconds, episodes_max=1)
    return {
        "digest": episode.digest,
        "hours_s": sum(episode.hour_walls),
        "recover_ms": percentile(episode.recover_walls, 0.5) * 1e3
        if episode.recover_walls
        else 0.0,
        "disk_mb": (episode.disk_bytes or 0) / 2**20,
        "problems": episode.problems,
        "attempted": episode.attempted,
        "failed": episode.failed,
    }


def per_layer(workload, seed, seconds):
    import layers
    import workloads

    untraced = reference_child(workload, seed, seconds)
    spec = workloads.SPECS[workload]
    with layers.LayerTracer() as tracer:
        episode = workloads.run_episode(spec, spec.traffic(seed), WORK_DIR, tracer)
    metrics_raw, table = tracer.report()
    coverage, advance_s, self_sum_s = tracer.hour_coverage()
    traced_hours_s = sum(episode.hour_walls)
    proposed = episode.granted + episode.denied
    metrics_raw.update(
        {
            "access.grant_ratio": episode.granted / proposed if proposed else 0.0,
            "trace.coverage": coverage,
            "trace.overhead_frac": traced_hours_s / untraced["hours_s"] - 1.0,
            "workload.release_hours_mean": episode.release_hours_mean,
            "durability.recover_ms": untraced["recover_ms"],
            "durability.disk_mb": untraced["disk_mb"],
        }
    )
    problems = list(episode.problems) + list(untraced["problems"])
    if episode.digest != untraced["digest"]:
        problems.append(
            f"traced digest {episode.digest} != untraced digest {untraced['digest']}"
        )
    summary = [
        f"workload {workload} seed {seed}: traced {len(episode.hour_walls)} hours "
        f"in {traced_hours_s:.3f} s, untraced {untraced['hours_s']:.3f} s, "
        f"{tracer.span_count} spans",
        f"self times sum to {self_sum_s * 1e3:.1f} ms of {advance_s * 1e3:.1f} ms "
        f"traced advance wall ({traced_hours_s * 1e3:.1f} ms timed)",
        table,
    ]
    attempted = episode.attempted + untraced["attempted"]
    failed = episode.failed + untraced["failed"]
    return metrics_raw, problems, attempted, failed, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    try:
        import repro.core.platform

        imported = Path(repro.core.platform.__file__).resolve()
    except ImportError as exc:
        print(f"cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    if not imported.is_relative_to(src):
        print(f"the program was imported from {imported}, not {src}", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    try:
        if args.reference:
            print(json.dumps(reference(args.workload, args.seed, args.seconds)))
            return 0
        if args.trace:
            raw, problems, attempted, failed, summary = per_layer(
                args.workload, args.seed, args.seconds
            )
            units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
            metrics = {name: _metric(raw[name], units[name]) for name in units}
        else:
            metrics, problems, attempted, failed, summary = end_to_end(
                args.workload, args.seed, args.seconds
            )
    finally:
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    for line in summary:
        print(line)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def _benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


if __name__ == "__main__":
    sys.exit(main())
