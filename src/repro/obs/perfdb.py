"""The perf trajectory store: bench history, baselines, regression gates.

The repo accumulates ``results/bench_*.json`` snapshots, but a snapshot
only shows the latest run -- a regression between PRs is invisible until
a CI speedup gate happens to trip.  This module is the trajectory layer
on top: every benchmark case appends one JSON line to
``results/perf_history.jsonl`` (via ``benchmarks/benchjson.py``), each
stamped with run metadata (git sha, UTC timestamp, host, python/numpy
versions), and this module loads the history, computes per-case
baselines, and flags cases whose latest run degrades beyond a tolerance
band -- surfaced as ``repro perf-report`` and CI's ``perf-regression``
job.

The gate compares **speedup ratios, not milliseconds**: absolute times
vary wildly across hosts (the history deliberately mixes machines), but
a vectorization speedup is a within-run ratio of two
measurements on the same box, so "the speedup collapsed" is meaningful
everywhere.  The band is multiplicative and deliberately generous
(default: fail below 35% of the baseline median) -- this is a tripwire
for collapses, not a detector of 5% drift.
"""

from __future__ import annotations

import json
import platform as _platform
import subprocess
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Union

__all__ = [
    "DEFAULT_TOLERANCE",
    "HISTORY_PATH",
    "Baseline",
    "Regression",
    "append_history",
    "check_regressions",
    "compute_baselines",
    "load_history",
    "render_report",
    "run_metadata",
]

_REPO_ROOT = Path(__file__).resolve().parents[3]
HISTORY_PATH = _REPO_ROOT / "results" / "perf_history.jsonl"

# Latest speedup below this fraction of the baseline median fails the
# gate.  Case-specific overrides go through check_regressions(bands=...).
DEFAULT_TOLERANCE = 0.35


def run_metadata() -> dict:
    """The provenance block stamped onto every recorded bench case."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=_REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": sha,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "host": _platform.node(),
        "python": _platform.python_version(),
        "numpy": numpy_version,
    }


def append_history(case: dict, path: Union[str, Path, None] = None) -> Path:
    """Append one case record as a JSON line (the jsonl append is atomic
    enough for a single-writer bench run; readers skip torn lines)."""
    path = Path(path) if path is not None else HISTORY_PATH
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(case, sort_keys=True) + "\n")
    return path


def load_history(path: Union[str, Path, None] = None) -> List[dict]:
    """All history records in append order; torn/blank lines skipped."""
    path = Path(path) if path is not None else HISTORY_PATH
    if not path.exists():
        return []
    records = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and "name" in record:
            records.append(record)
    return records


def _case_key(record: dict) -> str:
    bench = record.get("bench") or ""
    name = record["name"]
    return f"{bench}/{name}" if bench and not name.startswith(bench) else name


def _speedups(records: List[dict]) -> List[float]:
    return [
        float(r["speedup"])
        for r in records
        if r.get("speedup") is not None and float(r["speedup"]) > 0
    ]


@dataclass
class Baseline:
    """One case's reference point: the median speedup of its history."""

    case: str
    runs: int
    median_speedup: float
    latest_speedup: Optional[float]


@dataclass
class Regression:
    """A gated case whose latest run fell out of its tolerance band."""

    case: str
    baseline: float
    latest: float
    floor: float
    band: float
    runs: int

    def describe(self) -> str:
        return (
            f"{self.case}: latest speedup {self.latest:.2f}x fell below "
            f"{self.floor:.2f}x ({self.band:.0%} band) of the "
            f"{self.runs}-run baseline median {self.baseline:.2f}x"
        )


def _grouped(history: List[dict]) -> Dict[str, List[dict]]:
    groups: Dict[str, List[dict]] = {}
    for record in history:
        groups.setdefault(_case_key(record), []).append(record)
    return groups


def compute_baselines(history: List[dict]) -> Dict[str, Baseline]:
    """Per-case baselines over the full history (median of speedups)."""
    baselines: Dict[str, Baseline] = {}
    for case, records in sorted(_grouped(history).items()):
        speedups = _speedups(records)
        if not speedups:
            continue
        latest = _speedups(records[-1:])
        baselines[case] = Baseline(
            case=case,
            runs=len(speedups),
            median_speedup=median(speedups),
            latest_speedup=latest[0] if latest else None,
        )
    return baselines


def check_regressions(
    history: List[dict],
    tolerance: float = DEFAULT_TOLERANCE,
    bands: Optional[Dict[str, float]] = None,
) -> List[Regression]:
    """Gate each case's *latest* run against the median of its priors.

    A case needs at least one prior run to be gated (the committed
    seeded history provides it -- the first CI run is therefore green by
    construction, not by luck).  ``bands`` overrides the tolerance per
    case key.  Returns the failing cases, worst collapse first.
    """
    regressions = []
    for case, records in sorted(_grouped(history).items()):
        prior = _speedups(records[:-1])
        latest = _speedups(records[-1:])
        if not prior or not latest:
            continue
        baseline = median(prior)
        band = (bands or {}).get(case, tolerance)
        floor = baseline * band
        if latest[0] < floor:
            regressions.append(
                Regression(
                    case=case,
                    baseline=baseline,
                    latest=latest[0],
                    floor=floor,
                    band=band,
                    runs=len(prior),
                )
            )
    regressions.sort(key=lambda r: r.latest / r.baseline)
    return regressions


def render_report(
    history: List[dict],
    tolerance: float = DEFAULT_TOLERANCE,
    bands: Optional[Dict[str, float]] = None,
) -> str:
    """The trajectory as a text table: one row per case, newest last.

    Shows run counts, the baseline median, the latest speedup, and the
    trend (latest over median); regressed cases get a trailing flag and
    a detail block.
    """
    baselines = compute_baselines(history)
    regressions = {r.case: r for r in check_regressions(history, tolerance, bands)}
    lines = [
        f"perf trajectory: {len(history)} record(s), "
        f"{len(baselines)} case(s)",
        f"{'case':<36} {'runs':>5} {'baseline':>9} {'latest':>9} {'trend':>7}",
    ]
    for case, base in baselines.items():
        latest = base.latest_speedup
        trend = (
            f"{latest / base.median_speedup:>6.2f}x"
            if latest and base.median_speedup > 0
            else "     --"
        )
        flag = "  << REGRESSION" if case in regressions else ""
        lines.append(
            f"{case:<36} {base.runs:>5} {base.median_speedup:>8.2f}x "
            f"{latest if latest is not None else 0.0:>8.2f}x {trend}{flag}"
        )
    for regression in regressions.values():
        lines.append(regression.describe())
    if not regressions:
        lines.append("no regressions: every gated case is inside its band")
    return "\n".join(lines)
