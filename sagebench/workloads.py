"""Seeded inputs and the episode driver for the Sage hour benchmark.

An *episode* is one platform lifetime: set-up (construct the platform,
pre-ingest, make the first submissions), the timed hours, and for the
durable workload the recoveries.  The load is closed-loop in wall time
(the next ``advance(1.0)`` is issued after the previous one returns) and
open-loop in simulated time (pipelines are submitted on their seeded
schedule, however slow the hours are).

Every input is generated here from the benchmark seed; the platform only
sees the generated inputs (including the seed of its own RNG, which is
drawn from the benchmark seed).
"""

from __future__ import annotations

import gc
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core import durability
from repro.core.adaptive import AdaptiveConfig
from repro.core.platform import Sage
from repro.workload.arrivals import GammaArrivals, PowerLawComplexity
from repro.workload.oracle import CountStreamSource, OraclePipeline

EPSILON_GLOBAL = 1.0
DELTA_GLOBAL = 1e-6

# Fig. 8 traffic (§5.4), as WorkloadConfig configures it.
ARRIVALS = GammaArrivals(0.5, 2.0)
COMPLEXITY = PowerLawComplexity()
POINTS_PER_HOUR = 16_000
COUNT_SCALE = 1000
STEADY_CONFIG = AdaptiveConfig(
    epsilon_start=1.0 / 16.0,
    epsilon_cap=EPSILON_GLOBAL,
    min_window_blocks=1,
    max_attempts=64,
    strategy="conserve",
)
# At rate 0.5 the platform is bistable: a traffic instance either keeps
# the backlog near zero (~1 ms hours) or falls into a standing backlog of
# ~50 sessions (~10 ms hours), and near that knee small differences in the
# traffic move the median hour by a quarter or more.  So the Fig. 8
# instance is fixed (drawn from STEADY_TRAFFIC_SEED, with a standing
# backlog submitted with the first hour to pin the backlogged regime) and
# the benchmark seed reshuffles which pipeline takes which arrival slot
# within each group of SHUFFLE_GROUP consecutive arrivals, and seeds the
# platform's RNG.  layer_map.json records the measurements behind this.
STEADY_TRAFFIC_SEED = 0
SHUFFLE_GROUP = 4
STEADY_WARM_PIPELINES = 40
STEADY_HOURS = 1000

# The contention hour: a long stream nobody waits on, then bursts of
# sessions that can each afford every attempt but never reach their
# target, so each burst scans, charges four times and times out.
CONTENTION_BLOCKS = 5000
CONTENTION_BURSTS = 20
CONTENTION_BURST = 100
CONTENTION_CONFIG = AdaptiveConfig(
    epsilon_start=0.001, epsilon_floor=0.001, max_attempts=4
)

# Steady traffic on a long stream with the write-ahead log on.  The run
# ends mid snapshot interval so recovery loads a snapshot and replays a
# WAL tail.
DURABLE_BLOCKS = 20_000
DURABLE_HOURS = 312
SNAPSHOT_EVERY = 25
RECOVERIES = 3


@dataclass(frozen=True)
class Traffic:
    """One workload's generated inputs."""

    sage_seed: int
    hours: int
    arrivals: np.ndarray  # submit times in hours; pipeline i is "p{i}"
    complexities: np.ndarray  # n_at_eps1 per arrival

    def pipelines(self, start: int, stop: int):
        return [
            (
                OraclePipeline(
                    name=f"p{i}",
                    n_at_eps1=float(self.complexities[i]),
                    scale=COUNT_SCALE,
                ),
                STEADY_CONFIG,
            )
            for i in range(start, stop)
        ]


def fig8_instance(hours: int) -> Tuple[np.ndarray, np.ndarray]:
    """The fixed Fig. 8 traffic over ``hours``: arrival times (the
    standing backlog at 0 first) and their complexities.

    Inter-arrival gaps follow ``ARRIVALS``' Gamma law, rescaled so that
    exactly ``rate * hours`` pipelines arrive inside the horizon.
    Complexities follow ``COMPLEXITY``'s truncated power law, drawn by
    stratified sampling (one uniform per equal-probability stratum, in
    random order), so the instance holds the whole tail.
    """
    rng = np.random.default_rng(STEADY_TRAFFIC_SEED)
    n = int(round(ARRIVALS.rate * hours))
    gaps = rng.gamma(ARRIVALS.shape, 1.0 / (ARRIVALS.rate * ARRIVALS.shape), n)
    scheduled = np.cumsum(gaps) * (hours * n / (n + 1.0) / gaps.sum())
    arrivals = np.concatenate([np.zeros(STEADY_WARM_PIPELINES), scheduled])
    total = len(arrivals)
    u = (rng.permutation(total) + rng.random(total)) / total
    a = COMPLEXITY.alpha
    lo, hi = COMPLEXITY.n_min ** -a, COMPLEXITY.n_max ** -a
    return arrivals, (lo - u * (lo - hi)) ** (-1.0 / a)


def fig8_traffic(seed: int, hours: int) -> Traffic:
    """The Fig. 8 instance with pipelines reshuffled by ``seed`` within
    each group of ``SHUFFLE_GROUP`` consecutive arrival slots."""
    arrivals, complexities = fig8_instance(hours)
    rng = np.random.default_rng(seed)
    order = np.arange(len(arrivals))
    for start in range(0, len(order), SHUFFLE_GROUP):
        group = order[start : start + SHUFFLE_GROUP]
        group[:] = rng.permutation(group)
    return Traffic(int(rng.integers(2**31)), hours, arrivals, complexities[order])


def contention_traffic(seed: int) -> Traffic:
    rng = np.random.default_rng(seed)
    return Traffic(
        int(rng.integers(2**31)), CONTENTION_BURSTS, np.zeros(0), np.zeros(0)
    )


# ----------------------------------------------------------------------
# Episode
# ----------------------------------------------------------------------
@dataclass
class Episode:
    """What one platform lifetime measured and checked."""

    setup_s: float = 0.0
    hour_walls: List[float] = field(default_factory=list)  # s; inf = failed
    recover_walls: List[float] = field(default_factory=list)  # s; inf = failed
    digest: Optional[int] = None
    release_hours_mean: Optional[float] = None
    disk_bytes: Optional[int] = None
    granted: float = 0.0
    denied: float = 0.0
    problems: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.hour_walls) + len(self.recover_walls)

    @property
    def failed(self) -> int:
        return sum(
            1 for wall in self.hour_walls + self.recover_walls if wall == float("inf")
        )


class Phases:
    """Where the episode is; a traced run records spans per phase."""

    def set(self, phase: str) -> None:
        pass


@dataclass
class Spec:
    """One workload: how to set it up and what to submit and check."""

    name: str
    traffic: Callable[[int], Traffic]
    source: Callable[[], CountStreamSource]
    pre_ingest: int
    durable: bool


SPECS = {
    "steady": Spec(
        "steady",
        lambda seed: fig8_traffic(seed, STEADY_HOURS),
        lambda: CountStreamSource(POINTS_PER_HOUR, scale=COUNT_SCALE),
        0,
        False,
    ),
    "contention": Spec(
        "contention",
        contention_traffic,
        lambda: CountStreamSource(POINTS_PER_HOUR, scale=COUNT_SCALE),
        CONTENTION_BLOCKS,
        False,
    ),
    "durable": Spec(
        "durable",
        lambda seed: fig8_traffic(seed, DURABLE_HOURS),
        lambda: CountStreamSource(POINTS_PER_HOUR, scale=COUNT_SCALE),
        DURABLE_BLOCKS,
        True,
    ),
}


class _Driver:
    """Submits a workload's pipelines hour by hour and checks each hour."""

    def __init__(self, spec: Spec, traffic: Traffic, wal_dir: Optional[Path]):
        self.spec = spec
        self.traffic = traffic
        self.wal_dir = wal_dir
        self.submitted: list = []  # (pipeline, config) in submission order
        self.entries: list = []
        self.next_arrival = 0

    def build(self) -> Sage:
        kwargs = {}
        if self.wal_dir is not None:
            kwargs = dict(wal_dir=self.wal_dir, snapshot_every=SNAPSHOT_EVERY)
        return Sage(
            self.spec.source(),
            epsilon_global=EPSILON_GLOBAL,
            delta_global=DELTA_GLOBAL,
            seed=self.traffic.sage_seed,
            **kwargs,
        )

    def submit_for_hour(self, sage: Sage, hour: int) -> None:
        if self.spec.name == "contention":
            batch = [
                (OraclePipeline(name=f"b{hour}p{i}", n_at_eps1=1e12), CONTENTION_CONFIG)
                for i in range(CONTENTION_BURST)
            ]
        else:
            arrivals = self.traffic.arrivals
            stop = self.next_arrival
            while stop < len(arrivals) and arrivals[stop] <= hour:
                stop += 1
            batch = self.traffic.pipelines(self.next_arrival, stop)
            self.next_arrival = stop
        for pipeline, config in batch:
            self.entries.append(sage.submit(pipeline, config))
        self.submitted.extend(batch)

    def check_hour(self, sage: Sage, hour: int, problems: List[str]) -> None:
        if self.spec.name != "contention":
            return
        burst = self.entries[-CONTENTION_BURST:]
        waiting = sum(1 for entry in burst if entry.waiting)
        charges = sage.last_hour_charges
        if waiting or charges != CONTENTION_BURST * CONTENTION_CONFIG.max_attempts:
            problems.append(
                f"burst {hour}: {waiting} sessions still waiting, "
                f"{charges} charges"
            )

    def release_hours_mean(self) -> float:
        """Fig. 8's metric: submit to release, unreleased censored at the
        horizon (contention's timed-out sessions are all censored)."""
        arrivals = self.traffic.arrivals
        offset = self.spec.pre_ingest
        horizon = offset + self.traffic.hours
        times = []
        for index, entry in enumerate(self.entries):
            if len(arrivals):
                submit = offset + arrivals[index]
            else:
                submit = entry.submit_time_hours
            end = entry.release_time_hours
            times.append((end if end is not None else horizon) - submit)
        return float(np.mean(times))


def _dir_bytes(path: Path) -> int:
    return sum(child.stat().st_size for child in path.iterdir() if child.is_file())


def setup(spec: Spec, traffic: Traffic, wal_dir: Optional[Path]):
    """Construct the platform, pre-ingest and make the first submissions.
    Returns ``(driver, sage, seconds)``."""
    start = time.perf_counter()
    driver = _Driver(spec, traffic, wal_dir)
    sage = driver.build()
    if spec.pre_ingest:
        sage.advance(float(spec.pre_ingest))
    driver.submit_for_hour(sage, 0)
    return driver, sage, time.perf_counter() - start


def run_episode(
    spec: Spec,
    traffic: Traffic,
    work_dir: Path,
    phases: Phases = Phases(),
) -> Episode:
    """One platform lifetime; the WAL directory is removed afterwards."""
    episode = Episode()
    wal_dir = None
    if spec.durable:
        wal_dir = work_dir / f"wal-{os.getpid()}-{time.monotonic_ns()}"
    try:
        phases.set("setup")
        driver, sage, episode.setup_s = setup(spec, traffic, wal_dir)
        metrics = sage.metrics
        granted0 = metrics.counter_value("sage_charges_granted_total")
        denied0 = metrics.counter_value("sage_charges_denied_total")
        phases.set("hours")
        try:
            for hour in range(traffic.hours):
                if hour:
                    driver.submit_for_hour(sage, hour)
                start = time.perf_counter()
                try:
                    sage.advance(1.0)
                except Exception as exc:  # counted, then the episode stops
                    episode.hour_walls.append(float("inf"))
                    episode.problems.append(f"hour {hour} raised {exc!r}")
                    return episode
                episode.hour_walls.append(time.perf_counter() - start)
                driver.check_hour(sage, hour, episode.problems)
            phases.set("check")
            episode.granted = metrics.counter_value("sage_charges_granted_total") - granted0
            episode.denied = metrics.counter_value("sage_charges_denied_total") - denied0
            episode.digest = durability.state_digest(sage)
            episode.release_hours_mean = driver.release_hours_mean()
            loss = sage.access.stream_loss_bound()
            if loss.epsilon > EPSILON_GLOBAL + 1e-9 or loss.delta > DELTA_GLOBAL + 1e-15:
                episode.problems.append(
                    f"stream loss {loss} exceeds ({EPSILON_GLOBAL}, {DELTA_GLOBAL})"
                )
        finally:
            sage.close()
        if wal_dir is not None:
            episode.disk_bytes = _dir_bytes(wal_dir)
            for _ in range(RECOVERIES):
                _recover(driver, episode, phases)
        return episode
    finally:
        if wal_dir is not None:
            shutil.rmtree(wal_dir, ignore_errors=True)


def _recover(driver: _Driver, episode: Episode, phases: Phases) -> None:
    """Recover a fresh platform over the run's WAL directory and check it
    reproduces the live final digest."""
    phases.set("check")
    fresh = driver.build()
    try:
        phases.set("recover")
        start = time.perf_counter()
        try:
            fresh.recover(driver.submitted)
        except Exception as exc:  # counted as a failed attempt
            episode.recover_walls.append(float("inf"))
            episode.problems.append(f"recover raised {exc!r}")
            return
        episode.recover_walls.append(time.perf_counter() - start)
        phases.set("check")
        digest = durability.state_digest(fresh)
    finally:
        fresh.close()
    if digest != episode.digest:
        episode.problems.append(
            f"recovered digest {digest} != live digest {episode.digest}"
        )


def setup_only(spec: Spec, traffic: Traffic, work_dir: Path) -> float:
    """One extra set-up, discarded: another ``setup_s`` sample."""
    wal_dir = work_dir / f"setup-{os.getpid()}-{time.monotonic_ns()}"
    try:
        _, sage, seconds = setup(spec, traffic, wal_dir if spec.durable else None)
        sage.close()
        del sage
        gc.collect()
        return seconds
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)
