"""The platform's hour-scoped waiting index stays equal to session statuses.

``Sage`` keeps the table rows of its waiting pipelines as one array
(derived when an hour opens, appended by ``submit``, shrunk by
``_redistribute``, captured and restored with a rolled-back hour).  Every
allocation share, release target and escalation rate reads it, so after every hour of every drive it must equal the rows
recomputed from scratch -- the waiting sessions' table rows in submission
order -- and ``_new_block_share`` must equal the share recomputed from
them.
"""

import numpy as np
import pytest

from repro.core import faults
from repro.core.adaptive import AdaptiveConfig
from repro.core.platform import Sage
from repro.workload.oracle import CountStreamSource, OraclePipeline

HOURS = 10

# Submission hour -> pipelines.  Quick accepts, slow accepts, and sessions
# that time out, arriving while earlier ones still wait, so sessions leave
# the waiting set mid-hour with others still waiting behind them.
SCHEDULE = {
    0: [(800.0, 16), (50_000.0, 16), (1e12, 3), (2_000.0, 16)],
    2: [(1_500.0, 16), (1e12, 2), (200_000.0, 16)],
    5: [(1_000.0, 16), (1e12, 4), (5_000.0, 16)],
}


def _submissions():
    out = []
    for hour in sorted(SCHEDULE):
        for i, (complexity, attempts) in enumerate(SCHEDULE[hour]):
            pipeline = OraclePipeline(name=f"h{hour}p{i}", n_at_eps1=complexity)
            out.append((hour, pipeline, AdaptiveConfig(max_attempts=attempts)))
    return out


def _build(**kwargs):
    return Sage(CountStreamSource(4000, scale=1000), seed=5, **kwargs)


def assert_waiting_index(sage):
    entries = sage.pipelines
    expected = np.array(
        [entry.table_row for entry in entries if entry.waiting], dtype=np.intp
    )
    rows = sage._waiting_rows()
    assert rows.dtype == np.intp
    assert np.array_equal(rows, expected)
    assert sage._new_block_share() == sage.epsilon_global / max(1, len(expected))


def _submit_for(sage, hour):
    for submit_hour, pipeline, config in _submissions():
        if submit_hour == hour:
            sage.submit(pipeline, config)
            assert_waiting_index(sage)


def _drive(sage, hours, start=0):
    """Submit on schedule and advance, checking the index after every
    submission and every hour.  Returns how many sessions terminated."""
    for hour in range(start, hours):
        _submit_for(sage, hour)
        sage.advance(1.0)
        assert_waiting_index(sage)
    return sum(1 for entry in sage.pipelines if not entry.waiting)


def _terminating_hour():
    """(hour, waiting sessions driven) of the first hour in which a session
    leaves the waiting set, from a clean volatile run."""
    with _build() as sage:
        for hour in range(HOURS):
            _submit_for(sage, hour)
            driven = len(sage._waiting_rows())
            sage.advance(1.0)
            if len(sage._waiting_rows()) < driven:
                return hour, driven
    raise AssertionError("no session terminated")


@pytest.fixture(autouse=True)
def _clean_fault_registry():
    faults.clear()
    yield
    faults.clear()


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"batched_advance": False},
    ],
    ids=["batched", "sequential"],
)
def test_index_matches_statuses_every_hour(kwargs):
    with _build(**kwargs) as sage:
        terminated = _drive(sage, HOURS)
    # The drive must actually shrink the waiting set mid-run, with some
    # sessions still waiting at the end.
    assert 0 < terminated < len(_submissions())


@pytest.mark.parametrize("point", ["settle.mid_session", "wal.before_append"])
def test_rolled_back_hour_restores_index(point, tmp_path):
    """The fault fires after sessions have left the waiting set this hour
    (at the last session's settle, or after the whole drive): the rollback
    must hand back the pre-hour index."""
    hour, driven = _terminating_hour()
    skip = driven - 1 if point == "settle.mid_session" else 0
    with _build(wal_dir=tmp_path) as sage:
        _drive(sage, hour)
        _submit_for(sage, hour)
        before = sage._waiting_rows().copy()
        with pytest.raises(faults.InjectedFault):
            with faults.armed_error(point, skip=skip):
                sage.advance(1.0)
        assert sage.hours_committed == hour
        assert np.array_equal(sage._waiting_rows(), before)
        assert_waiting_index(sage)
        sage.advance(1.0)
        assert_waiting_index(sage)
        assert len(sage._waiting_rows()) < driven
        _drive(sage, HOURS, start=hour + 1)


@pytest.mark.parametrize(
    "snapshot_every,replayed", [(3, 2), (4, 0)], ids=["snapshot+tail", "snapshot"]
)
def test_recovered_platform_index(snapshot_every, replayed, tmp_path):
    with _build(wal_dir=tmp_path, snapshot_every=snapshot_every) as sage:
        _drive(sage, 8)
    recovered = _build(wal_dir=tmp_path, snapshot_every=snapshot_every)
    with recovered:
        report = recovered.recover([(p, c) for _, p, c in _submissions()])
        assert report.hours_committed == 8
        assert report.snapshot_hour == 8 - replayed
        assert report.replayed_hours == replayed
        assert_waiting_index(recovered)
        _drive(recovered, HOURS + 2, start=8)
