"""Conservation oracle: every block's budget is reserved, free, or spent.

The platform allocates each new block's ``epsilon_global`` to the waiting
pipelines (or the free pool), settles charges out of the charging
pipeline's reservations, and hands a terminating pipeline's leftovers to
the others.  None of those steps may create or destroy budget, so after
every hour, for every block ``b``::

    sum_p reservation[p, b] + free_pool[b] + sum(eps of charges on b)
        == epsilon_global

The charge-log term is re-summed here in plain Python from
``accountant.charges``; nothing is read back from the ledger slabs, so the
check shares no code with the accountant it audits (the byte-parity tests
only compare the accountant's own paths with each other).  The ledger's
epsilon column is then held to the same re-summation.

Drives are hypothesis-drawn: staggered submissions, mixed
``max_attempts``, and sessions that end accepted, timed out or still
needing data; batched and sequential hours, a WAL-recovered drive, and
basic, strong and Renyi filters.  A mutant release that drops one
pipeline's credit must fail the check.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.accountant import TOT_EPS
from repro.core.adaptive import AdaptiveConfig, SessionStatus
from repro.core.filters import RenyiCompositionFilter, StrongCompositionFilter
from repro.core.platform import ReservationTable, Sage
from repro.workload.oracle import CountStreamSource, OraclePipeline

EPS_G = 1.0
BOUND = 1e-12

FILTERS = {
    "basic": None,
    "strong": StrongCompositionFilter,
    "renyi": RenyiCompositionFilter,
}

# Targets from "accepted within a few hours" to "never enough data".
TARGETS = [2_000.0, 8_000.0, 40_000.0, 1e9]
MAX_ATTEMPTS = [1, 2, 4, 16]

SUBMISSIONS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=15),  # submit hour
        st.sampled_from(TARGETS),
        st.sampled_from(MAX_ATTEMPTS),
    ),
    min_size=1,
    max_size=6,
)


def conservation_deviation(sage):
    """Largest |reserved + free + spent - epsilon_global| over blocks."""
    accountant = sage.access.accountant
    keys = accountant.block_keys
    table = sage.reservation_table
    assert table.n_blocks == len(keys)
    column = {key: i for i, key in enumerate(keys)}
    spent = [0.0] * len(keys)
    for record in accountant.charges:
        for key in record.block_keys:
            spent[column[key]] += record.budget.epsilon
    matrix = table.matrix
    assert (matrix >= 0.0).all() and (table.free_epsilon >= 0.0).all()
    reserved = [float(x) for x in matrix.sum(axis=0)]
    free = [float(x) for x in table.free_epsilon]
    ledger_eps = accountant.store.totals[:, TOT_EPS]
    worst = 0.0
    for b in range(len(keys)):
        worst = max(worst, abs(reserved[b] + free[b] + spent[b] - EPS_G))
        worst = max(worst, abs(float(ledger_eps[b]) - spent[b]))
    return worst


def build(filter_name, batched=True, wal_dir=None):
    return Sage(
        CountStreamSource(4000, scale=1000),
        epsilon_global=EPS_G,
        seed=7,
        filter_factory=FILTERS[filter_name],
        batched_advance=batched,
        wal_dir=wal_dir,
        snapshot_every=3 if wal_dir is not None else 0,
    )


def pipelines(submissions):
    """``(submit hour, pipeline, config)`` in submission order."""
    ordered = sorted(enumerate(submissions), key=lambda item: (item[1][0], item[0]))
    return [
        (
            hour,
            OraclePipeline(name=f"p{i}", n_at_eps1=target),
            AdaptiveConfig(max_attempts=attempts),
        )
        for i, (hour, target, attempts) in ordered
    ]


def drive(sage, schedule, hours, start=0):
    """Advance hours ``start .. hours - 1``, submitting on schedule, and
    check conservation after every hour."""
    for hour in range(start, hours):
        for submit_hour, pipeline, config in schedule:
            if submit_hour == hour:
                sage.submit(pipeline, config)
        sage.advance(1.0)
        deviation = conservation_deviation(sage)
        assert deviation <= BOUND, f"hour {hour}: budget drifted by {deviation:.3g}"


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "sequential"])
@pytest.mark.parametrize("filter_name", sorted(FILTERS))
@settings(max_examples=25, deadline=None)
@given(submissions=SUBMISSIONS, hours=st.integers(min_value=1, max_value=40))
def test_budget_is_conserved_every_hour(filter_name, batched, submissions, hours):
    sage = build(filter_name, batched=batched)
    drive(sage, pipelines(submissions), hours)
    sage.close()


@pytest.mark.parametrize("filter_name", sorted(FILTERS))
@settings(max_examples=10, deadline=None)
@given(
    submissions=SUBMISSIONS,
    crash_hour=st.integers(min_value=1, max_value=20),
    extra_hours=st.integers(min_value=0, max_value=15),
)
def test_budget_is_conserved_across_recovery(
    filter_name, submissions, crash_hour, extra_hours
):
    """A platform rebuilt from its WAL and snapshots conserves budget on
    recovery and on every hour it drives afterwards."""
    schedule = pipelines(submissions)
    with tempfile.TemporaryDirectory() as wal_dir:
        sage = build(filter_name, wal_dir=wal_dir)
        drive(sage, schedule, crash_hour)
        sage.close()  # abandon the in-memory state
        recovered = build(filter_name, wal_dir=wal_dir)
        recovered.recover(
            [(p, c) for hour, p, c in schedule if hour < crash_hour]
        )
        assert conservation_deviation(recovered) <= BOUND
        drive(recovered, schedule, crash_hour + extra_hours, start=crash_hour)
        recovered.close()


FIXED = [
    (0, 2_000.0, 16),  # accepted early
    (0, 1e9, 2),  # times out
    (1, 8_000.0, 16),  # accepted later
    (2, 1e9, 16),  # still needs data at the end
    (3, 40_000.0, 1),  # times out
    (5, 1e9, 16),  # still needs data at the end
]


@pytest.mark.parametrize("batched", [True, False], ids=["batched", "sequential"])
def test_fixed_drive_reaches_every_outcome(batched):
    """The generators' outcome mix is real: one fixed drive ends with
    accepted, timed-out and data-starved sessions, conserving throughout."""
    sage = build("basic", batched=batched)
    drive(sage, pipelines(FIXED), 30)
    statuses = {entry.status for entry in sage.pipelines}
    assert {
        SessionStatus.ACCEPTED, SessionStatus.TIMEOUT, SessionStatus.NEED_DATA
    } <= statuses
    sage.close()


def _release_dropping_one_credit(self, row, waiting_rows):
    """Mutant: the first waiting pipeline never receives its share."""
    n = self._n_blocks
    held = self._eps[row, :n]
    if len(waiting_rows):
        credit = np.where(held > 0.0, held / len(waiting_rows), 0.0)
        for waiting_row in waiting_rows.tolist()[1:]:
            self._eps[waiting_row, :n] += credit
    else:
        self._free[:n] += held
    held[:] = 0.0


def test_mutant_release_is_caught(monkeypatch):
    monkeypatch.setattr(ReservationTable, "release", _release_dropping_one_credit)
    sage = build("basic")
    with pytest.raises(AssertionError, match="budget drifted"):
        drive(sage, pipelines(FIXED), 30)
    sage.close()
