"""ReservationTable: the allocator's contiguous pipelines x blocks matrix."""

import numpy as np
import pytest

from repro.core.accountant import TOT_EPS, BlockAccountant
from repro.core.adaptive import AdaptiveConfig
from repro.core.platform import ReservationTable, Sage
from repro.data.taxi import TaxiGenerator
from repro.dp.budget import PrivacyBudget
from repro.errors import AccessDeniedError


class DictAllocator:
    """The seed's dict semantics, as the reference implementation."""

    def __init__(self):
        self.reservations = {}  # pipeline -> {block: epsilon}
        self.free = {}

    def add_pipeline(self, p):
        self.reservations[p] = {}

    def allocate(self, block, amount, waiting):
        if not waiting:
            self.free[block] = self.free.get(block, 0.0) + amount
            return
        share = amount / len(waiting)
        for p in waiting:
            self.reservations[p][block] = self.reservations[p].get(block, 0.0) + share

    def grant_free(self, waiting):
        if not waiting or not self.free:
            return
        for block, amount in list(self.free.items()):
            share = amount / len(waiting)
            for p in waiting:
                self.reservations[p][block] = (
                    self.reservations[p].get(block, 0.0) + share
                )
            del self.free[block]

    def release(self, p, waiting):
        leftovers = {k: v for k, v in self.reservations[p].items() if v > 0}
        self.reservations[p] = {}
        for block, amount in leftovers.items():
            if waiting:
                share = amount / len(waiting)
                for q in waiting:
                    self.reservations[q][block] = (
                        self.reservations[q].get(block, 0.0) + share
                    )
            else:
                self.free[block] = self.free.get(block, 0.0) + amount

    def settle(self, p, blocks, epsilon):
        for block in blocks:
            held = self.reservations[p].get(block, 0.0)
            self.reservations[p][block] = max(0.0, held - epsilon)

    def limit(self, p, blocks):
        if not blocks:
            return 0.0
        return min(self.reservations[p].get(b, 0.0) for b in blocks)


class OracleHarness:
    """Drives a ReservationTable and the dict reference op by op.

    After every op it checks, per column, that the table equals the
    reference cell for cell, that no cell (or free-pool entry) is ``-0.0``
    -- the dense release adds ``+0.0`` credits to cells the releaser does
    not hold, which is the identity only on ``+0.0`` -- and that epsilon is
    conserved: the column's reservations plus its free pool equal an
    independently accumulated *allocated minus settled* total.

    Conservation bound: every op adds at most ``len(waiting) + 1`` rounded
    float operations to a column (one per touched cell, plus the division
    producing the share), each off by at most half an ulp of the column's
    allocated total (no cell exceeds it), and the final
    ``rows.sum() + free`` adds one more rounding per term -- so the check
    allows ``roundings + n_pipelines + 1`` ulps of the allocated total.
    """

    def __init__(self, n_pipelines, n_blocks, pipeline_capacity=1, block_capacity=1):
        self.table = ReservationTable(pipeline_capacity, block_capacity)
        self.ref = DictAllocator()
        for p in range(n_pipelines):
            row = self.table.add_pipeline()
            assert row == p
            self.ref.add_pipeline(p)
        self.n_pipelines = n_pipelines
        self.n_blocks = n_blocks
        for b in range(n_blocks):
            col = self.table.add_block()
            assert col == b
        self.allocated = np.zeros(n_blocks)
        self.settled = np.zeros(n_blocks)
        self.roundings = np.zeros(n_blocks)

    def allocate(self, b, amount, waiting):
        self.table.allocate(b, amount, np.array(waiting, dtype=np.intp))
        self.ref.allocate(b, amount, waiting)
        self.allocated[b] += amount
        self.roundings[b] += len(waiting) + 1
        self.check()

    def grant_free(self, waiting):
        if waiting:
            self.roundings[list(self.ref.free)] += len(waiting) + 1
        self.table.grant_free(np.array(waiting, dtype=np.intp))
        self.ref.grant_free(waiting)
        self.check()

    def settle(self, p, blocks, eps):
        for b in blocks:
            self.settled[b] += min(self.ref.reservations[p].get(b, 0.0), eps)
            self.roundings[b] += 1
        self.table.settle(p, np.array(blocks, dtype=np.intp), eps)
        self.ref.settle(p, blocks, eps)
        self.check()

    def release(self, p, waiting):
        held = [b for b, v in self.ref.reservations[p].items() if v > 0]
        self.roundings[held] += len(waiting) + 1
        self.table.release(p, np.array(waiting, dtype=np.intp))
        self.ref.release(p, waiting)
        self.check()

    def check(self):
        table, ref = self.table, self.ref
        assert not np.signbit(table.matrix).any()
        assert not np.signbit(table.free_epsilon).any()
        expected = np.zeros((self.n_pipelines, self.n_blocks))
        for p, held in ref.reservations.items():
            for b, v in held.items():
                expected[p, b] = v
        assert np.array_equal(table.matrix, expected)
        free_ref = np.zeros(self.n_blocks)
        for b, v in ref.free.items():
            free_ref[b] = v
        assert np.array_equal(table.free_epsilon, free_ref)
        outstanding = table.matrix.sum(axis=0) + table.free_epsilon
        bound = (self.roundings + self.n_pipelines + 1) * np.spacing(self.allocated)
        assert np.all(np.abs(outstanding - (self.allocated - self.settled)) <= bound)


def test_matches_dict_reference_through_random_schedule():
    """A random allocate/grant/settle/release schedule must reproduce the
    seed's dict allocator value-for-value, op by op.  Releases pop random
    pipelines, so the waiting rows turn non-contiguous; the last one
    releases into the free pool (nobody left waiting)."""
    rng = np.random.default_rng(9)
    n_pipelines, n_blocks = 7, 40
    h = OracleHarness(n_pipelines, n_blocks)  # capacity 1: forces growth
    waiting = list(range(n_pipelines))
    for b in range(n_blocks):
        active = [p for p in waiting if rng.random() < 0.8]
        h.allocate(b, 1.0, active)
        if rng.random() < 0.3:
            p = int(rng.integers(n_pipelines))
            blocks = list(rng.choice(b + 1, size=min(b + 1, 3), replace=False))
            h.settle(p, blocks, float(rng.uniform(0.0, 0.2)))
        if waiting and rng.random() < 0.2:
            p = waiting.pop(int(rng.integers(len(waiting))))
            h.release(p, waiting)
        h.grant_free(waiting)
    while waiting:  # drain: the last release goes to the free pool
        p = waiting.pop(0)
        h.release(p, waiting)
    assert h.table.free_epsilon.any()
    for p in range(n_pipelines):
        probe = list(range(0, n_blocks, 7))
        assert h.table.limit(p, np.array(probe, dtype=np.intp)) == h.ref.limit(p, probe)


def test_release_credits_only_held_columns_to_scattered_rows():
    """A releaser holding zero where the waiting rows hold budget leaves
    those cells bit-for-bit untouched, and credits land only on the
    (non-contiguous) waiting rows."""
    h = OracleHarness(n_pipelines=6, n_blocks=8, pipeline_capacity=8, block_capacity=8)
    everyone = list(range(6))
    for b in range(8):
        h.allocate(b, 1.0, everyone)
    # The releaser (row 3) spends its whole reservation on blocks 0-3 and
    # part of it on 4: it holds 0.0 on columns where everyone else holds
    # budget.  Row 5's block 6 goes to zero too.
    h.settle(3, [0, 1, 2, 3], 1.0)
    h.settle(3, [4], 0.05)
    h.settle(5, [6], 1.0)
    before = h.table.matrix.copy()
    waiting = [0, 2, 5]  # rows 1 and 4 are finished / not waiting
    h.release(3, waiting)
    after = h.table.matrix
    assert np.array_equal(after[3], np.zeros(8))
    assert np.array_equal(after[[1, 4]], before[[1, 4]])
    # Columns the releaser did not hold are untouched on every row.
    assert np.array_equal(after[waiting][:, :4], before[waiting][:, :4])
    credit = before[3, 4:] / 3
    for row in waiting:
        assert np.array_equal(after[row, 4:], before[row, 4:] + credit)
    # Nobody waiting: the holding lands in the free pool, then goes back
    # out to the next waiting set.
    held = h.table.row_values(0)
    h.release(0, [])
    assert np.array_equal(h.table.free_epsilon, held)
    h.grant_free([2, 5])
    assert not h.table.free_epsilon.any()


def test_unknown_columns_read_as_zero():
    table = ReservationTable()
    row = table.add_pipeline()
    table.add_block()
    table.allocate(0, 1.0, np.array([row], dtype=np.intp))
    values = table.values(row, np.array([0, 5], dtype=np.intp))
    assert values[0] == pytest.approx(1.0)
    assert values[1] == 0.0
    assert table.limit(row, np.array([0, 5], dtype=np.intp)) == 0.0
    assert table.limit(row, np.array([], dtype=np.intp)) == 0.0


def test_epsilon_conservation_on_platform():
    """Reservations + free pool + settled spend account for every block's
    epsilon_global exactly, hour after hour."""
    sage = Sage(TaxiGenerator(points_per_hour=1000), 1.0, 1e-6, seed=4)
    sage.advance(2.0)  # free-pool hours
    entries = [
        sage.submit(_Threshold(f"p{i}", 600.0 * (i + 1))) for i in range(3)
    ]
    for _ in range(8):
        sage.advance(1.0)
        table = sage.reservation_table
        accountant = sage.access.accountant
        n_blocks = table.n_blocks
        assert n_blocks == len(accountant.store)
        reserved = table.matrix.sum(axis=0)
        spent = accountant.store.totals[:, TOT_EPS]
        outstanding = reserved + table.free_epsilon + spent
        assert np.all(outstanding <= 1.0 + 1e-9)


def test_platform_reservations_dict_mirrors_table():
    sage = Sage(TaxiGenerator(points_per_hour=1000), 1.0, 1e-6, seed=4)
    a = sage.submit(_Threshold("a", 1e12))
    b = sage.submit(_Threshold("b", 1e12))
    sage.advance(2.0)
    key = sage.database.keys[0]
    row = sage.access.accountant.rows_for_keys([key])[0]
    for entry in (a, b):
        held = sage.reservation_table.values(entry.table_row, np.array([row]))[0]
        assert entry.reservations.get(key, 0.0) == held
        assert all(v != 0.0 for v in entry.reservations.values())


def test_failed_request_many_leaves_table_untouched():
    """A rejected settlement batch must leave the ReservationTable (and the
    ledger store) byte-for-byte unchanged."""
    sage = Sage(TaxiGenerator(points_per_hour=1000), 1.0, 1e-6, seed=4)
    sage.submit(_Threshold("p", 1e12), AdaptiveConfig(epsilon_start=0.5))
    sage.advance(3.0)
    keys = sage.database.keys[:2]
    table_before = sage.reservation_table.matrix.copy()
    free_before = sage.reservation_table.free_epsilon.copy()
    totals_before = sage.access.accountant.store.totals.copy()
    with pytest.raises(Exception):
        sage.access.request_many(
            [
                (keys, PrivacyBudget(0.3, 0.0)),
                (keys, PrivacyBudget(0.9, 0.0)),  # overdraws: whole batch dies
            ]
        )
    assert np.array_equal(sage.reservation_table.matrix, table_before)
    assert np.array_equal(sage.reservation_table.free_epsilon, free_before)
    assert np.array_equal(sage.access.accountant.store.totals, totals_before)


def test_request_many_charges_stream_and_context():
    from repro.core.access_control import SageAccessControl

    access = SageAccessControl(1.0, 1e-6)
    access.add_context("dev", 0.5, 1e-6)
    access.register_blocks([0, 1, 2])
    records = access.request_many(
        [([0, 1], PrivacyBudget(0.2, 0.0)), ([1, 2], PrivacyBudget(0.2, 0.0), "x")],
        context="dev",
    )
    assert len(records) == 2
    assert access.accountant.ledger(1).totals[TOT_EPS] == pytest.approx(0.4)
    with pytest.raises(AccessDeniedError):
        # The context (0.5) refuses before the stream (1.0) is touched.
        access.request_many([([0], PrivacyBudget(0.4, 0.0))], context="dev")
    assert access.accountant.ledger(0).totals[TOT_EPS] == pytest.approx(0.2)
    assert access.can_request_many([([0], PrivacyBudget(0.4, 0.0))])
    assert not access.can_request_many([([0], PrivacyBudget(0.4, 0.0))], context="dev")


def test_request_many_accepts_generators():
    """Regression: the batch endpoints consume ``requests`` once per ledger
    set; a generator must not be silently exhausted by the context
    pre-check (which would commit nothing and return success)."""
    from repro.core.access_control import SageAccessControl

    access = SageAccessControl(1.0, 1e-6)
    access.add_context("dev", 0.5, 1e-6)
    access.register_blocks([0, 1])
    records = access.request_many(
        ((keys, PrivacyBudget(0.1, 0.0)) for keys in ([0], [0, 1])), context="dev"
    )
    assert len(records) == 2
    assert access.accountant.ledger(0).totals[TOT_EPS] == pytest.approx(0.2)
    assert not access.can_request_many(
        (r for r in [([0], PrivacyBudget(0.45, 0.0))]), context="dev"
    )


class _Threshold:
    def __init__(self, name, threshold):
        self.name = name
        self.threshold = threshold

    def run(self, batch, budget, rng, correct_for_dp=True):
        from repro.core.pipeline import PipelineRun
        from repro.core.validation.outcomes import Outcome, ValidationResult

        outcome = (
            Outcome.ACCEPT
            if len(batch) * budget.epsilon >= self.threshold
            else Outcome.RETRY
        )
        return PipelineRun(
            name=self.name,
            outcome=outcome,
            validation=ValidationResult(outcome, PrivacyBudget(budget.epsilon, 0.0)),
            budget_charged=budget,
        )
