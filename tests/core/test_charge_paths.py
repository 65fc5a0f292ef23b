"""Every charge path over the one ledger store lands the same state.

A batch of charges reaches a :class:`BlockAccountant` three ways:
sequential :meth:`~BlockAccountant.charge` calls, one validating
:meth:`~BlockAccountant.charge_many`, and a staged hour (``stage_charge``
per request, then ``pop_staged`` into ``charge_many``).  The sequential
path is the reference; the properties here:

* all three paths leave byte-identical committed state (store rows, live
  mask, charge counts, ledger histories and totals, the charge log, and
  the exported snapshot), for basic, strong and Renyi filters and for
  Renyi-curve (Gaussian) budgets;
* ``stage_charge`` refuses exactly what ``charge`` refuses, with the same
  error, and stages nothing on refusal;
* reads through an open overlay equal the same reads after the staged
  charges commit;
* a refused ``charge_many`` -- wherever the refusing request sits --
  leaves everything untouched and raises the error the sequential path
  raises first;
* store-level row writes, retirement and truncation, and the aggregate
  reads (``loss_dashboard``, ``stream_loss_bound``, ``retired_blocks``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.accountant import (
    TOT_EPS,
    TOTALS_BASE,
    BlockAccountant,
    LedgerStore,
)
from repro.core.filters import RenyiCompositionFilter, StrongCompositionFilter
from repro.core.odometer import StrongOdometer, loss_dashboard
from repro.dp.budget import PrivacyBudget
from repro.dp.rdp import gaussian_mechanism_budget
from repro.errors import (
    BlockRetiredError,
    BudgetExceededError,
    RecoveryError,
)

EPS_G, DELTA_G = 1.0, 1e-6
REFUSALS = (BudgetExceededError, BlockRetiredError)

FILTERS = {
    "basic": None,
    "strong": StrongCompositionFilter,
    "renyi": RenyiCompositionFilter,
}


def make_accountant(filter_name, n_blocks=16, filter_factory=None):
    acc = BlockAccountant(
        EPS_G, DELTA_G, filter_factory=filter_factory or FILTERS[filter_name]
    )
    acc.register_blocks(range(n_blocks))
    return acc


def fingerprint(acc):
    """The accountant's full committed state, as comparable values."""
    state = acc.export_state()
    return (
        state["schema_width"],
        state["keys"],
        state["totals"].tobytes(),
        state["live"].tobytes(),
        state["counts"].tobytes(),
        [(b.epsilon, b.delta, keys, label) for b, keys, label in state["charges"]],
        [tuple(acc.ledger(k).totals) for k in acc.block_keys],
        [
            [(b.epsilon, b.delta) for b in acc.ledger(k).history]
            for k in acc.block_keys
        ],
    )


def random_requests(rng, n_blocks, n_requests, wide=False):
    requests = []
    for j in range(n_requests):
        size = int(rng.integers(1, max(2, n_blocks // 2)))
        keys = sorted(rng.choice(n_blocks, size=size, replace=False).tolist())
        if wide and j % 3 == 0:
            budget = gaussian_mechanism_budget(
                0.01, float(rng.uniform(2.0, 6.0)), int(rng.integers(10, 80)), 1e-9
            )
        else:
            budget = PrivacyBudget(float(rng.uniform(0.01, 0.3)), 1e-9)
        requests.append((keys, budget, f"r{j}"))
    return requests


def apply_sequentially(acc, requests):
    """Charge each request in turn; return the committed ones and the
    refusals as ``(index, error type, message)``."""
    committed, refused = [], []
    for index, (keys, budget, label) in enumerate(requests):
        try:
            acc.charge(keys, budget, label=label)
        except REFUSALS as exc:
            refused.append((index, type(exc).__name__, str(exc)))
        else:
            committed.append((keys, budget, label))
    return committed, refused


def land(acc, path, requests):
    """Commit an admissible batch through one of the batch paths."""
    if path == "charge_many":
        acc.charge_many(list(requests))
        return
    acc.begin_staging()
    for keys, budget, label in requests:
        acc.stage_charge(keys, budget, label)
    acc.charge_many(acc.pop_staged())
    assert not acc.staging_active


# ----------------------------------------------------------------------
# Committed state: every batch path equals the sequential reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("path", ["charge_many", "staged"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("filter_name", sorted(FILTERS))
def test_batch_path_matches_sequential_charges(filter_name, seed, path):
    rng = np.random.default_rng(seed)
    wide = filter_name == "renyi"
    requests = random_requests(rng, 16, 14, wide=wide)
    reference = make_accountant(filter_name)
    admissible, _ = apply_sequentially(reference, requests)
    assert admissible  # the drawn batch commits something
    acc = make_accountant(filter_name)
    land(acc, path, admissible)
    assert fingerprint(acc) == fingerprint(reference)
    probe = PrivacyBudget(0.05, 1e-9)
    assert acc.usable_blocks(probe) == reference.usable_blocks(probe)
    assert acc.usable_blocks_tail(probe, 5) == reference.usable_blocks_tail(probe, 5)
    assert acc.max_epsilon(list(range(10)), 1e-9) == reference.max_epsilon(
        list(range(10)), 1e-9
    )
    assert np.array_equal(
        acc.admits_keys(list(range(16)), probe),
        reference.admits_keys(list(range(16)), probe),
    )
    assert acc.stream_loss_bound() == reference.stream_loss_bound()


@pytest.mark.parametrize("filter_name", sorted(FILTERS))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n_blocks=st.integers(4, 20))
def test_stage_charge_refuses_exactly_what_charge_refuses(
    filter_name, seed, n_blocks
):
    """Staging a request stream (refusals included) stages exactly the
    requests sequential charging commits, refuses the rest with the same
    error, and commits to the same state."""
    rng = np.random.default_rng(seed)
    requests = random_requests(
        rng, n_blocks, int(rng.integers(1, 16)), wide=filter_name == "renyi"
    )
    reference = make_accountant(filter_name, n_blocks)
    committed, refused = apply_sequentially(reference, requests)
    acc = make_accountant(filter_name, n_blocks)
    acc.begin_staging()
    staged_refusals = []
    for index, (keys, budget, label) in enumerate(requests):
        before = acc.staged_request_count
        try:
            acc.stage_charge(keys, budget, label)
        except REFUSALS as exc:
            staged_refusals.append((index, type(exc).__name__, str(exc)))
            assert acc.staged_request_count == before  # staged nothing
    assert staged_refusals == refused
    assert acc.staged_requests == committed
    acc.charge_many(acc.pop_staged())
    assert fingerprint(acc) == fingerprint(reference)


# ----------------------------------------------------------------------
# Reads through an open overlay
# ----------------------------------------------------------------------
@pytest.mark.parametrize("filter_name", sorted(FILTERS))
def test_overlay_reads_equal_reads_after_commit(filter_name):
    requests = [
        ([0, 1, 2, 3], PrivacyBudget(0.3, 1e-9), "a"),
        ([2, 3, 4, 5], PrivacyBudget(0.4, 1e-9), "b"),
        ([0, 5, 9], PrivacyBudget(0.25, 0.0), "c"),
        ([7], PrivacyBudget(0.999, 0.0), "drains-7"),
    ]
    staged = make_accountant(filter_name, 10)
    committed = make_accountant(filter_name, 10)
    staged.begin_staging()
    for keys, budget, label in requests:
        staged.stage_charge(keys, budget, label)
    committed.charge_many(list(requests))
    keys = list(range(10))
    for probe in (
        None,
        PrivacyBudget(0.05, 0.0),
        PrivacyBudget(0.2, 1e-9),
        PrivacyBudget(0.5, 0.0),
    ):
        assert staged.usable_blocks(probe) == committed.usable_blocks(probe)
        assert staged.usable_blocks_tail(probe, 4) == committed.usable_blocks_tail(
            probe, 4
        )
        if probe is not None:
            assert np.array_equal(
                staged.admits_keys(keys, probe), committed.admits_keys(keys, probe)
            )
    for delta in (0.0, 1e-9):
        assert staged.max_epsilon([2, 3], delta) == committed.max_epsilon([2, 3], delta)
        assert staged.max_epsilon(keys, delta) == committed.max_epsilon(keys, delta)
    # Nothing committed while the overlay was open.
    assert staged.charges == []
    assert not staged.store.charge_counts.any()
    staged.charge_many(staged.pop_staged())
    assert fingerprint(staged) == fingerprint(committed)


@pytest.mark.parametrize("filter_name", sorted(FILTERS))
def test_refused_stage_leaves_the_overlay_unchanged(filter_name):
    acc = make_accountant(filter_name, 6)
    acc.begin_staging()
    acc.stage_charge([0, 1, 2], PrivacyBudget(0.6, 0.0), "a")
    effective = acc._staged.effective_totals(len(acc.store)).copy()
    requests = acc.staged_requests
    probe = PrivacyBudget(0.3, 0.0)
    usable = acc.usable_blocks(probe)
    with pytest.raises(BudgetExceededError):
        acc.stage_charge([3, 2], PrivacyBudget(0.5, 0.0), "refused")
    assert np.array_equal(acc._staged.effective_totals(len(acc.store)), effective)
    assert acc.staged_requests == requests
    assert acc.usable_blocks(probe) == usable
    acc.stage_charge([3, 4], PrivacyBudget(0.5, 0.0), "b")
    popped = acc.pop_staged()
    assert [label for _, _, label in popped] == ["a", "b"]


# ----------------------------------------------------------------------
# Refused batches
# ----------------------------------------------------------------------
REFUSING_BATCHES = {
    # The refusing request first, in the middle, and last.
    "first": [
        ([8, 9, 10, 11, 0], PrivacyBudget(0.55, 0.0), "boom"),
        ([0, 1, 2], PrivacyBudget(0.2, 1e-9), "ok-1"),
        ([3, 4, 5, 6, 7], PrivacyBudget(0.3, 1e-9), "ok-2"),
    ],
    "middle": [
        ([0, 1, 2], PrivacyBudget(0.2, 1e-9), "ok-1"),
        ([8, 9, 10, 11, 0], PrivacyBudget(0.55, 0.0), "boom"),
        ([3, 4, 5, 6, 7], PrivacyBudget(0.3, 1e-9), "ok-2"),
    ],
    "last": [
        ([0, 1, 2], PrivacyBudget(0.2, 1e-9), "ok-1"),
        ([3, 4, 5, 6, 7], PrivacyBudget(0.3, 1e-9), "ok-2"),
        ([8, 9, 10, 11, 0], PrivacyBudget(0.45, 0.0), "boom"),
    ],
}


@pytest.mark.parametrize("position", sorted(REFUSING_BATCHES))
@pytest.mark.parametrize("filter_name", sorted(FILTERS))
def test_refused_batch_leaves_everything_untouched(filter_name, position):
    """A batch with one refusing request rolls back every row, ledger,
    history and the charge log, and ``can_charge_many`` agrees without
    mutating anything."""
    acc = make_accountant(filter_name, 12)
    acc.charge_many([(list(range(12)), PrivacyBudget(0.5, 1e-9), "warm")])
    before = fingerprint(acc)
    batch = REFUSING_BATCHES[position]
    with pytest.raises(BudgetExceededError):
        acc.charge_many(batch)
    assert fingerprint(acc) == before
    assert acc.can_charge_many(batch) is False
    assert fingerprint(acc) == before
    # The batch without its refusing request commits.
    ok = [request for request in batch if request[2] != "boom"]
    assert acc.can_charge_many(ok) is True
    acc.charge_many(ok)
    assert len(acc.charges) == 1 + len(ok)


@pytest.mark.parametrize("filter_name", sorted(FILTERS))
@pytest.mark.parametrize("retire_first", [False, True], ids=["exceeded", "retired"])
def test_refusal_error_matches_sequential(retire_first, filter_name):
    """``charge_many`` raises the error of the first (request, key) the
    sequential path refuses -- a retired block or an exceeded budget."""
    accs = [make_accountant(filter_name, 9) for _ in range(2)]
    for acc in accs:
        acc.charge([4], PrivacyBudget(0.9, 0.0))
        acc.charge([7], PrivacyBudget(1.0, 0.0))  # drains and retires block 7
    hot = [2, 7, 4, 3] if retire_first else [2, 4, 7, 3]
    batch = [
        ([0, 1], PrivacyBudget(0.3, 0.0), "a"),
        (hot, PrivacyBudget(0.3, 0.0), "b"),
    ]
    batched, sequential = accs
    with pytest.raises(REFUSALS) as batch_exc:
        batched.charge_many([list(r) for r in batch])
    _, refused = apply_sequentially(sequential, batch)
    assert refused == [
        (1, type(batch_exc.value).__name__, str(batch_exc.value))
    ]
    expected = BlockRetiredError if retire_first else BudgetExceededError
    assert type(batch_exc.value) is expected
    assert batch_exc.value.block_id == (7 if retire_first else 4)


# ----------------------------------------------------------------------
# The ledger store itself
# ----------------------------------------------------------------------
class TestLedgerStore:
    def test_rows_are_appended_in_order_and_start_zeroed(self):
        store = LedgerStore(capacity=2, width=6)
        rows = [store.append() for _ in range(5)]
        assert rows == list(range(5))
        assert len(store) == 5 and store.width == 6
        assert store.totals.shape == (5, 6)
        assert not store.totals.any() and not store.charge_counts.any()
        assert store.live.all()

    def test_width_never_drops_below_the_base_columns(self):
        assert LedgerStore(width=1).width == TOTALS_BASE

    def test_write_row_and_rows(self):
        store = LedgerStore(width=4)
        for _ in range(6):
            store.append()
        store.write_row(3, [1.0, 2.0, 3.0, 4.0], 5)
        assert store.totals[3].tolist() == [1.0, 2.0, 3.0, 4.0]
        assert store.charge_counts[3] == 5
        rows = np.array([0, 3, 4])
        store.write_rows(rows, np.full((3, 4), 7.0), np.array([1, 2, 3]))
        for row, count in zip(rows.tolist(), (1, 2, 3)):
            assert store.totals[row].tolist() == [7.0] * 4
            assert store.charge_counts[row] == count
        untouched = [1, 2, 5]
        assert not store.totals[untouched].any()
        assert not store.charge_counts[untouched].any()

    def test_growth_keeps_every_written_row(self):
        store = LedgerStore(capacity=2, width=4)
        for i in range(300):
            row = store.append()
            store.write_row(row, [float(i)] * 4, i)
        assert len(store) == 300
        assert store.totals[:, TOT_EPS].tolist() == [float(i) for i in range(300)]
        assert store.charge_counts.tolist() == list(range(300))

    def test_retire_clears_only_the_live_bits(self):
        store = LedgerStore(width=4)
        for _ in range(4):
            store.append()
        store.write_row(1, [0.5, 0.0, 0.0, 0.0], 1)
        store.retire(np.array([1, 2]))
        assert store.live.tolist() == [True, False, False, True]
        assert store.totals[1].tolist() == [0.5, 0.0, 0.0, 0.0]
        assert store.charge_counts[1] == 1
        store.retire([1])  # idempotent
        assert store.live.tolist() == [True, False, False, True]

    def test_truncate_drops_rows_and_appends_zeroed_ones(self):
        store = LedgerStore(capacity=8, width=4)
        for i in range(5):
            store.append()
            store.write_row(i, [1.0] * 4, 1)
        store.truncate_to(3)
        assert len(store) == 3
        assert store.totals.tolist() == [[1.0] * 4] * 3
        store.truncate_to(3)  # no-op
        row = store.append()
        assert row == 3
        assert not store.totals[3].any() and store.charge_counts[3] == 0

    @pytest.mark.parametrize("size", [-1, 4])
    def test_truncate_rejects_sizes_outside_the_store(self, size):
        store = LedgerStore(width=4)
        for _ in range(3):
            store.append()
        with pytest.raises(RecoveryError):
            store.truncate_to(size)
        assert len(store) == 3


# ----------------------------------------------------------------------
# Aggregate reads over the store
# ----------------------------------------------------------------------
def charged(filter_name, seed=7):
    acc = make_accountant(filter_name)
    rng = np.random.default_rng(seed)
    admissible, _ = apply_sequentially(
        make_accountant(filter_name), random_requests(rng, 16, 9)
    )
    acc.charge_many(admissible)
    return acc


@pytest.mark.parametrize("strong", [False, True], ids=["basic", "strong"])
def test_loss_dashboard_lists_every_block_in_registration_order(strong):
    acc = BlockAccountant(
        EPS_G, DELTA_G, filter_factory=StrongCompositionFilter if strong else None
    )
    keys = [("b", i) for i in (5, 2, 9, 0, 7)]
    acc.register_blocks(keys)
    acc.charge(keys[1:4], PrivacyBudget(0.2, 1e-9))
    acc.charge(keys[2:], PrivacyBudget(0.1, 0.0))
    dashboard = loss_dashboard(acc, strong=strong)
    assert list(dashboard) == keys
    for key in keys:
        ledger = acc.ledger(key)
        if strong:
            expected = StrongOdometer().load_totals(*ledger.totals[:TOTALS_BASE]).loss
        else:
            expected = PrivacyBudget(
                sum(b.epsilon for b in ledger.history),
                min(1.0, sum(b.delta for b in ledger.history)),
            )
            assert dashboard[key].epsilon == pytest.approx(expected.epsilon)
            assert dashboard[key].delta == pytest.approx(expected.delta)
            continue
        assert dashboard[key] == expected


@pytest.mark.parametrize("filter_name", sorted(FILTERS))
def test_stream_loss_bound_dominates_every_block(filter_name):
    acc = charged(filter_name)
    bound = acc.stream_loss_bound()
    for key in acc.block_keys:
        loss = acc.ledger(key).loss_bound()
        assert loss.epsilon <= bound.epsilon + 1e-12
        assert loss.delta <= bound.delta + 1e-18
    assert bound.epsilon <= EPS_G + 1e-12
    # A deterministic read: the same charges give the same bound.
    assert charged(filter_name).stream_loss_bound() == bound


def test_retired_blocks_in_registration_order():
    acc = make_accountant("basic", 8)
    for key in (6, 1, 4):
        acc.charge([key], PrivacyBudget(1.0, 0.0))
    assert acc.retired_blocks() == [1, 4, 6]
    assert acc.store.live.tolist() == [
        k not in (1, 4, 6) for k in range(8)
    ]
    assert acc.usable_blocks() == [0, 2, 3, 5, 7]
