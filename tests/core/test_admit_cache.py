"""Exactness of the staged overlay's live-admit scan cache.

While a staged batch is open, ``BlockAccountant._live_admit_rows`` serves
whole-stream scans from a per-floor cache that ``stage_charge`` patches
in place.  The property here: after *every* operation of a random
interleaving -- scans at several floors, staged charges (including ones
that exhaust or retire blocks, and refused ones), mid-overlay
registrations and rollbacks, and every way an overlay closes -- each
cached floor's mask and row array equal an uncached recompute, bit for
bit.  Covered for basic, strong and Renyi filters, on a single and a
sharded accountant.  A mutant whose patch skips the touched rows must
fail the same check.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.accountant import BlockAccountant
from repro.core.filters import RenyiCompositionFilter, StrongCompositionFilter
from repro.core.sharding import HashPartitioner, ShardedBlockAccountant
from repro.dp.budget import PrivacyBudget
from repro.errors import BlockRetiredError, BudgetExceededError

EPS_G, DELTA_G = 1.0, 1e-6
N_INITIAL = 6

FILTERS = {
    "basic": None,
    "strong": StrongCompositionFilter,
    "renyi": RenyiCompositionFilter,
}

# Floors: the retirement budget (index 0, filled in per accountant) plus
# a few window-selection floors, one with a delta component.
FLOORS = [
    None,
    PrivacyBudget(0.05, 0.0),
    PrivacyBudget(0.2, 0.0),
    PrivacyBudget(0.45, 1e-7),
]
# Charges from small to block-exhausting (1.0 is the whole epsilon_global;
# 0.999 leaves less than the default retirement budget).
CHARGES = [
    PrivacyBudget(0.05, 0.0),
    PrivacyBudget(0.3, 0.0),
    PrivacyBudget(0.6, 1e-7),
    PrivacyBudget(0.999, 0.0),
    PrivacyBudget(1.0, 0.0),
]


def make_accountant(filter_name, sharded):
    factory = FILTERS[filter_name]
    if sharded:
        acc = ShardedBlockAccountant(
            EPS_G, DELTA_G, filter_factory=factory, partitioner=HashPartitioner(3)
        )
    else:
        acc = BlockAccountant(EPS_G, DELTA_G, filter_factory=factory)
    acc.register_blocks(range(N_INITIAL))
    return acc


def floor_of(acc, index):
    return FLOORS[index] or acc.retirement_budget


def assert_cache_exact(acc):
    """Every cached floor's mask and row array equal an uncached
    recompute over the current effective totals."""
    staged = acc._staged
    if staged is None:
        return
    for floor, entry in staged.admit_cache.items():
        fresh = acc._scan_live_admit_rows(floor)
        expected = np.zeros(len(acc.store), dtype=bool)
        expected[fresh] = True
        assert np.array_equal(entry.mask, expected), f"mask drifted at {floor}"
        assert np.array_equal(entry.rows, fresh), f"rows drifted at {floor}"


OPS = st.one_of(
    st.tuples(st.just("scan"), st.integers(0, len(FLOORS) - 1)),
    st.tuples(
        st.just("stage"),
        st.integers(0, 63),
        st.integers(1, 4),
        st.integers(0, len(CHARGES) - 1),
    ),
    st.tuples(st.just("register")),
    st.tuples(st.just("rollback")),
    st.tuples(st.just("open")),
    st.tuples(st.just("close"), st.sampled_from(["pop", "abort", "trusted"])),
)


def drive(acc, ops):
    """Apply ``ops`` (see ``OPS``), checking cache exactness after each.

    Without an open overlay, ``scan`` and ``stage`` run the unstaged
    path (rescans that persist retirement, committed ``charge_many``), so
    later overlays open over retired blocks too.
    """
    next_key = N_INITIAL
    acc.begin_staging()
    opened_at = len(acc.block_keys)  # registrations when the overlay opened
    for op in ops:
        kind = op[0]
        if kind == "scan":
            floor = floor_of(acc, op[1])
            rows = acc._live_admit_rows(floor)
            if acc.staging_active:
                assert np.array_equal(rows, acc._scan_live_admit_rows(floor))
            assert acc.usable_blocks(floor) == [acc.block_keys[i] for i in rows]
        elif kind == "stage":
            _, start, length, charge = op
            keys = acc.block_keys
            length = min(length, len(keys))
            window = [keys[(start + i) % len(keys)] for i in range(length)]
            try:
                if acc.staging_active:
                    acc.stage_charge(window, CHARGES[charge])
                else:
                    acc.charge_many([(window, CHARGES[charge])])
            except (BudgetExceededError, BlockRetiredError):
                pass
        elif kind == "register":
            acc.register_block(next_key)
            next_key += 1
        elif kind == "rollback":
            # Roll back this overlay's registrations, as the durable hour
            # does before aborting -- only when no staged charge names them.
            if acc.staging_active and len(acc.block_keys) > opened_at:
                staged_rows = acc._staged.request_rows
                if all(int(r.max()) < opened_at for r in staged_rows):
                    acc.rollback_registrations(opened_at)
        elif kind == "open":
            if not acc.staging_active:
                acc.begin_staging()
                opened_at = len(acc.block_keys)
        elif kind == "close":
            if acc.staging_active:
                if op[1] == "trusted":
                    acc.commit_staged_trusted()
                else:
                    requests = acc.pop_staged()
                    if op[1] == "pop" and requests:
                        acc.charge_many(requests)
        assert_cache_exact(acc)
    if acc.staging_active:
        acc.pop_staged()


@pytest.mark.parametrize("sharded", [False, True], ids=["single", "sharded"])
@pytest.mark.parametrize("filter_name", sorted(FILTERS))
@settings(max_examples=40, deadline=None)
@given(ops=st.lists(OPS, min_size=1, max_size=40))
def test_cached_scans_equal_uncached_recompute(filter_name, sharded, ops):
    drive(make_accountant(filter_name, sharded), ops)


@pytest.mark.parametrize("sharded", [False, True], ids=["single", "sharded"])
@pytest.mark.parametrize("filter_name", sorted(FILTERS))
def test_committed_state_matches_uncached_drive(filter_name, sharded):
    """Closing overlays through the cache leaves the same committed state
    as the same charges applied with no scan ever cached."""
    rng = np.random.default_rng(11)
    ops = [("scan", i % len(FLOORS)) for i in range(4)]
    for _ in range(60):
        ops.append(("stage", int(rng.integers(64)), int(rng.integers(1, 5)),
                    int(rng.integers(len(CHARGES)))))
        ops.append(("scan", int(rng.integers(len(FLOORS)))))
        if rng.random() < 0.15:
            ops.append(("close", "trusted"))
            ops.append(("open",))
    cached = make_accountant(filter_name, sharded)
    drive(cached, ops)
    plain = make_accountant(filter_name, sharded)
    drive(plain, [op for op in ops if op[0] != "scan"])
    assert cached.store.totals.tobytes() == plain.store.totals.tobytes()
    assert cached.store.charge_counts.tobytes() == plain.store.charge_counts.tobytes()
    assert cached.usable_blocks() == plain.usable_blocks()


def _skip_patch(self, rows):
    """Mutant: the stage-time patch never re-evaluates the touched rows."""


def _patch_first_row_only(self, rows, _real=BlockAccountant._patch_admit_cache):
    """Mutant: the patch re-evaluates only the first touched row."""
    _real(self, rows[:1])


@pytest.mark.parametrize("mutant", [_skip_patch, _patch_first_row_only])
@pytest.mark.parametrize("filter_name", sorted(FILTERS))
def test_mutant_patch_is_caught(monkeypatch, filter_name, mutant):
    """A patch that skips touched rows leaves a cached mask stale, and the
    exactness check must say so."""
    monkeypatch.setattr(BlockAccountant, "_patch_admit_cache", mutant)
    ops = [
        ("scan", 0),
        ("scan", 2),
        # Exhaust blocks 0 and 1 in one charge: both drop out of every
        # floor, so skipping either row leaves a stale bit.
        ("stage", 0, 2, CHARGES.index(PrivacyBudget(1.0, 0.0))),
    ]
    with pytest.raises(AssertionError, match="drifted"):
        drive(make_accountant(filter_name, sharded=False), ops)
