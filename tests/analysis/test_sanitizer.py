"""Runtime write-barrier sanitizer: freeze semantics, install wiring, and
the end-to-end tripwire on a deliberately mutated pure path."""

import numpy as np
import pytest

from repro.analysis import sanitizer
from repro.core.access_control import SageAccessControl
from repro.core.accountant import TOT_EPS, LedgerStore
from repro.core.adaptive import AdaptiveConfig, AdaptiveSession
from repro.dp.budget import PrivacyBudget
from repro.data.database import GrowingDatabase, StreamIngestor
from repro.data.stream import TimePartitioner
from repro.data.taxi import TaxiGenerator


@pytest.fixture
def installed_sanitizer():
    sanitizer.install()
    try:
        yield
    finally:
        sanitizer.uninstall()
        # A suite-wide REPRO_SANITIZER=1 run must stay sanitized after
        # this test's teardown.
        sanitizer.install_from_env()


def build_world(hours=3, epsilon_global=1.0):
    db = GrowingDatabase()
    ingestor = StreamIngestor(
        TaxiGenerator(points_per_hour=200),
        db,
        TimePartitioner(1.0),
        rng=np.random.default_rng(0),
    )
    access = SageAccessControl(epsilon_global, 1e-6)
    for block in ingestor.advance(hours):
        access.register_block(block.key)
    return db, access


class NeverPipeline:
    name = "never"

    def run(self, batch, budget, rng, correct_for_dp=True):  # pragma: no cover
        raise AssertionError("peek must not run the pipeline")


class TestWriteBarrier:
    def test_freezes_slabs_and_restores(self):
        store = LedgerStore(capacity=4)
        row = store.append()
        with sanitizer.write_barrier(store):
            with pytest.raises(ValueError):
                store.write_row(row, np.zeros(store.width), 1)
        store.write_row(row, np.zeros(store.width), 1)  # thawed again

    def test_live_mask_stays_writable(self):
        # Deferred retirement marks blocks from read paths: sanctioned.
        store = LedgerStore(capacity=4)
        row = store.append()
        with sanitizer.write_barrier(store):
            store.retire([row])
        assert not store.live[row]

    def test_nested_barriers_compose(self):
        store = LedgerStore(capacity=4)
        row = store.append()
        with sanitizer.write_barrier(store):
            with sanitizer.write_barrier(store):
                pass
            # The inner exit must not thaw the outer window.
            with pytest.raises(ValueError):
                store.write_row(row, np.zeros(store.width), 1)
        store.write_row(row, np.zeros(store.width), 1)

    def test_store_freezes_totals_and_counts(self):
        store = LedgerStore(capacity=4)
        arrays = sanitizer.frozen_arrays(store)
        assert len(arrays) == 2
        with sanitizer.write_barrier(store):
            assert all(not a.flags.writeable for a in arrays)
        assert all(a.flags.writeable for a in arrays)


class TestInstall:
    def test_install_and_uninstall_are_idempotent(self):
        sanitizer.uninstall()  # normalize: the suite may run env-installed
        original = AdaptiveSession.__dict__["propose_peek"]
        sanitizer.install()
        wrapped = AdaptiveSession.__dict__["propose_peek"]
        assert wrapped is not original
        sanitizer.install()  # no double wrap
        assert AdaptiveSession.__dict__["propose_peek"] is wrapped
        sanitizer.uninstall()
        assert AdaptiveSession.__dict__["propose_peek"] is original
        sanitizer.install_from_env()

    def test_env_flag_controls_install(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZER", raising=False)
        assert sanitizer.install_from_env() is False
        monkeypatch.setenv("REPRO_SANITIZER", "1")
        try:
            assert sanitizer.install_from_env() is True
            assert sanitizer.installed()
        finally:
            sanitizer.uninstall()
            monkeypatch.delenv("REPRO_SANITIZER")
            sanitizer.install_from_env()


class TestEndToEnd:
    def test_pure_reads_pass_under_barrier(self, installed_sanitizer):
        db, access = build_world()
        session = AdaptiveSession(
            NeverPipeline(), access, db, AdaptiveConfig(), np.random.default_rng(0)
        )
        proposal, reason = session.propose_peek()
        acct = access.accountant
        keys = db.keys
        assert acct.can_charge(keys[:1], PrivacyBudget(0.1, 0.0)) in (True, False)

    def test_mutated_propose_peek_trips_the_barrier(
        self, installed_sanitizer, monkeypatch
    ):
        """The acceptance canary: a write smuggled into the pure peek path
        must fault as a read-only assignment, at the write."""
        db, access = build_world()
        session = AdaptiveSession(
            NeverPipeline(), access, db, AdaptiveConfig(), np.random.default_rng(0)
        )
        original = AdaptiveSession.__dict__["_select_attempt"]
        if original in sanitizer._installed.values():  # pragma: no cover
            raise AssertionError("_select_attempt must not itself be wrapped")

        def leaky(self):
            acct = self.access.accountant
            acct.store.totals[0, TOT_EPS] += 1.0  # the smuggled ledger write
            return original(self)

        monkeypatch.setattr(AdaptiveSession, "_select_attempt", leaky)
        with pytest.raises(ValueError, match="read-only"):
            session.propose_peek()
