"""The drain pays for the batch, not for the outbox's history.

Wall clocks are for the spine; here the work is counted in SQLite
virtual-machine steps, through a progress handler that only this test
installs on the store's connection, and the plan is read back with
``EXPLAIN QUERY PLAN``.
"""

import pytest

from repro.durable import (
    DurableStore,
    OutboxDispatcher,
    RecordingSink,
    SqlUnitOfWork,
)
from repro.durable import store as store_module
from repro.persistence.sqlbridge import SQLEngine

HISTORY = 2000
YOUNG = 200
OUTBOX_INDEXES = ("outbox_seq", "outbox_dispatched")


class UnindexedStore(DurableStore):
    """The same store with the outbox indexes dropped."""

    def _create_tables(self):
        super()._create_tables()
        for name in OUTBOX_INDEXES:
            self.engine.execute(f"DROP INDEX {name}")


class CountingEngine(SQLEngine):
    """An engine whose connection counts every VM step it takes."""

    def __init__(self):
        super().__init__()
        self.steps = 0
        self._conn.set_progress_handler(self._step, 1)

    def _step(self):
        self.steps += 1
        return 0


@pytest.fixture
def counting(monkeypatch):
    """Stores built inside the test run on counting engines."""
    monkeypatch.setattr(store_module, "SQLEngine", CountingEngine)


def emit_n(store, n, start=0):
    for i in range(start, start + n):
        uow = SqlUnitOfWork(store)
        uow.update(1, hits=i)
        uow.emit("hit", entity=1, key=f"h{i}", n=i)
        uow.commit()


def with_history(store_cls, rows):
    store = store_cls()
    sink = RecordingSink()
    dispatcher = OutboxDispatcher(store, sink, batch=64)
    emit_n(store, rows)
    assert dispatcher.drain_all() == rows
    return store, dispatcher, sink


def steps(store, fn):
    """``fn()``'s result and the VM steps it cost the store's engine."""
    before = store.engine.steps
    result = fn()
    return result, store.engine.steps - before


def statements(store, fn):
    """The ``(sql, params)`` pairs ``fn()`` sends to the store's engine."""
    seen = []
    real = store.engine.execute

    def record(sql, params=()):
        seen.append((sql, tuple(params)))
        return real(sql, params)

    store.engine.execute = record
    try:
        fn()
    finally:
        del store.engine.execute
    return seen


def plan(store, sql, params=()):
    rows = store.engine.execute("EXPLAIN QUERY PLAN " + sql, params)
    return " | ".join(r["detail"] for r in rows)


@pytest.fixture(scope="module")
def stores():
    """One store after ``YOUNG`` and one after ``HISTORY`` drained events."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(store_module, "SQLEngine", CountingEngine)
        return with_history(DurableStore, YOUNG), with_history(
            DurableStore, HISTORY
        )


class TestDrainCost:
    def test_one_more_drain_examines_order_k_rows(self, stores):
        k = 10
        costs = []
        for store, dispatcher, _ in stores:
            emit_n(store, k, start=HISTORY)
            sent, cost = steps(store, dispatcher.drain)
            assert sent == k
            costs.append(cost)
        # The same VM steps after 200 and after 2,000 rows of history.
        young, aged = costs
        assert young == aged

    def test_pending_gauge_examines_only_pending_rows(self, stores):
        costs = []
        for store, dispatcher, _ in stores:
            emit_n(store, 3, start=HISTORY + 100)
            lag, cost = steps(store, dispatcher.lag)
            assert lag == 3
            costs.append(cost)
            assert dispatcher.drain_all() == 3
            assert dispatcher.lag() == 0
        assert costs[0] == costs[1]

    def test_idle_drain_examines_nothing(self, stores):
        costs = []
        for store, dispatcher, _ in stores:
            sent, cost = steps(store, dispatcher.drain)
            assert sent == 0
            costs.append(cost)
        assert costs[0] == costs[1]

    def test_stats_expose_the_counter(self, stores):
        for store, dispatcher, _ in stores:
            emit_n(store, 2, start=HISTORY + 200)
            assert store.stats()["outbox_pending"] == dispatcher.lag() == 2
            dispatcher.drain_all()
            assert store.stats()["outbox_pending"] == 0

    def test_recovery_replays_dispatch_marks_through_the_index(
        self, counting
    ):
        def recovery_steps(n):
            store = DurableStore()
            emit_n(store, n)
            OutboxDispatcher(store, RecordingSink(), batch=8).drain_all()
            store.wal.flush()
            store.crash()
            report = store.recover()
            assert report["dispatch_marks"] == n // 8
            assert store.outbox_pending() == 0
            return store.engine.steps

        # Each commit's entity and dedup probes and each mark are index
        # lookups: O(records), where a scan was O(records^2).
        assert recovery_steps(2 * YOUNG) < 2.2 * recovery_steps(YOUNG)

    def test_standby_ingest_takes_the_indexed_path_too(self, counting):
        def ingest_steps(n):
            primary = DurableStore(name="p")
            standby = DurableStore(name="s")
            emit_n(primary, n)
            OutboxDispatcher(primary, RecordingSink(), batch=8).drain_all()
            primary.wal.flush()
            before = standby.engine.steps
            standby.ingest(primary.ship_since(0))
            assert standby.outbox_pending() == 0
            return standby.engine.steps - before

        assert ingest_steps(2 * YOUNG) < 2.2 * ingest_steps(YOUNG)


class TestOutboxPlan:
    def test_drain_and_gauge_search_the_outbox_indexes(self):
        store = DurableStore()
        dispatcher = OutboxDispatcher(store, RecordingSink(), batch=4)
        emit_n(store, 6)
        issued = statements(store, dispatcher.drain)
        issued += statements(store, dispatcher.lag)
        assert len(issued) == 1 + 4 + 1  # select, one mark per row, count
        plans = [plan(store, sql, params) for sql, params in issued]
        assert plans[0] == (
            "SEARCH outbox USING INDEX outbox_dispatched (dispatched=?)"
        )
        assert set(plans[1:5]) == {
            "SEARCH outbox USING INDEX outbox_seq (seq=?)"
        }
        assert plans[5] == (
            "SEARCH outbox USING COVERING INDEX outbox_dispatched "
            "(dispatched=?)"
        )


class TestIndexIsOnlyAPlan:
    def test_unindexed_store_scans_but_agrees(self):
        indexed, _, indexed_sink = with_history(DurableStore, YOUNG)
        scanned, scanning, scanned_sink = with_history(UnindexedStore, YOUNG)
        assert [e.dedup for e in scanned_sink.events] == [
            e.dedup for e in indexed_sink.events
        ]
        emit_n(indexed, 5, start=YOUNG)
        emit_n(scanned, 5, start=YOUNG)
        assert scanned.undispatched(3) == indexed.undispatched(3)
        assert scanned.undispatched() == indexed.undispatched()
        assert plan(
            scanned, "SELECT seq FROM outbox WHERE dispatched = 0"
        ) == "SCAN outbox"
        everything = "SELECT * FROM outbox ORDER BY seq"
        assert scanning.drain_all() == 5
        assert scanned.engine.execute(everything) != indexed.engine.execute(
            everything
        )
        OutboxDispatcher(indexed, RecordingSink()).drain_all()
        assert scanned.engine.execute(everything) == indexed.engine.execute(
            everything
        )

    def test_the_scan_pays_for_history(self, counting):
        def drain_steps(history):
            store, dispatcher, _ = with_history(UnindexedStore, history)
            emit_n(store, 10, start=history)
            return steps(store, dispatcher.drain)[1]

        # The indexed drain's cost is flat (above); this one's is not.
        assert drain_steps(2 * YOUNG) > 1.8 * drain_steps(YOUNG)
