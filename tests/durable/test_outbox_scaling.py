"""The drain pays for the batch, not for the outbox's history.

Wall clocks are for the spine; here the work is counted:
``MiniSQL.rows_examined`` is the number of rows WHERE predicates were
evaluated on, which is what the outbox indexes exist to bound.
"""

import pytest

from repro.durable import (
    DurableStore,
    OutboxDispatcher,
    RecordingSink,
    SqlUnitOfWork,
)

HISTORY = 2000


class UnindexedStore(DurableStore):
    """The same store with the ``CREATE INDEX`` DDL dropped."""

    def _create_tables(self):
        real = self.engine.execute

        def skip_index(sql, params=()):
            return [] if sql.startswith("CREATE INDEX") else real(sql, params)

        self.engine.execute = skip_index
        super()._create_tables()
        del self.engine.execute


def emit_n(store, n, start=0):
    for i in range(start, start + n):
        uow = SqlUnitOfWork(store)
        uow.update(1, hits=i)
        uow.emit("hit", entity=1, key=f"h{i}", n=i)
        uow.commit()


def with_history(store_cls):
    store = store_cls()
    sink = RecordingSink()
    dispatcher = OutboxDispatcher(store, sink, batch=64)
    emit_n(store, HISTORY)
    assert dispatcher.drain_all() == HISTORY
    return store, dispatcher, sink


def examined(store, fn):
    before = store.engine.rows_examined
    result = fn()
    return result, store.engine.rows_examined - before


@pytest.fixture(scope="module")
def aged():
    return with_history(DurableStore)


class TestDrainCost:
    def test_one_more_drain_examines_order_k_rows(self, aged):
        store, dispatcher, _ = aged
        k = 10
        emit_n(store, k, start=HISTORY)
        sent, rows = examined(store, dispatcher.drain)
        assert sent == k
        # k undispatched candidates for the SELECT, one per UPDATE.
        assert rows == 2 * k

    def test_pending_gauge_examines_only_pending_rows(self, aged):
        store, dispatcher, _ = aged
        emit_n(store, 3, start=HISTORY + 100)
        lag, rows = examined(store, dispatcher.lag)
        assert (lag, rows) == (3, 3)
        assert dispatcher.drain_all() == 3
        assert examined(store, dispatcher.lag) == (0, 0)

    def test_idle_drain_examines_nothing(self, aged):
        store, dispatcher, _ = aged
        assert examined(store, dispatcher.drain) == (0, 0)

    def test_stats_expose_the_counter(self, aged):
        store, _, _ = aged
        assert store.stats()["rows_examined"] == store.engine.rows_examined

    def test_recovery_replays_dispatch_marks_through_the_index(self):
        store = DurableStore()
        emit_n(store, 200)
        OutboxDispatcher(store, RecordingSink(), batch=8).drain_all()
        store.wal.flush()
        store.crash()
        report = store.recover()
        assert report["dispatch_marks"] == 25
        assert store.outbox_pending() == 0
        # 200 commits x (entity probe, dedup probe) + 200 marks, each an
        # index lookup: O(records), where the scan was O(records^2).
        assert store.engine.rows_examined < 4 * 200

    def test_standby_ingest_takes_the_indexed_path_too(self):
        primary = DurableStore(name="p")
        standby = DurableStore(name="s")
        emit_n(primary, 200)
        OutboxDispatcher(primary, RecordingSink(), batch=8).drain_all()
        primary.wal.flush()
        standby.ingest(primary.ship_since(0))
        assert standby.outbox_pending() == 0
        assert standby.engine.rows_examined < 4 * 200


class TestIndexIsOnlyAPlan:
    def test_unindexed_store_scans_but_agrees(self):
        indexed, _, indexed_sink = with_history(DurableStore)
        scanned, scanning, scanned_sink = with_history(UnindexedStore)
        assert [e.dedup for e in scanned_sink.events] == [
            e.dedup for e in indexed_sink.events
        ]
        emit_n(indexed, 5, start=HISTORY)
        emit_n(scanned, 5, start=HISTORY)
        assert scanned.undispatched(3) == indexed.undispatched(3)
        assert scanned.undispatched() == indexed.undispatched()
        _, rows = examined(scanned, scanning.drain)
        # SELECT scans the table, then each of 5 UPDATEs scans it again.
        assert rows == 6 * (HISTORY + 5)
        assert scanned.engine.execute(
            "SELECT * FROM outbox"
        ) != indexed.engine.execute("SELECT * FROM outbox")
        OutboxDispatcher(indexed, RecordingSink()).drain_all()
        assert scanned.engine.execute(
            "SELECT * FROM outbox"
        ) == indexed.engine.execute("SELECT * FROM outbox")
