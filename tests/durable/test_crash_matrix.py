"""The crash-point matrix: kill the worker at every commit stage.

``SqlUnitOfWork.commit`` has three durability-relevant boundaries,
armed as failpoints on the store:

* ``pre-wal``   — after CAS validation, before the commit record is
  durable: the commit never happened.
* ``post-wal``  — the record is durable but not applied to the SQL
  projection: recovery must apply it exactly once.
* ``post-apply`` — applied but the outbox not yet dispatched: recovery
  must keep the effect single and the event must still go out once.

In every cell the invariant is the same: after crash + recovery (+ a
retry where the commit was never acknowledged), the observable effects
— entity state, conservation total, events observed through a deduping
sink — are those of *exactly one* application.
"""

import pytest

from repro.durable import (
    DurableStore,
    InjectedCrash,
    OutboxDispatcher,
    RecordingSink,
    SqlUnitOfWork,
    run_unit,
)
from repro.workloads import LedgerConfig, LedgerWorkload


def transfer_op(n):
    """A zero-sum transfer 1 -> 2 with an idempotent event key."""

    def op(uow):
        a = uow.get(1)
        b = uow.get(2)
        uow.put(1, {"gold": a["gold"] - 5})
        uow.put(2, {"gold": b["gold"] + 5})
        uow.emit("transfer", entity=1, key=f"t{n}", amount=5)

    return op


@pytest.fixture
def store():
    s = DurableStore()
    seed = SqlUnitOfWork(s)
    seed.put(1, {"gold": 100})
    seed.put(2, {"gold": 100})
    seed.commit()
    return s


def observe_all(store):
    """Drain the outbox through a fresh deduping sink."""
    sink = RecordingSink()
    OutboxDispatcher(store, sink).drain_all()
    return sink


def total(store):
    return sum(store.read_entity(e)[0]["gold"] for e in (1, 2))


@pytest.mark.parametrize("point", ["pre-wal", "post-wal", "post-apply"])
class TestCrashMatrix:
    def test_replay_converges_to_exactly_once(self, store, point):
        store.arm_failpoint(point)
        with pytest.raises(InjectedCrash):
            run_unit(store, transfer_op(1))
        store.crash()
        store.recover()
        if point == "pre-wal":
            # Nothing durable: the unacknowledged unit retries afresh.
            assert store.read_entity(1)[0] == {"gold": 100}
            run_unit(store, transfer_op(1))
        assert store.read_entity(1)[0] == {"gold": 95}
        assert store.read_entity(2)[0] == {"gold": 105}
        assert total(store) == 200
        sink = observe_all(store)
        assert sink.observed("1:transfer:t1") == 1

    def test_blind_retry_after_recovery_stays_single(self, store, point):
        """Even a client that always retries cannot double-apply.

        The retried unit re-reads recovered state, so a transfer that
        *did* survive simply applies on top — but its event key dedups,
        and a same-key replay of the identical logical op is visible as
        such.  The conservation total can never drift.
        """
        store.arm_failpoint(point)
        with pytest.raises(InjectedCrash):
            run_unit(store, transfer_op(1))
        store.crash()
        store.recover()
        survived = store.read_entity(1)[0]["gold"] == 95
        if not survived:
            run_unit(store, transfer_op(1))
        assert total(store) == 200
        assert observe_all(store).observed("1:transfer:t1") == 1

    def test_double_crash_same_point_still_converges(self, store, point):
        sink = RecordingSink()
        dispatcher = OutboxDispatcher(store, sink)
        store.arm_failpoint(point)
        with pytest.raises(InjectedCrash):
            run_unit(store, transfer_op(1))
        store.crash()
        store.recover()
        store.arm_failpoint(point)
        with pytest.raises(InjectedCrash):
            run_unit(store, transfer_op(2))
        store.crash()
        store.recover()
        # Re-apply whatever never became durable; both must end applied
        # exactly once (the sink accumulates across drains).
        for n in (1, 2):
            dispatcher.drain_all()
            if sink.observed(f"1:transfer:t{n}") == 0:
                run_unit(store, transfer_op(n))
        dispatcher.drain_all()
        assert total(store) == 200
        assert store.read_entity(1)[0] == {"gold": 90}
        assert sink.observed("1:transfer:t1") == 1
        assert sink.observed("1:transfer:t2") == 1


class TestCrashMatrixUnderLoad:
    @pytest.mark.parametrize("point", ["pre-wal", "post-wal", "post-apply"])
    def test_ledger_conservation_across_crash(self, point):
        store = DurableStore()
        workload = LedgerWorkload(
            store, LedgerConfig(accounts=8, theta=1.0, seed=3)
        )
        workload.setup()
        workload.run(20)
        store.arm_failpoint(point)
        with pytest.raises(InjectedCrash):
            workload.run(1)
        store.crash()
        store.recover()
        assert workload.total_gold() == 8 * 100
        workload.run(20)
        assert workload.total_gold() == 8 * 100


class TestFailpointMechanics:
    def test_failpoint_fires_once(self, store):
        store.arm_failpoint("post-wal")
        with pytest.raises(InjectedCrash):
            run_unit(store, transfer_op(1))
        run_unit(store, transfer_op(2))  # disarmed after firing

    def test_crashed_store_refuses_service(self, store):
        from repro.errors import DurableError

        store.crash()
        with pytest.raises(DurableError):
            store.read_entity(1)

    def test_corrupt_wal_surfaces_typed_error_from_recover(self, store):
        from repro.errors import WalCorruptionError

        run_unit(store, transfer_op(1))
        store.wal.corrupt_at(1)
        store.crash()
        with pytest.raises(WalCorruptionError) as exc:
            store.recover()
        assert exc.value.offset == 1
        assert exc.value.last_good_lsn == 1

    def test_failed_recover_leaves_the_store_refusing_service(self, store):
        from repro.errors import DurableError, WalCorruptionError

        for n in range(4):
            run_unit(store, transfer_op(n))
        store.crash()
        damaged = store.wal._durable[3]
        store.wal.corrupt_at(3)
        with pytest.raises(WalCorruptionError):
            store.recover()
        # A truncated prefix replayed before the bad record; serving
        # from it would be serving a history the log cannot vouch for.
        assert store.crashed
        with pytest.raises(DurableError):
            store.read_entity(1)
        with pytest.raises(DurableError):
            run_unit(store, transfer_op(9))
        # Repair the log: the next recover serves the full history.
        store.wal._durable[3] = damaged
        store.recover()
        assert store.read_entity(1)[0] == {"gold": 80}
        assert total(store) == 200

    def test_failed_recover_of_a_live_store_stops_serving(self, store):
        from repro.errors import DurableError, WalCorruptionError

        run_unit(store, transfer_op(1))
        store.wal.corrupt_at(1)
        with pytest.raises(WalCorruptionError):
            store.recover()
        with pytest.raises(DurableError):
            store.read_entity(1)
