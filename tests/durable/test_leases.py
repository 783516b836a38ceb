"""Lease semantics: ownership, expiry, reclaim, fencing, durability."""

import pytest

from repro.durable import DurableStore, LeaseTable, SqlUnitOfWork
from repro.errors import LeaseFencedError, LeaseHeldError


@pytest.fixture
def store():
    return DurableStore()


@pytest.fixture
def table(store):
    return LeaseTable(store)


class TestOwnership:
    def test_acquire_then_held_by_other(self, table):
        table.acquire("tick:0", "w1", ttl=4, now=0)
        with pytest.raises(LeaseHeldError) as exc:
            table.acquire("tick:0", "w2", ttl=4, now=2)
        assert exc.value.owner == "w1"
        assert exc.value.expires == 4

    def test_same_owner_reacquire_renews(self, table):
        first = table.acquire("tick:0", "w1", ttl=4, now=0)
        second = table.acquire("tick:0", "w1", ttl=4, now=2)
        assert second.token == first.token  # same grant, longer life
        assert second.expires == 6

    def test_release_frees_the_key(self, table):
        lease = table.acquire("tick:0", "w1", ttl=4, now=0)
        table.release(lease)
        fresh = table.acquire("tick:0", "w2", ttl=4, now=1)
        assert fresh.owner == "w2"

    def test_release_after_reclaim_is_noop(self, table):
        old = table.acquire("tick:0", "w1", ttl=2, now=0)
        new = table.acquire("tick:0", "w2", ttl=4, now=5)
        table.release(old)  # stale handle must not evict the new owner
        holder = table.holder("tick:0")
        assert holder is not None and holder.token == new.token


class TestReclaimAndFencing:
    def test_expired_lease_reclaimed_with_larger_token(self, table):
        old = table.acquire("tick:0", "w1", ttl=4, now=0)
        new = table.acquire("tick:0", "w2", ttl=4, now=5)
        assert new.token > old.token
        assert table.reclaims == 1

    def test_fenced_worker_cannot_validate(self, table):
        old = table.acquire("tick:0", "w1", ttl=4, now=0)
        table.acquire("tick:0", "w2", ttl=4, now=5)
        with pytest.raises(LeaseFencedError) as exc:
            table.validate(old, now=5)
        assert exc.value.token == old.token
        assert exc.value.current > old.token

    def test_expired_but_unreclaimed_also_fences(self, table):
        lease = table.acquire("tick:0", "w1", ttl=2, now=0)
        with pytest.raises(LeaseFencedError):
            table.validate(lease, now=3)

    def test_fenced_commit_writes_nothing(self, store, table):
        lease = table.acquire("turn:1", "w1", ttl=2, now=0)
        table.acquire("turn:1", "w2", ttl=4, now=5)  # reclaim
        uow = SqlUnitOfWork(store, tick=5, lease=lease, leases=table)
        uow.put(1, {"gold": 99})
        with pytest.raises(LeaseFencedError):
            uow.commit()
        assert store.read_entity(1) == (None, 0)

    def test_reclaim_expired_sweep(self, table):
        table.acquire("tick:0", "w1", ttl=2, now=0)
        table.acquire("tick:1", "w2", ttl=9, now=0)
        reclaimed = table.reclaim_expired(now=5)
        assert [lease.key for lease in reclaimed] == ["tick:0"]

    def test_reclaim_hands_out_tokens_in_lease_order(self, store, table):
        # Keys leased z, a, m; z renewed (keeps its place); a released
        # and leased again (moves to the end).
        z = table.acquire("z", "w1", ttl=2, now=0)
        a = table.acquire("a", "w2", ttl=2, now=0)
        table.acquire("m", "w3", ttl=2, now=0)
        table.renew(z, ttl=2, now=1)
        table.release(a)
        table.acquire("a", "w4", ttl=1, now=1)
        assert [lease.key for lease in table.inflight(now=1)] == ["z", "m", "a"]
        store.wal.flush()
        store.crash()
        store.recover()  # replay rebuilds the same order
        assert [lease.key for lease in table.expired(now=9)] == ["z", "m", "a"]
        reclaimed = table.reclaim_expired(now=9)
        assert [(lease.key, lease.token) for lease in reclaimed] == [
            ("z", 5), ("m", 6), ("a", 7),
        ]

    def test_reclaim_emits_span(self):
        from repro.obs import Observability

        obs = Observability.full()
        table = LeaseTable(DurableStore(obs=obs))
        table.acquire("tick:0", "w1", ttl=1, now=0)
        table.acquire("tick:0", "w2", ttl=4, now=3)
        assert "lease.reclaim" in [s.name for s in obs.recorder.spans()]


class TestDurability:
    def test_leases_survive_crash_and_recovery(self, store, table):
        lease = table.acquire("tick:0", "w1", ttl=10, now=0)
        store.crash()
        store.recover()
        holder = table.holder("tick:0")
        assert holder == lease

    def test_fence_monotonic_across_recovery(self, store, table):
        old = table.acquire("tick:0", "w1", ttl=2, now=0)
        store.crash()
        store.recover()
        new = table.acquire("tick:0", "w2", ttl=4, now=5)
        assert new.token > old.token
