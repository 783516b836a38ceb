"""Lease-guarded tick ownership: the cluster/durable seam.

``ClusterCoordinator.attach_tick_leases`` hands each shard's tick to a
durable ``tick:<shard>`` lease.  A worker holding the lease owns that
shard's turn (the coordinator defers); a worker that dies simply stops
renewing, so within ``ttl`` ticks the coordinator reclaims the key
under a larger fencing token and resumes — and the fence keeps a
merely-paused worker from double-applying the tick it lost.
"""

import pytest

from repro.durable import DurableStore, LeaseTable, SqlUnitOfWork
from repro.errors import ClusterError, LeaseFencedError

from tests.cluster.conftest import make_static_cluster


@pytest.fixture
def table():
    return LeaseTable(DurableStore())


def shard_ticks(cluster):
    return [host.stats.ticks for host in cluster.shards]


class TestAttachment:
    def test_unattached_cluster_ticks_freely(self):
        cluster = make_static_cluster(shards=2)
        cluster.tick()
        assert shard_ticks(cluster) == [1, 1]
        assert cluster.tick_deferrals == {}

    def test_coordinator_acquires_and_renews_its_leases(self, table):
        cluster = make_static_cluster(shards=2)
        cluster.attach_tick_leases(table, ttl=4, owner="coord")
        for _ in range(3):
            cluster.tick()
        assert shard_ticks(cluster) == [3, 3]
        # First round acquires one lease per shard; later rounds renew
        # the same grant (same token, pushed-out expiry).
        assert table.renews == 2 * 2
        holder = table.holder("tick:0")
        assert holder.owner == "coord"
        assert holder.expires == 3 + 4

    def test_rejects_nonpositive_ttl(self, table):
        cluster = make_static_cluster(shards=1)
        with pytest.raises(ClusterError):
            cluster.attach_tick_leases(table, ttl=0)


class TestWorkerOwnership:
    def test_live_worker_lease_defers_the_shard_tick(self, table):
        cluster = make_static_cluster(shards=2)
        cluster.attach_tick_leases(table, ttl=4, owner="coord")
        table.acquire("tick:0", "worker", ttl=10, now=0)
        for _ in range(3):
            cluster.tick()
        # Shard 0's turns belong to the worker; shard 1 is unaffected.
        assert shard_ticks(cluster) == [0, 3]
        assert cluster.tick_deferrals == {0: 3, 1: 0}

    def test_crashed_worker_reclaimed_within_ttl(self, table):
        """The acceptance bar: reclaim within expiry, no double tick."""
        cluster = make_static_cluster(shards=1)
        cluster.attach_tick_leases(table, ttl=4, owner="coord")
        stale = table.acquire("tick:0", "worker", ttl=3, now=0)
        # ... the worker dies here and never renews ...
        for _ in range(5):
            cluster.tick()
        # Ticks at now=1,2 defer (lease live); now=3 hits expiry and the
        # coordinator reclaims under a larger fence — within the ttl.
        assert cluster.tick_deferrals == {0: 2}
        assert shard_ticks(cluster) == [3]
        assert table.reclaims == 1
        holder = table.holder("tick:0")
        assert holder.owner == "coord"
        assert holder.token > stale.token

    def test_fenced_worker_cannot_double_apply(self, table):
        cluster = make_static_cluster(shards=1)
        cluster.attach_tick_leases(table, ttl=4, owner="coord")
        stale = table.acquire("tick:0", "worker", ttl=2, now=0)
        for _ in range(3):
            cluster.tick()  # reclaim happens at now=2
        # The worker was only paused: its commit must bounce off the
        # fence and write nothing.
        store = table.store
        uow = SqlUnitOfWork(store, tick=3, lease=stale, leases=table)
        uow.put(1, {"gold": 1})
        with pytest.raises(LeaseFencedError):
            uow.commit()
        assert store.read_entity(1) == (None, 0)

    def test_worker_handoff_back_to_coordinator(self, table):
        """A releasing worker returns the shard without waiting for ttl."""
        cluster = make_static_cluster(shards=1)
        cluster.attach_tick_leases(table, ttl=4, owner="coord")
        lease = table.acquire("tick:0", "worker", ttl=50, now=0)
        cluster.tick()
        assert shard_ticks(cluster) == [0]
        table.release(lease)
        cluster.tick()
        assert shard_ticks(cluster) == [1]
        assert table.reclaims == 0  # a release is not a reclaim


class TestDurabilityOfOwnership:
    def test_worker_claim_survives_store_recovery(self, table):
        cluster = make_static_cluster(shards=1)
        cluster.attach_tick_leases(table, ttl=4, owner="coord")
        table.acquire("tick:0", "worker", ttl=10, now=0)
        table.store.crash()
        table.store.recover()
        cluster.tick()
        # The journaled lease still defers the tick after recovery.
        assert shard_ticks(cluster) == [0]
        assert cluster.tick_deferrals == {0: 1}
