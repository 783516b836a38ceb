"""Failover: detection, promotion, reconciliation, and loss accounting.

The acceptance scenario kills a primary mid-run — with handoffs in
flight in both directions and cross-shard transactions outstanding —
and pins the promoted replica's state to a crash-free reference run.
"""

import pytest

from repro.errors import ReplicationError
from repro.gateway import ClusterView
from repro.net import FaultInjector
from repro.replication import ACK_ASYNC
from tests.replication.conftest import (
    POPULATION,
    build_replicated,
    owned_by,
    run_workload,
    total_gold,
)

GOLD_TOTAL = POPULATION * 100


def cross_migrations(cluster):
    """Start one handoff out of shard 0 and one into it."""
    assert cluster.migrate(owned_by(cluster, 0)[0], 1)
    assert cluster.migrate(owned_by(cluster, 1)[0], 0)


class TestFailoverAcceptance:
    def test_promotion_matches_crash_free_reference(self):
        """Primary dies at tick 20 with in-flight handoffs and pending
        2PC; the promoted replica must be byte-identical to a crash-free
        run of the same workload at the last tick the primary executed,
        and nothing acknowledged may be lost (semi-sync)."""
        injector = FaultInjector().crash("shard:0", at_tick=20)
        cluster, cfg, _ = build_replicated(
            seed=7, replication_factor=2, injector=injector
        )
        seen = {}

        def capture(c):
            seen["acked"] = c.shards[0].acknowledged_lsn

        run_workload(
            cluster, cfg, 40, at_tick={18: cross_migrations, 19: capture}
        )
        cluster.quiesce()
        cluster.check_invariants()

        assert len(cluster.failovers) == 1
        report = cluster.failovers[0]
        assert report.shard == 0
        assert report.entities_lost == 0
        assert report.records_lost == 0
        assert report.promoted_applied_lsn >= seen["acked"] > 0
        assert report.unavailable_ticks == cluster.heartbeat_timeout + 1
        assert total_gold(cluster) == GOLD_TOTAL

        # The crash applies at the start of global tick 20, so the dead
        # primary executed exactly 19 ticks; drive a healthy cluster
        # identically for those 19.
        ref, rcfg, _ = build_replicated(seed=7, replication_factor=2)
        run_workload(ref, rcfg, 19, at_tick={18: cross_migrations})
        assert report.promoted_state_hash == ref.shards[0].world.state_hash()

    def test_cluster_keeps_working_after_failover(self):
        injector = FaultInjector().crash("shard:0", at_tick=20)
        cluster, cfg, _ = build_replicated(
            seed=7, replication_factor=1, injector=injector
        )
        run_workload(cluster, cfg, 40)
        cluster.quiesce()
        before = cluster.stats().cross_committed + cluster.stats().local_committed
        run_workload(cluster, cfg, 15, seed=99)
        cluster.quiesce()
        cluster.check_invariants()
        after = cluster.stats().cross_committed + cluster.stats().local_committed
        assert after > before  # transactions commit in the new epoch
        assert total_gold(cluster) == GOLD_TOTAL

    def test_async_crash_loses_the_unshipped_window(self):
        """ship_interval=4 and a crash at tick 19: ticks 17-18 were
        durable on the primary but never shipped — async's loss window."""
        injector = FaultInjector().crash("shard:0", at_tick=19)
        cluster, cfg, _ = build_replicated(
            seed=7,
            replication_factor=1,
            ack_mode=ACK_ASYNC,
            ship_interval=4,
            injector=injector,
        )
        run_workload(cluster, cfg, 35)
        cluster.quiesce()
        cluster.check_invariants()
        report = cluster.failovers[0]
        assert report.promoted_applied_lsn > 0
        assert report.records_lost > 0 or report.entities_lost >= 1


class TestPromotionChoice:
    def test_promotes_survivor_when_a_replica_is_down_too(self):
        injector = (
            FaultInjector()
            .crash("replica:0:0", at_tick=10)
            .crash("shard:0", at_tick=20)
        )
        cluster, cfg, _ = build_replicated(
            seed=7, replication_factor=2, injector=injector
        )
        run_workload(cluster, cfg, 35)
        cluster.quiesce()
        cluster.check_invariants()
        report = cluster.failovers[0]
        assert report.promoted_replica == 1
        assert report.records_lost == 0  # semi-sync: survivor caught up
        assert total_gold(cluster) == GOLD_TOTAL

    def test_losing_primary_and_every_replica_is_fatal(self):
        injector = (
            FaultInjector()
            .crash("replica:0:0", at_tick=10)
            .crash("shard:0", at_tick=20)
        )
        cluster, cfg, _ = build_replicated(
            seed=7, replication_factor=1, injector=injector
        )
        with pytest.raises(ReplicationError):
            run_workload(cluster, cfg, 35)


class TestGroupRebuild:
    def test_group_restored_to_full_strength(self):
        injector = FaultInjector().crash("shard:0", at_tick=20)
        cluster, cfg, _ = build_replicated(
            seed=7, replication_factor=2, injector=injector
        )
        run_workload(cluster, cfg, 40)
        group = cluster.replicas[0]
        assert sorted(rep.idx for rep in group) == [1, 2]
        assert all(rep.applied_lsn > 0 for rep in group)
        # the rebuilt group replicates the promoted primary faithfully
        frozen = cluster.shards[0].world.state_hash()
        cluster.tick()
        assert all(rep.state_hash() == frozen for rep in group)


class TestPromotedHostKeepsRegistrations:
    def test_promoted_primary_runs_systems_and_is_streamed(self):
        """A failover builds a fresh primary host.  The cluster's systems
        and change hooks must come with it: otherwise the shard stops
        moving and a gateway's ClusterView stops hearing it."""
        injector = FaultInjector().crash("shard:0", at_tick=6)
        cluster, _cfg, _ = build_replicated(seed=7, injector=injector)
        view = ClusterView(cluster)
        cluster.run(5)
        view.collect()  # the dead primary's last writes, already streamed
        while not cluster.failovers:
            cluster.tick()
        mine = owned_by(cluster, 0)
        assert mine
        # The promoted host is heard: its restore re-streams the promoted
        # (possibly rolled back) values, then its own ticks stream.
        positions = cluster.positions()
        restored = view.collect().dirty
        for eid in mine:
            assert (restored[eid]["x"], restored[eid]["y"]) == positions[eid]
        before = cluster.positions()
        cluster.run(5)
        after = cluster.positions()
        assert [e for e in mine if after[e] != before[e]] == mine
        dirty = view.collect().dirty
        for eid in mine:
            assert (dirty[eid]["x"], dirty[eid]["y"]) == after[eid]
        view.close()


class TestDeterminism:
    @staticmethod
    def run_scenario():
        injector = (
            FaultInjector()
            .crash("shard:1", at_tick=15)
            .drop_burst("shard:0", "replica:0:0", at_tick=6, until_tick=9)
        )
        cluster, cfg, _ = build_replicated(
            seed=11, replication_factor=2, injector=injector
        )
        run_workload(cluster, cfg, 30, seed=11)
        cluster.quiesce()
        return cluster

    def test_same_fault_plan_replays_identically(self):
        a = self.run_scenario()
        b = self.run_scenario()
        assert a.state_hash() == b.state_hash()
        assert a.failovers == b.failovers
        assert a.failovers[0].shard == 1


class TestConfiguration:
    def test_invalid_configurations_rejected(self):
        with pytest.raises(ReplicationError):
            build_replicated(ack_mode="chaos")
        with pytest.raises(ReplicationError):
            build_replicated(replication_factor=0)  # semi-sync needs one
        with pytest.raises(ReplicationError):
            build_replicated(heartbeat_timeout=1)
        with pytest.raises(ReplicationError):
            build_replicated(ship_interval=0)

    def test_coordinator_crash_is_out_of_scope(self):
        injector = FaultInjector().crash("coord", at_tick=2)
        cluster, cfg, _ = build_replicated(injector=injector)
        with pytest.raises(ReplicationError):
            run_workload(cluster, cfg, 5)
