"""Steady-state log shipping: replicas track primaries, serve reads,
and recover from dropped batches."""

from repro.net import FaultInjector
from repro.replication import ACK_ASYNC, ACK_SEMISYNC
from tests.replication.conftest import build_replicated, run_workload


def freeze_and_settle(cluster):
    """Hash shard 0's primary, then run one tick so its replicas apply
    that tick's batch (shipping has one tick of wire latency)."""
    frozen = cluster.shards[0].world.state_hash()
    cluster.tick()
    return frozen


class TestSteadyState:
    def test_replica_mirrors_primary_with_one_tick_lag(self):
        cluster, cfg, _ = build_replicated(replication_factor=1)
        run_workload(cluster, cfg, 10)
        owned_then = set(cluster.shards[0].owned)
        frozen = freeze_and_settle(cluster)
        rep = cluster.replicas[0][0]
        assert rep.state_hash() == frozen
        assert rep.owned == owned_then
        assert rep.gaps_detected == 0

    def test_every_replica_in_the_group_tracks(self):
        cluster, cfg, _ = build_replicated(replication_factor=3)
        run_workload(cluster, cfg, 12)
        frozen = freeze_and_settle(cluster)
        hashes = {rep.state_hash() for rep in cluster.replicas[0]}
        assert hashes == {frozen}

    def test_replication_stats_progress(self):
        cluster, cfg, _ = build_replicated(replication_factor=2)
        run_workload(cluster, cfg, 10)
        status = cluster.replication_stats()[0]
        assert status.flushed_lsn > 0
        assert 0 < status.acknowledged_lsn <= status.flushed_lsn
        assert status.bytes_shipped > 0
        assert len(status.replica_lsns) == 2
        for lsn in status.replica_lsns.values():
            assert 0 < lsn <= status.flushed_lsn

    def test_replica_serves_interest_queries(self):
        cluster, cfg, _ = build_replicated(replication_factor=1)
        run_workload(cluster, cfg, 10)
        host = cluster.shards[0]
        expected = sorted(
            host.world.query("Position").within(100.0, 100.0, 300.0).execute(mode="tuple").ids
        )
        cluster.tick()
        rep = cluster.replicas[0][0]
        assert expected  # the shard owns part of the crowd
        assert sorted(rep.entities_near(100.0, 100.0, 300.0)) == expected


class TestAckModes:
    def test_async_ships_fewer_bytes_than_semisync(self):
        """Same records either way; async amortises the per-message
        envelope over ship_interval ticks."""
        shipped = {}
        for mode in (ACK_SEMISYNC, ACK_ASYNC):
            cluster, cfg, _ = build_replicated(
                replication_factor=1, ack_mode=mode, ship_interval=4
            )
            run_workload(cluster, cfg, 20)
            shipped[mode] = cluster.replication_stats()[0].bytes_shipped
        assert 0 < shipped[ACK_ASYNC] < shipped[ACK_SEMISYNC]

    def test_async_acknowledges_behind_flush(self):
        cluster, cfg, _ = build_replicated(
            replication_factor=1, ack_mode=ACK_ASYNC, ship_interval=4
        )
        run_workload(cluster, cfg, 18)
        host = cluster.shards[0]
        # 18 is mid-window (last ship at 16): the tail is durable
        # locally but no replica has seen it yet.
        assert host.acknowledged_lsn < host.journal.flushed_lsn


class TestDropBurstRecovery:
    def test_reship_catches_up_after_dropped_batches(self):
        injector = FaultInjector().drop_burst(
            "shard:0", "replica:0:0", at_tick=5, until_tick=8
        )
        cluster, cfg, _ = build_replicated(
            replication_factor=1, injector=injector
        )
        run_workload(cluster, cfg, 20)
        rep = cluster.replicas[0][0]
        assert cluster.net.stats()["totals"]["dropped_fault"] >= 3
        assert rep.gaps_detected >= 1
        frozen = freeze_and_settle(cluster)
        assert rep.state_hash() == frozen  # fully healed
        assert not cluster.failovers  # heartbeats were never affected


class TestShipCost:
    def test_healthy_shipping_decodes_each_flushed_record_once(
        self, monkeypatch
    ):
        """``ship_since`` seeks to the un-shipped tail: over 200 ticks to
        one replica each journal record is CRC-checked and decoded once,
        not once per tick since it was written."""
        from repro.persistence import wal as wal_module

        decodes = []
        real = wal_module._try_decode

        def spy(line):
            decodes.append(line)
            return real(line)

        monkeypatch.setattr(wal_module, "_try_decode", spy)
        cluster, cfg, _ = build_replicated(
            replication_factor=1, ship_interval=1
        )
        run_workload(cluster, cfg, 200)
        flushed = sum(host.journal.flushed_lsn for host in cluster.shards)
        assert flushed > 200 * len(cluster.shards)
        assert len(decodes) == flushed
        for host in cluster.shards:
            assert host.journal.wal.truncate_until(host.journal.flushed_lsn) > 0
        assert len(decodes) == flushed
