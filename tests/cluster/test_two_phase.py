"""Cross-shard two-phase commit: atomicity, isolation, abort safety."""

from repro.workloads import transfer_spec

from tests.cluster.conftest import make_static_cluster, spawn_grid_entities


def cross_shard_pair(cluster):
    """Two entities guaranteed to live on different shards."""
    a, b = spawn_grid_entities(cluster, [(10.0, 10.0), (190.0, 10.0)])
    assert cluster.owner_of(a) != cluster.owner_of(b)
    return a, b


def gold_of(cluster, entity):
    return cluster.shard(cluster.owner_of(entity)).world.get_field(
        entity, "Wealth", "gold"
    )


class TestCommit:
    def test_cross_shard_transfer_moves_gold(self):
        cluster = make_static_cluster()
        a, b = cross_shard_pair(cluster)
        txn = cluster.submit(transfer_spec(a, b, amount=25))
        cluster.quiesce()
        assert cluster.txn_outcome(txn) is True
        assert gold_of(cluster, a) == 75
        assert gold_of(cluster, b) == 125
        stats = cluster.stats()
        assert stats.cross_committed == 1
        assert stats.cross_shard_fraction == 1.0

    def test_local_transfer_uses_fast_path(self):
        cluster = make_static_cluster()
        a, b = spawn_grid_entities(cluster, [(10.0, 10.0), (20.0, 10.0)])
        assert cluster.owner_of(a) == cluster.owner_of(b)
        txn = cluster.submit(transfer_spec(a, b, amount=10))
        cluster.quiesce()
        assert cluster.txn_outcome(txn) is True
        stats = cluster.stats()
        assert stats.local_committed == 1
        assert stats.cross_committed == 0

    def test_chained_transfers_serialize(self):
        """Sequentially-submitted conflicting transfers all commit."""
        cluster = make_static_cluster()
        a, b = cross_shard_pair(cluster)
        outcomes = []
        for _ in range(5):
            txn = cluster.submit(transfer_spec(a, b, amount=10))
            cluster.quiesce()
            outcomes.append(cluster.txn_outcome(txn))
        assert outcomes == [True] * 5
        assert gold_of(cluster, a) == 50
        assert gold_of(cluster, b) == 150


class TestAbort:
    def test_conflicting_same_tick_txns_one_survives(self):
        """Two overlapping cross-shard txns: no-wait 2PC aborts at least
        one, and the surviving commits keep gold consistent."""
        cluster = make_static_cluster()
        a, b = cross_shard_pair(cluster)
        t1 = cluster.submit(transfer_spec(a, b, amount=10))
        t2 = cluster.submit(transfer_spec(a, b, amount=10))
        cluster.quiesce()
        outcomes = [cluster.txn_outcome(t1), cluster.txn_outcome(t2)]
        committed = sum(1 for o in outcomes if o)
        assert committed >= 1
        assert gold_of(cluster, a) == 100 - 10 * committed
        assert gold_of(cluster, b) == 100 + 10 * committed
        if committed < 2:
            assert cluster.stats().cross_aborted == 2 - committed

    def test_abort_leaves_both_shards_tables_unchanged(self):
        """A refused prepare aborts the txn; neither world mutates."""
        cluster = make_static_cluster()
        a, b = cross_shard_pair(cluster)
        cluster.quiesce()
        # An out-of-band prepared transaction holds an exclusive lock on
        # b's gold, so the cluster txn's prepare at b's shard refuses.
        host_b = cluster.shard(cluster.owner_of(b))
        blocker = host_b.participant.prepare(
            999_999, [("u", (b, "Wealth", "gold"))]
        )
        assert blocker is not None
        txn = cluster.submit(transfer_spec(a, b, amount=10))
        for _ in range(8):
            cluster.tick()
        assert cluster.txn_outcome(txn) is False
        host_b.participant.abort(999_999)
        cluster.quiesce()
        # Neutralise the tick counter before comparing state hashes: the
        # worlds ran frames, but no entity/component data may differ.
        cluster.shard(cluster.owner_of(a)).world.clock.rewind_to(0)
        host_b.world.clock.rewind_to(0)
        ref = make_static_cluster()
        ra, rb = cross_shard_pair(ref)
        ref.quiesce()
        for host in ref.shards:
            host.world.clock.rewind_to(0)
        assert cluster.shard(cluster.owner_of(a)).world.state_hash() == (
            ref.shard(ref.owner_of(ra)).world.state_hash()
        )
        assert host_b.world.state_hash() == (
            ref.shard(ref.owner_of(rb)).world.state_hash()
        )
        assert gold_of(cluster, a) == 100
        assert gold_of(cluster, b) == 100

    def test_abort_releases_locks_for_later_txns(self):
        cluster = make_static_cluster()
        a, b = cross_shard_pair(cluster)
        host_b = cluster.shard(cluster.owner_of(b))
        host_b.participant.prepare(999_999, [("u", (b, "Wealth", "gold"))])
        t1 = cluster.submit(transfer_spec(a, b, amount=10))
        for _ in range(8):
            cluster.tick()
        assert cluster.txn_outcome(t1) is False
        host_b.participant.abort(999_999)
        t2 = cluster.submit(transfer_spec(a, b, amount=10))
        cluster.quiesce()
        assert cluster.txn_outcome(t2) is True
        assert gold_of(cluster, a) == 90
        assert gold_of(cluster, b) == 110
        # The aborted attempt left no prepared state behind on either side.
        for host in cluster.shards:
            assert host.participant.prepared_count() == 0


class TestPrepareDuringHandoff:
    def test_split_local_prepare_aborts_instead_of_bouncing(self):
        """A local prepare whose slice split mid-handoff is decided.

        ``b`` first moves T -> S, leaving T a breadcrumb for it; then
        ``a`` leaves S for T while a local (a, b) prepare is on the
        wire.  S owns only ``b`` and T only ``a``: forwarding would
        ping-pong between the two breadcrumbs forever.
        """
        cluster = make_static_cluster()
        a, b = cross_shard_pair(cluster)
        s, t = cluster.owner_of(a), cluster.owner_of(b)
        assert cluster.migrate(b, s)
        cluster.quiesce()
        assert cluster.owner_of(b) == s
        assert cluster.migrate(a, t)
        txn = cluster.submit(transfer_spec(a, b, amount=10))
        cluster.quiesce()
        cluster.check_invariants()
        assert cluster.txn_outcome(txn) is False
        assert cluster.owner_of(a) == t
        assert gold_of(cluster, a) == 100
        assert gold_of(cluster, b) == 100
