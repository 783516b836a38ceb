"""Client-state replication end to end: a GatewayCore streaming a world.

The gateway is the edge that replicates authoritative state to clients:
interest-scoped deltas over memory transports, deterministic under a
fake clock.  A client's copy of the world is folded from its deltas.
"""

from repro.gateway import GatewayConfig, Reject
from tests.gateway.conftest import ClientCopy, TestClient, make_core, make_world


def make_rig(radius=20.0):
    world = make_world()
    avatar = world.spawn(Position={"x": 0.0, "y": 0.0})
    core = make_core(world, config=GatewayConfig(default_radius=radius))
    return world, core, avatar


def pump(world, core, copy, ticks=1):
    for _ in range(ticks):
        world.tick()
        core.tick()
        copy.pump()


class TestStateReplication:
    def test_strong_update_reaches_client(self):
        world, core, avatar = make_rig()
        other = world.spawn(Position={"x": 5.0, "y": 5.0})
        copy = ClientCopy(core, "c1", avatar)
        pump(world, core, copy)
        world.set(other, "Position", x=7.0)
        pump(world, core, copy, ticks=3)
        assert copy.entities[other]["x"] == 7.0

    def test_duplicate_client_rejected(self):
        world, core, avatar = make_rig()
        ClientCopy(core, "c1", avatar)
        (reply,) = TestClient(core, "c1").hello()
        assert isinstance(reply, Reject)


class TestInterestScoping:
    def test_far_entity_invisible(self):
        world, core, avatar = make_rig()
        near = world.spawn(Position={"x": 5.0, "y": 0.0})
        far = world.spawn(Position={"x": 500.0, "y": 0.0})
        copy = ClientCopy(core, "c1", avatar)
        pump(world, core, copy, ticks=3)
        assert near in copy.entities
        assert far not in copy.entities

    def test_enter_exit_lifecycle(self):
        world, core, avatar = make_rig()
        walker = world.spawn(Position={"x": 100.0, "y": 0.0})
        copy = ClientCopy(core, "c1", avatar)
        stream = next(iter(core.sessions.sessions.values())).stream
        pump(world, core, copy, ticks=2)
        assert walker not in copy.entities
        world.set(walker, "Position", x=10.0)
        pump(world, core, copy, ticks=3)
        assert walker in copy.entities
        assert stream.enters >= 1
        world.set(walker, "Position", x=300.0)
        pump(world, core, copy, ticks=3)
        assert walker not in copy.entities
        assert stream.exits >= 1

    def test_updates_not_sent_to_uninterested(self):
        world, core, avatar = make_rig()
        far = world.spawn(Position={"x": 500.0, "y": 0.0})
        copy = ClientCopy(core, "c1", avatar)
        pump(world, core, copy, ticks=2)
        for t in range(10):
            world.set(far, "Position", x=500.0 + t)
            pump(world, core, copy)
        assert far not in copy.updates
        assert far not in copy.entities
