"""Shared builders for the gateway test suite.

Everything here is deterministic: memory transports, a fake clock, and
a tiny world with the repro Position/Velocity idiom.
"""

from repro.core import GameWorld, schema
from repro.gateway import (
    Delta,
    FrameDecoder,
    GatewayConfig,
    GatewayCore,
    Hello,
    MemoryTransport,
    WorldView,
    frame,
)


class FakeClock:
    """A manually advanced clock for deterministic tick timing."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_world():
    """A world with the gateway's replicated components registered."""
    world = GameWorld(dt=1.0 / 30.0)
    world.catalog.define(schema("Position", x="float", y="float"))
    world.catalog.define(
        schema("Velocity", vx=("float", 0.0), vy=("float", 0.0))
    )
    return world


def make_core(world, config=None, **kwargs):
    """A GatewayCore over a WorldView with a fake clock."""
    clock = kwargs.pop("clock", FakeClock())
    core = GatewayCore(
        WorldView(world),
        config or GatewayConfig(),
        clock=clock,
        **kwargs,
    )
    return core


class TestClient:
    """A minimal memory-transport client against a GatewayCore."""

    __test__ = False  # not a pytest collection target

    def __init__(self, core, name, avatar=None, **hello_kwargs):
        self.core = core
        self.name = name
        if avatar is not None:
            core.bind_avatar(name, avatar)
        self.transport = MemoryTransport()
        self.decoder = FrameDecoder()
        self.cid = core.connect(self.transport)
        self.hello_kwargs = hello_kwargs

    def hello(self, **overrides):
        kwargs = {**self.hello_kwargs, **overrides}
        self.send(Hello(client=self.name, **kwargs))
        return self.drain()

    def send(self, msg):
        self.core.on_bytes(self.cid, frame(msg))

    def drain(self, budget=None):
        """Read the transport like a client; returns decoded messages."""
        return self.decoder.feed(self.transport.drain(budget))


class ClientCopy:
    """What one client knows: entity -> fields, folded from its deltas."""

    def __init__(self, core, name, avatar):
        self.client = TestClient(core, name, avatar=avatar)
        self.client.hello()
        self.entities = {}
        self.updates = []

    def pump(self):
        for msg in self.client.drain():
            if not isinstance(msg, Delta):
                continue
            for eid, fields in msg.enters:
                self.entities[eid] = dict(fields)
            for eid, fields in msg.updates:
                self.entities.setdefault(eid, {}).update(fields)
                self.updates.append(eid)
            for eid in msg.exits:
                self.entities.pop(eid, None)
