"""Exact-bytes gate for the gateway edge.

A seeded in-process swarm — ramp, churn with resume, slow readers,
inputs and durable-style events over a ``WorldView`` — runs for a fixed
number of ticks, and every frame the gateway hands a transport is
hashed in send order.  The digest is pinned: any change to what goes on
the wire (codec, delta building, dead-reckoning suppression, coalescing,
oversize splitting, sequence numbers, event and ack framing) changes it.
A change that *means* to alter the wire must say so and re-pin it.

Resume tokens are the only non-deterministic bytes the gateway writes
(CSPRNG by default), so the session manager's ``token_factory`` is
pinned here.  Run on every column backend (the CI numpy leg runs this
file with the numpy backend available and forced).
"""

import hashlib
import itertools

from repro.gateway import BackpressureConfig, GatewayConfig
from repro.gateway.transport import MemoryTransport
from repro.net.protocol import InputAck
from repro.workloads import swarm as swarm_module
from repro.workloads.swarm import Swarm, SwarmConfig

from tests.gateway.conftest import make_core, make_world

#: sha256 of every frame the run below sends, first recorded under the
#: previous, tree-walking codec.  Re-pin only for an intended change.
GOLDEN_SHA256 = (
    "2c3191f2a854a354596ea062d31cf642c1b2ab1c506b88904b3c72bf6d1de972"
)
CLIENTS = 60
TICKS = 30


def run_swarm(monkeypatch) -> tuple[str, dict, dict]:
    digest = hashlib.sha256()
    serials = itertools.count(1)

    class Recording(MemoryTransport):
        """Feeds every frame into the digest, tagged with its connection."""

        __slots__ = ("serial",)

        def __init__(self) -> None:
            super().__init__()
            self.serial = next(serials)

        def send(self, data: bytes) -> None:
            if not self.closed:
                digest.update(self.serial.to_bytes(4, "big"))
                digest.update(len(data).to_bytes(4, "big") + data)
            super().send(data)

    monkeypatch.setattr(swarm_module, "MemoryTransport", Recording)
    world = make_world()

    def on_input(session, cmd):
        pos = world.get(session.avatar, "Position")
        world.set(session.avatar, "Position",
                  x=pos["x"] + cmd.args["dx"], y=pos["y"] + cmd.args["dy"])
        return InputAck(cmd.seq, True, {"x": pos["x"]}, world.clock.tick)

    config = GatewayConfig(
        default_radius=24.0,
        # Small watermarks, so the slow readers coalesce within the run.
        backpressure=BackpressureConfig(
            max_queue_bytes=64 * 1024, high_watermark=1536,
            low_watermark=512, evict_behind_ticks=12,
        ),
    )
    core = make_core(world, config=config, on_input=on_input)
    core.sessions.token_factory = lambda sid, client: f"resume-{sid}"
    swarm = Swarm(world, core, SwarmConfig(
        clients=CLIENTS, ramp_ticks=6, churn_rate=0.05, hotspots=3,
        world_size=300.0, hotspot_sigma=15.0, move_rate=0.6,
        slow_fraction=0.1, slow_budget=400, input_rate=0.2, seed=5,
    ))
    avatars = [client.avatar for client in swarm.clients]
    for tick in range(TICKS):
        swarm.step(tick)
        world.tick()
        for i in range(3):
            avatar = avatars[(tick * 7 + i * 13) % len(avatars)]
            core.publish_event(avatar, "hit", key=f"{tick}:{i}",
                               payload={"dmg": tick + i, "crit": i == 2})
        if tick % 10 == 9:
            core.publish_event(-1, "weather", key=str(tick),
                               payload={"rain": 0.5}, broadcast=True)
        core.tick()
        swarm.drain()
    return digest.hexdigest(), core.stats(), swarm.stats()


def test_wire_bytes_are_pinned(monkeypatch):
    digest, stats, seen = run_swarm(monkeypatch)
    # The run exercises every path the digest is meant to cover.
    assert stats["deltas_sent"] > 500
    assert stats["deltas_coalesced"] > 0
    assert stats["resumed"] > 0
    assert stats["events_published"] > 0
    assert stats["inputs"] > 0
    assert seen["coalesced_seen"] > 0
    assert digest == GOLDEN_SHA256, (digest, stats, seen)


def test_run_is_deterministic(monkeypatch):
    first, _, _ = run_swarm(monkeypatch)
    second, _, _ = run_swarm(monkeypatch)
    assert first == second

