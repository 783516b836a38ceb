"""GatewayCore end-to-end over memory transports (sans-IO, deterministic)."""

import struct

from repro.gateway import (
    BackpressureConfig,
    Delta,
    GatewayConfig,
    GatewayCore,
    Goodbye,
    Ping,
    Pong,
    Reject,
    Welcome,
    WorldView,
)
from repro.net.protocol import InputCommand, encode
from repro.obs import Observability

from tests.gateway.conftest import TestClient, make_core, make_world


def spawn(world, x, y, vx=0.0, vy=0.0):
    return world.spawn(
        Position={"x": x, "y": y}, Velocity={"vx": vx, "vy": vy}
    )


def make_pair(radius=16.0, **core_kwargs):
    """A world with two avatars within AOI range, and a core over it."""
    world = make_world()
    e1 = spawn(world, 0.0, 0.0)
    e2 = spawn(world, 5.0, 0.0, vx=1.0)
    core = make_core(world, **core_kwargs)
    return world, core, e1, e2


class TestHandshakeThroughCore:
    def test_hello_welcome_then_delta_with_enter(self):
        world, core, e1, e2 = make_pair()
        client = TestClient(core, "alice", avatar=e1)
        (welcome,) = client.hello()
        assert isinstance(welcome, Welcome)
        world.tick()
        core.tick()
        (delta,) = client.drain()
        assert isinstance(delta, Delta)
        entered = dict(delta.enters)
        assert e2 in entered
        assert entered[e2] == {"x": 5.0, "y": 0.0}
        assert e1 not in entered  # never announce the client to itself

    def test_reject_goes_out_raw_and_closes(self):
        world, core, e1, _ = make_pair()
        client = TestClient(core, "alice", avatar=e1)
        (reject,) = client.hello(token="invalid")
        assert isinstance(reject, Reject)
        assert client.transport.closed
        assert core.stats()["connections"] == 0

    def test_double_hello_is_protocol_error(self):
        world, core, e1, _ = make_pair()
        client = TestClient(core, "alice", avatar=e1)
        client.hello()
        client.hello()
        assert core.protocol_errors == 1
        assert client.transport.closed
        # The session survives as resumable; the connection does not.
        assert core.stats()["sessions"] == 1
        assert core.stats()["active"] == 0

    def test_message_before_hello_disconnects(self):
        world, core, _, _ = make_pair()
        client = TestClient(core, "alice")
        client.send(Ping(nonce=1))
        assert core.protocol_errors == 1
        assert client.transport.closed

    def test_corrupt_framing_disconnects(self):
        world, core, e1, _ = make_pair()
        client = TestClient(core, "alice", avatar=e1)
        client.hello()
        core.on_bytes(client.cid, struct.pack(">I", 1 << 24) + b"junk")
        assert core.protocol_errors == 1
        assert client.transport.closed

    def test_malformed_body_disconnects_without_crashing(self):
        # Well-framed frames whose JSON bodies are hostile: unknown
        # keys, a wrong-typed field, a non-object body.  Each must
        # surface as a protocol error + disconnect, never an exception
        # out of on_bytes (which would kill a server reader task).
        codec_header = encode(Ping(nonce=1))[:2]
        for body in (b'{"nonce":1,"evil":1}', b'{"nonce":"boom"}', b"[1,2]"):
            world, core, e1, _ = make_pair()
            client = TestClient(core, "alice", avatar=e1)
            client.hello()
            payload = codec_header + body
            core.on_bytes(
                client.cid, struct.pack(">I", len(payload)) + payload
            )
            assert core.protocol_errors == 1
            assert client.transport.closed
            # The session it carried stays resumable.
            assert core.stats()["sessions"] == 1


class TestStreaming:
    def test_dirty_position_streams_with_velocity(self):
        world, core, e1, e2 = make_pair()
        client = TestClient(core, "alice", avatar=e1)
        client.hello()
        world.tick()
        core.tick()
        client.drain()  # the enter delta
        world.set(e2, "Position", x=9.0, y=0.5)
        world.tick()
        core.tick()
        (delta,) = client.drain()
        updates = dict(delta.updates)
        assert updates[e2] == {"x": 9.0, "y": 0.5, "vx": 1.0, "vy": 0.0}

    def test_dead_reckoning_suppresses_predictable_motion(self):
        world, core, e1, e2 = make_pair()
        client = TestClient(core, "alice", avatar=e1)
        client.hello()
        world.tick()
        core.tick()
        client.drain()
        # Move e2 exactly as its velocity predicts (1 unit per world dt
        # would be vx*dt; use tiny steps so drift stays under threshold).
        for step in range(4):
            pos = world.get(e2, "Position")
            world.set(e2, "Position", x=pos["x"] + 0.001, y=pos["y"])
            world.tick()
            core.tick()
        session = next(iter(core.sessions.sessions.values()))
        assert session.stream.updates_suppressed > 0

    def test_exit_streams_when_entity_leaves_aoi(self):
        world, core, e1, e2 = make_pair()
        client = TestClient(core, "alice", avatar=e1)
        client.hello()
        world.tick()
        core.tick()
        client.drain()
        world.set(e2, "Position", x=500.0, y=0.0)
        world.tick()
        core.tick()
        (delta,) = client.drain()
        assert delta.exits == (e2,)

    def test_infinite_coordinate_does_not_kill_the_tick(self):
        # FloatField admits ±inf.  An avatar there is in no one's AOI and
        # sees no one; every other client keeps streaming.
        world, core, e1, e2 = make_pair()
        e3 = spawn(world, 0.0, 4.0)
        alice = TestClient(core, "alice", avatar=e1)
        bob = TestClient(core, "bob", avatar=e2)
        alice.hello()
        bob.hello()
        world.tick()
        core.tick()
        alice.drain()
        bob.drain()
        world.set(e1, "Position", x=float("inf"))
        world.set(e3, "Position", x=1.0, y=4.0)
        world.tick()
        core.tick()
        (to_alice,) = alice.drain()
        (to_bob,) = bob.drain()
        assert sorted(to_alice.exits) == sorted([e2, e3])
        assert to_bob.exits == (e1,)
        assert dict(to_bob.updates)[e3]["x"] == 1.0
        world.set(e1, "Position", x=2.0)
        world.tick()
        core.tick()
        (to_alice,) = alice.drain()
        assert sorted(eid for eid, _f in to_alice.enters) == sorted([e2, e3])
        assert core.stats()["active"] == 2

    def test_ping_answered_immediately(self):
        world, core, e1, _ = make_pair()
        client = TestClient(core, "alice", avatar=e1)
        client.hello()
        client.send(Ping(nonce=77, client_time=1.5))
        (pong,) = client.drain()
        assert pong == Pong(nonce=77, client_time=1.5, tick=world.clock.tick)
        assert core.pings == 1

    def test_input_routed_and_reply_queued(self):
        seen = []

        def on_input(session, cmd):
            seen.append((session.client, cmd.action))
            return Pong(nonce=99, client_time=0.0, tick=0)  # any reply frame

        world, core, e1, _ = make_pair(on_input=on_input)
        client = TestClient(core, "alice", avatar=e1)
        client.hello()
        client.send(InputCommand("alice", 1, "move", {"dx": 1.0}, tick=0))
        assert seen == [("alice", "move")]
        world.tick()
        core.tick()
        messages = client.drain()
        assert Pong(nonce=99, client_time=0.0, tick=0) in messages
        assert core.inputs == 1


class TestLifecycleThroughCore:
    def test_goodbye_closes_session_terminally(self):
        world, core, e1, _ = make_pair()
        client = TestClient(core, "alice", avatar=e1)
        client.hello()
        client.send(Goodbye("done"))
        assert core.stats()["sessions"] == 0
        assert client.transport.closed

    def test_disconnect_then_resume_keeps_known_set(self):
        world, core, e1, e2 = make_pair()
        client = TestClient(core, "alice", avatar=e1)
        (welcome,) = client.hello()
        world.tick()
        core.tick()
        (delta,) = client.drain()
        assert dict(delta.enters)  # e2 entered
        core.disconnect(client.cid)
        # Reconnect with the resume token on a fresh connection.
        revenant = TestClient(core, "alice")
        (welcome2,) = revenant.hello(resume=welcome.resume_token)
        assert welcome2.resumed
        world.set(e2, "Position", x=6.0, y=0.0)
        world.tick()
        core.tick()
        (delta2,) = revenant.drain()
        # No duplicate enter: the known set survived the reconnect.
        assert delta2.enters == ()
        assert e2 in dict(delta2.updates)

    def test_fresh_hello_after_drop_refires_enters(self):
        world, core, e1, e2 = make_pair()
        client = TestClient(core, "alice", avatar=e1)
        client.hello()
        world.tick()
        core.tick()
        client.drain()
        client.send(Goodbye("done"))  # terminal close drops AOI state
        fresh = TestClient(core, "alice")
        fresh.hello()
        world.tick()
        core.tick()
        (delta,) = fresh.drain()
        assert e2 in dict(delta.enters)  # the world arrives again, once

    def test_slow_client_evicted_with_goodbye(self):
        config = GatewayConfig(
            backpressure=BackpressureConfig(
                max_queue_bytes=1 << 20,
                high_watermark=200,
                low_watermark=50,
                drain_watermark=1 << 19,
                evict_behind_ticks=2,
            )
        )
        world, core, e1, e2 = make_pair(config=config)
        slow = TestClient(core, "alice", avatar=e1)
        slow.hello()
        for step in range(6):
            world.set(e2, "Position", x=5.0 + step, y=float(step))
            world.tick()
            result = core.tick()
            if result["evicted"]:
                break
        assert core.evictions == {"evicted:slow": 1}
        assert core.stats()["sessions"] == 0
        # The never-draining transport holds everything including the
        # final goodbye — the client learns why it was dropped.
        messages = slow.drain()
        assert messages[-1] == Goodbye("evicted:slow")

    def test_detached_session_expires_after_ttl(self):
        config = GatewayConfig(detach_ttl_ticks=3)
        world, core, e1, _ = make_pair(config=config)
        client = TestClient(core, "alice", avatar=e1)
        (welcome,) = client.hello()
        core.disconnect(client.cid)
        assert core.stats()["sessions"] == 1  # detached, still resumable
        for _ in range(5):
            world.tick()
            core.tick()
        assert core.stats()["sessions"] == 0
        assert core.stats()["expired"] == 1
        # The expired token no longer resumes.
        revenant = TestClient(core, "alice")
        (reply,) = revenant.hello(resume=welcome.resume_token)
        assert isinstance(reply, Reject)

    def test_shutdown_says_goodbye_and_unhooks(self):
        world, core, e1, _ = make_pair()
        client = TestClient(core, "alice", avatar=e1)
        client.hello()
        core.shutdown()
        assert client.drain()[-1] == Goodbye("shutdown")
        assert core.stats()["sessions"] == 0
        assert core.stats()["connections"] == 0
        # The world view detached its change hook: mutations after
        # shutdown must not reach the (dead) gateway.
        world.set(e1, "Position", x=1.0, y=1.0)


class TestObservability:
    def test_stats_registered_and_folded_across_churn(self):
        obs = Observability.full()
        world = make_world()
        e1 = spawn(world, 0.0, 0.0)
        e2 = spawn(world, 5.0, 0.0)
        core = GatewayCore(WorldView(world), GatewayConfig(), obs=obs)
        client = TestClient(core, "alice", avatar=e1)
        client.hello()
        world.tick()
        core.tick()
        row = obs.collect_stats()["gateway"]
        assert row["accepted"] == 1
        assert row["ticks"] == 1
        deltas_before = row["deltas_sent"]
        assert deltas_before >= 1
        # Closing the session must not lose its counters.
        client.send(Goodbye("done"))
        assert core.stats()["deltas_sent"] == deltas_before
        core.shutdown()
        assert "gateway" not in obs.collect_stats()

    def test_tick_and_flush_spans_recorded(self):
        obs = Observability.full()
        world = make_world()
        e1 = spawn(world, 0.0, 0.0)
        core = GatewayCore(WorldView(world), GatewayConfig(), obs=obs)
        client = TestClient(core, "alice", avatar=e1)
        client.hello()
        world.tick()
        core.tick()
        names = [span.name for span in obs.recorder.spans()]
        assert "gateway.tick" in names
        assert "gateway.flush" in names

    def test_metrics_gauges_and_histograms(self):
        obs = Observability.full()
        world = make_world()
        e1 = spawn(world, 0.0, 0.0)
        core = GatewayCore(WorldView(world), GatewayConfig(), obs=obs)
        client = TestClient(core, "alice", avatar=e1)
        client.hello()
        world.tick()
        core.tick()
        snapshot = obs.snapshot()
        flat = str(snapshot)
        assert "gateway.clients" in flat
        assert "gateway.tick_ms" in flat
