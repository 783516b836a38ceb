"""Spliced delta frames are the plain encoding of the same delta.

``InterestStream`` builds each (entity, variant) update once per tick,
shares it across every client's delta and encodes it once into
``entry_texts``; the send queue splices those texts into each frame.
These runs drive a ``WorldView`` and a 2-shard ``ClusterView`` gateway
with a slow reader (its deltas coalesce), a max-radius client (its enter
burst splits under a small frame cap) and a client that resumes mid-run,
and check that

* every delta a send queue encodes is byte-equal to ``encode`` of the
  same ``Delta`` with its ``seq`` — the plain, memo-free path;
* every delta frame a client receives is one of those encodings;
* an update carries this tick's snapshot values, never last tick's text,
  and the memo is empty when a tick begins.
"""

import dataclasses
import random
import struct

import pytest

from repro.cluster import ClusterCoordinator, StaticGridPlacement
from repro.consistency.partition import StaticGridPartitioner
from repro.core import schema
from repro.gateway import (
    BackpressureConfig,
    ClusterView,
    Delta,
    GatewayConfig,
    GatewayCore,
    WorldView,
    framing,
)
from repro.gateway.streams import ClientStreamState, InterestStream
from repro.net.protocol import decode, encode
from repro.spatial.geometry import AABB

from tests.gateway.conftest import FakeClock, TestClient, make_world

HEALTH = schema("Health", hp="int")
REPLICATED = ("Position", "Velocity", "Health")
SIZE = 120.0
ENTITIES = 90
TICKS = 24
FRAME_CAP = 4096


@pytest.fixture
def emitted(monkeypatch):
    """Every ``(delta, seq, payload, texts)`` a send queue encodes."""
    log = []
    real = Delta.encode_as

    def spy(self, seq, texts=None):
        payload = real(self, seq, texts)
        log.append((self, seq, payload, texts))
        return payload

    monkeypatch.setattr(Delta, "encode_as", spy)
    monkeypatch.setattr(framing, "MAX_FRAME_BYTES", FRAME_CAP)
    return log


def _config():
    return GatewayConfig(
        default_radius=20.0,
        max_radius=4 * SIZE,
        backpressure=BackpressureConfig(
            max_queue_bytes=1 << 20, high_watermark=1024, low_watermark=256,
            evict_behind_ticks=1000,
        ),
    )


class _WorldStack:
    def __init__(self):
        self.world = make_world()
        self.world.catalog.define(HEALTH)
        self.core = GatewayCore(
            WorldView(self.world, replicated=REPLICATED), _config(),
            clock=FakeClock(),
        )

    def spawn(self, components):
        return self.world.spawn(**components)

    def world_of(self, eid):
        return self.world

    def tick(self):
        self.world.tick()


class _ClusterStack:
    def __init__(self):
        placement = StaticGridPlacement(
            StaticGridPartitioner(AABB(0.0, 0.0, SIZE, SIZE), 2, 1, 2)
        )
        self.cluster = ClusterCoordinator(
            2, placement,
            [schema("Position", x="float", y="float"),
             schema("Velocity", vx=("float", 0.0), vy=("float", 0.0)), HEALTH],
            seed=3,
        )
        self.core = GatewayCore(
            ClusterView(self.cluster, replicated=REPLICATED), _config(),
            clock=FakeClock(),
        )

    def spawn(self, components):
        return self.cluster.spawn(components)

    def world_of(self, eid):
        host = self.cluster.shard(self.cluster.directory[eid])
        return host.world if host.owns(eid) else None  # mid-handoff

    def tick(self):
        self.cluster.tick()


class _Reader:
    """A client that keeps its raw frames, not just decoded messages."""

    def __init__(self, core, name, avatar, budget=None, **hello):
        self.client = TestClient(core, name, avatar=avatar)
        self.budget = budget
        self.buffer = bytearray()
        self.frames = []
        self.messages = self.client.hello(**hello)
        self.token = self.messages[0].resume_token

    def read(self):
        self.buffer += self.client.transport.drain(self.budget)
        fresh = []
        while len(self.buffer) >= 4:
            (length,) = struct.unpack_from(">I", self.buffer)
            if len(self.buffer) < 4 + length:
                break
            raw = bytes(self.buffer[4:4 + length])
            del self.buffer[:4 + length]
            self.frames.append(raw)
            fresh.append(decode(raw))
        return fresh

    def resume(self, core, name):
        self.client = TestClient(core, name)
        self.buffer.clear()
        self.client.hello(resume=self.token)


def _move(stack, rng, ids):
    """Predictable drift, jumps, steering and non-positional edits."""
    for eid in ids:
        world = stack.world_of(eid)
        if world is None:
            continue
        roll = rng.random()
        pos = world.get(eid, "Position")
        vel = world.get(eid, "Velocity")
        if roll < 0.45:  # on the dead-reckoned track: suppressed
            world.set(eid, "Position", x=pos["x"] + vel["vx"] / 30.0,
                      y=pos["y"] + vel["vy"] / 30.0)
        elif roll < 0.65:  # a jump: the full sample goes out
            world.set(eid, "Position",
                      x=min(SIZE, max(0.0, pos["x"] + rng.uniform(-6, 6))),
                      y=min(SIZE, max(0.0, pos["y"] + rng.uniform(-6, 6))))
        elif roll < 0.8:  # steer on track: the non-positional remainder
            world.set(eid, "Velocity", vx=rng.uniform(-3, 3), vy=vel["vy"])
            world.set(eid, "Position", x=pos["x"] + vel["vx"] / 30.0,
                      y=pos["y"] + vel["vy"] / 30.0)
        elif roll < 0.9:  # non-positional only: a private copy
            world.set(eid, "Health", hp=rng.randrange(100))


def _run(stack, emitted):
    rng = random.Random(11)
    ids = [
        stack.spawn({
            "Position": {"x": rng.uniform(0, SIZE), "y": rng.uniform(0, SIZE)},
            "Velocity": {"vx": rng.uniform(-3, 3), "vy": rng.uniform(-3, 3)},
            "Health": {"hp": 100},
        })
        for _ in range(ENTITIES)
    ]
    core = stack.core
    stream = core.stream
    real_begin = stream.begin_tick

    def begin_tick(observers):
        real_begin(observers)
        assert stream.entry_texts == {} and stream._shared == {}

    stream.begin_tick = begin_tick
    steady = [_Reader(core, f"steady{i}", ids[i]) for i in range(3)]
    slow = _Reader(core, "slow", ids[3], budget=160)
    wide = _Reader(core, "wide", ids[4], aoi_radius=4 * SIZE)
    resumer = _Reader(core, "resumer", ids[5])
    readers = [*steady, slow, wide, resumer]
    checked = 0
    for tick in range(TICKS):
        _move(stack, rng, ids)
        stack.tick()
        if tick == 6:
            core.disconnect(resumer.client.cid)
        if tick == 9:
            resumer.resume(core, "resumer")
        core.tick()
        snap = stream.snapshot
        for reader in readers:
            for msg in reader.read():
                if reader not in steady or not isinstance(msg, Delta):
                    continue
                assert msg.tick == snap.tick
                for eid, fields in msg.updates:
                    if "x" in fields:  # this tick's values, not last tick's
                        assert (fields["x"], fields["y"]) == snap.positions[eid]
                        assert (fields["vx"], fields["vy"]) == \
                            snap.velocities.get(eid, (0.0, 0.0))
                        checked += 1
    assert checked > 100
    return readers


def _assert_splice_equals_plain(readers, emitted):
    spliced = 0
    plain_frames = set()
    for delta, seq, payload, texts in emitted:
        assert payload == encode(dataclasses.replace(delta, seq=seq))
        plain_frames.add(payload)
        if texts:
            spliced += sum(
                1 for _eid, fields in delta.updates
                if texts.get(id(fields), (None,))[0] is fields
            )
    assert spliced > 100
    received = 0
    for reader in readers:
        for raw in reader.frames:
            if raw[1] == 38:  # Delta's wire type id
                assert raw in plain_frames
                received += 1
    assert received > TICKS


def _assert_paths_exercised(core, readers):
    stats = core.stats()
    assert stats["deltas_coalesced"] > 0
    assert stats["resumed"] == 1
    assert stats["updates_suppressed"] > 0
    wide_deltas = [decode(raw) for raw in readers[4].frames if raw[1] == 38]
    first_tick = [d for d in wide_deltas if d.tick == wide_deltas[0].tick]
    assert len(first_tick) > 1  # the enter burst split
    assert [d.seq for d in wide_deltas] == list(range(len(wide_deltas)))


def test_world_view_splice_equals_plain(emitted):
    stack = _WorldStack()
    readers = _run(stack, emitted)
    _assert_splice_equals_plain(readers, emitted)
    _assert_paths_exercised(stack.core, readers)


def test_cluster_view_splice_equals_plain(emitted):
    stack = _ClusterStack()
    readers = _run(stack, emitted)
    _assert_splice_equals_plain(readers, emitted)
    _assert_paths_exercised(stack.core, readers)
    assert stack.cluster.stats().migrations > 0


class TestEntryMemo:
    def _stream(self):
        world = make_world()
        a = world.spawn(Position={"x": 0.0, "y": 0.0})
        b = world.spawn(Position={"x": 1.0, "y": 0.0})
        subject = world.spawn(Position={"x": 5.0, "y": 0.0},
                              Velocity={"vx": 0.0, "vy": 0.0})
        stream = InterestStream(WorldView(world), default_radius=20.0)
        states = {a: ClientStreamState(), b: ClientStreamState()}
        return world, stream, states, subject

    def _tick(self, stream, states):
        stream.begin_tick({20.0: sorted(states)})
        assert stream.entry_texts == {}
        return {obs: stream.delta_for(state, obs) for obs, state in states.items()}

    def test_one_shared_entry_per_tick_never_reused(self):
        world, stream, states, subject = self._stream()
        self._tick(stream, states)  # the enters
        previous = None
        for x in (9.0, 13.0, 2.0):  # jumps: the full sample every tick
            world.set(subject, "Position", x=x, y=0.0)
            deltas = self._tick(stream, states)
            (entry_a,), (entry_b,) = (d.updates for d in deltas.values())
            assert entry_a[1] is entry_b[1]  # shared across clients
            assert entry_a[1] is not previous  # and rebuilt per tick
            previous = entry_a[1]
            for delta in deltas.values():
                data = delta.encode_as(7, stream.entry_texts)
                assert data == encode(dataclasses.replace(delta, seq=7))
                assert dict(decode(data).updates)[subject]["x"] == x

    def test_stale_memo_text_is_never_spliced(self):
        world, stream, states, subject = self._stream()
        self._tick(stream, states)
        world.set(subject, "Position", x=9.0, y=0.0)
        old = next(iter(self._tick(stream, states).values()))
        old_texts = stream.entry_texts
        world.set(subject, "Position", x=11.0, y=0.0)
        new = next(iter(self._tick(stream, states).values()))
        # Last tick's memo cannot speak for this tick's entry, and this
        # tick's memo cannot speak for last tick's.
        assert new.encode_as(0, old_texts) == encode(new)
        assert old.encode_as(0, stream.entry_texts) == encode(old)
        assert dict(decode(new.encode_as(0, old_texts)).updates)[subject]["x"] == 11.0
