"""Online-migration equivalence: a world altered while ticking must end
bit-identical to a stop-the-world reference, under arbitrary interleaved
mutation — the E22 acceptance property, pinned with hypothesis."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import GameWorld, schema
from repro.schema import AddColumn, DropColumn, RenameColumn, RetypeColumn

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - numpy-less host
    HAVE_NUMPY = False

STEPS = [AddColumn("regen", 0.5), RetypeColumn("hp", "float")]


def build_world(rows=20, seed=3):
    world = GameWorld()
    world.catalog.define(schema("Health", hp=("int", 100), armor=("int", 0)))
    world.catalog.define(schema("Position", x="float", y="float"))
    rng = random.Random(seed)
    for i in range(rows):
        world.spawn(
            Health={"hp": rng.randrange(200), "armor": i % 4},
            Position={"x": float(i), "y": 0.0},
        )

    def drift(w, eid, dt):
        row = w.get(eid, "Position")
        w.set(eid, "Position", x=row["x"] + dt)

    world.add_per_entity_system("drift", ("Position",), drift)
    return world


class TestOnlineOfflineEquivalence:
    def test_hash_matches_stop_the_world_reference(self):
        # Online: alter at tick 3, keep ticking until commit + padding.
        online = build_world()
        for _ in range(3):
            online.tick()
        handle = online.catalog.alter("Health", list(STEPS), batch_rows=4)
        total = 3
        while not handle.done or total < 12:
            online.tick()
            total += 1
        # Reference: same seed, same tick count, no alter — then one
        # stop-the-world migration at the end.
        ref = build_world()
        for _ in range(total):
            ref.tick()
        ref.catalog.alter("Health", list(STEPS), online=False)
        assert online.state_hash() == ref.state_hash()

    def test_hash_matches_with_writes_during_backfill(self):
        def mutate(world, at_tick):
            # Deterministic writes against the *effective* schema: ints
            # for an int column, floats once the retype is in effect.
            as_float = world.catalog.effective_version("Health") >= 2
            for eid in list(world.table("Health").entity_ids)[::3]:
                hp = at_tick * 7 % 150
                world.set(eid, "Health", hp=float(hp) if as_float else hp)

        online = build_world()
        handle = None
        for t in range(14):
            if t == 3:
                handle = online.catalog.alter(
                    "Health", list(STEPS), batch_rows=3
                )
            mutate(online, t)
            online.tick()
        assert handle is not None and handle.done

        ref = build_world()
        for t in range(14):
            if t == 3:
                ref.catalog.alter("Health", list(STEPS), online=False)
            mutate(ref, t)
            ref.tick()
        assert online.state_hash() == ref.state_hash()


ops = st.lists(
    st.one_of(
        st.tuples(st.just("spawn"), st.integers(0, 300)),
        st.tuples(st.just("despawn"), st.integers(0, 30)),
        st.tuples(st.just("set_hp"), st.integers(0, 30), st.integers(0, 300)),
        st.tuples(st.just("tick"), st.just(0)),
    ),
    min_size=4,
    max_size=30,
)


def drive(world, script, steps, alter_at, batch_rows):
    """Run one op script; the online world alters mid-script."""
    ids = [
        world.spawn(Health={"hp": i * 13 % 256, "armor": i % 3},
                    Position={"x": float(i), "y": 0.0})
        for i in range(8)
    ]
    altered = None
    for i, op in enumerate(script):
        if i == alter_at and steps is not None:
            altered = world.catalog.alter(
                "Health", list(steps), batch_rows=batch_rows
            )
        kind = op[0]
        if kind == "spawn":
            fields = world.catalog.describe("Health")["fields"]
            fname = "hp" if "hp" in fields else "health"
            payload = {
                fname: float(op[1]) if fields[fname] == "float" else op[1]
            }
            if "armor" in fields:
                payload["armor"] = 1
            ids.append(world.spawn(
                Health=payload,
                Position={"x": float(op[1]), "y": 1.0},
            ))
        elif kind == "despawn":
            idx = op[1] % len(ids)
            eid = ids[idx]
            if world.exists(eid):
                world.destroy(eid)
        elif kind == "set_hp":
            eid = ids[op[1] % len(ids)]
            if world.exists(eid) and world.has(eid, "Health"):
                # Write against the effective schema: the field may have
                # been renamed or retyped by the in-flight alter.
                fields = world.catalog.describe("Health")["fields"]
                fname = "hp" if "hp" in fields else "health"
                value = float(op[2]) if fields[fname] == "float" else op[2]
                world.set(eid, "Health", **{fname: value})
        elif kind == "tick":
            world.tick()
    if steps is not None and altered is None:
        # alter_at landed past the script's end: alter now.
        altered = world.catalog.alter(
            "Health", list(steps), batch_rows=batch_rows
        )
    # Drain any unfinished backfill.
    while altered is not None and not altered.done:
        world.tick()
    return world


class TestMixedVersionTicksProperty:
    @settings(max_examples=40, deadline=None)
    @given(script=ops, alter_at=st.integers(0, 29), batch_rows=st.integers(1, 7))
    def test_converges_to_offline_hash(self, script, alter_at, batch_rows):
        online = drive(build_world(rows=0), script, STEPS, alter_at, batch_rows)
        offline = drive(build_world(rows=0), script, None, alter_at, batch_rows)
        offline.catalog.alter("Health", list(STEPS), online=False)
        # The offline world ticked fewer times only if backfill drain
        # added ticks; re-sync the clocks before hashing.
        while offline.clock.tick < online.clock.tick:
            offline.tick()
        while online.clock.tick < offline.clock.tick:
            online.tick()
        assert online.state_hash() == offline.state_hash()

    @settings(max_examples=25, deadline=None)
    @given(script=ops, alter_at=st.integers(0, 29))
    def test_drop_and_rename_converge(self, script, alter_at):
        steps = [RenameColumn("hp", "health"), DropColumn("armor")]
        online = drive(build_world(rows=0), script, steps, alter_at, 2)
        offline = drive(build_world(rows=0), script, None, alter_at, 2)
        offline.catalog.alter("Health", list(steps), online=False)
        while offline.clock.tick < online.clock.tick:
            offline.tick()
        while online.clock.tick < offline.clock.tick:
            online.tick()
        assert online.state_hash() == offline.state_hash()


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not importable")
class TestNumpyRetypeBitExact:
    def test_int_to_float_is_bit_exact(self):
        import numpy as np

        world = GameWorld()
        world.catalog.define(schema("V", n="int"))
        values = [0, 1, -1, 2**31 - 1, -(2**31), 2**53, 17]
        ids = [world.spawn(V={"n": v}) for v in values]
        h = world.catalog.alter("V", [RetypeColumn("n", "float")], batch_rows=2)
        while not h.done:
            world.tick()
        for eid, v in zip(ids, values):
            got = world.get_field(eid, "V", "n")
            assert type(got) is float and got == np.float64(v) == float(v)
