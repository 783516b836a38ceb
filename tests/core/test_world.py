"""Tests for GameWorld entity lifecycle, systems, events, and snapshots."""

import pytest

from repro.core import GameWorld, schema, system
from repro.core.entity import EntityAllocator, pack_id, unpack_id
from repro.errors import (
    ComponentMissingError,
    QueryError,
    UnknownComponentError,
    UnknownEntityError,
)
from tests.change_log import ChangeLog


@pytest.fixture
def world():
    w = GameWorld()
    w.catalog.define(schema("Position", x="float", y="float"))
    w.catalog.define(schema("Health", hp=("int", 100)))
    return w


class TestEntityAllocator:
    def test_pack_unpack_roundtrip(self):
        eid = pack_id(123, 45)
        assert unpack_id(eid) == (123, 45)

    def test_generation_protects_stale_ids(self):
        alloc = EntityAllocator()
        a = alloc.allocate()
        alloc.free(a)
        b = alloc.allocate()  # reuses the slot with a new generation
        assert unpack_id(a)[0] == unpack_id(b)[0]
        assert a != b
        assert not alloc.is_live(a)
        assert alloc.is_live(b)

    def test_double_free_raises(self):
        alloc = EntityAllocator()
        a = alloc.allocate()
        alloc.free(a)
        with pytest.raises(UnknownEntityError):
            alloc.free(a)

    def test_live_count(self):
        alloc = EntityAllocator()
        ids = [alloc.allocate() for _ in range(5)]
        alloc.free(ids[0])
        assert alloc.live_count == 4


class TestEntityLifecycle:
    def test_spawn_with_components(self, world):
        eid = world.spawn(Position={"x": 1.0, "y": 2.0}, Health={})
        assert world.exists(eid)
        assert world.get(eid, "Position") == {"x": 1.0, "y": 2.0}
        assert set(world.components_of(eid)) == {"Position", "Health"}

    def test_destroy_removes_everything(self, world):
        eid = world.spawn(Position={"x": 0.0, "y": 0.0})
        world.destroy(eid)
        assert not world.exists(eid)
        assert len(world.table("Position")) == 0
        with pytest.raises(UnknownEntityError):
            world.get(eid, "Position")

    def test_stale_id_after_respawn(self, world):
        a = world.spawn(Health={})
        world.destroy(a)
        b = world.spawn(Health={})
        assert a != b
        assert not world.exists(a)

    def test_attach_detach(self, world):
        eid = world.spawn(Health={})
        world.attach(eid, "Position", x=1.0, y=1.0)
        assert world.has(eid, "Position")
        row = world.detach(eid, "Position")
        assert row["x"] == 1.0
        assert not world.has(eid, "Position")

    def test_detach_missing_raises(self, world):
        eid = world.spawn(Health={})
        with pytest.raises(ComponentMissingError):
            world.detach(eid, "Position")

    def test_unknown_component_raises(self, world):
        with pytest.raises(UnknownComponentError):
            world.table("Mana")

    def test_double_register_raises(self, world):
        with pytest.raises(UnknownComponentError):
            world.catalog.define(schema("Health", hp=("int", 1)))

    def test_set_returns_delta(self, world):
        eid = world.spawn(Health={"hp": 50})
        delta = world.set(eid, "Health", hp=10)
        assert delta == {"hp": (50, 10)}

    def test_entity_count(self, world):
        ids = [world.spawn(Health={}) for _ in range(3)]
        world.destroy(ids[1])
        assert world.entity_count == 2

    def test_handle_api(self, world):
        h = world.spawn_handle(Health={"hp": 5})
        assert h.alive
        assert h.get("Health", "hp") == 5
        h.set("Health", hp=9)
        assert h["Health"]["hp"] == 9
        h.attach("Position", x=0.0, y=0.0)
        assert "Position" in h.components()
        h.detach("Position")
        h.destroy()
        assert not h.alive


class TestChangeHooks:
    def test_hook_sees_all_ops(self, world):
        log = ChangeLog()
        world.add_change_hook(log)
        eid = world.spawn(Health={"hp": 5})
        world.set(eid, "Health", hp=6)
        world.detach(eid, "Health")
        world.destroy(eid)
        ops = [entry[0] for entry in log.events]
        assert ops == ["spawn", "attach", "update", "detach", "destroy"]

    def test_hook_removal(self, world):
        log = ChangeLog()
        world.add_change_hook(log)
        world.spawn()
        world.remove_change_hook(log)
        world.spawn()
        assert [entry[0] for entry in log.events] == ["spawn"]

    def test_noop_update_emits_nothing(self, world):
        eid = world.spawn(Health={"hp": 5})
        log = ChangeLog()
        world.add_change_hook(log)
        world.set(eid, "Health", hp=5)
        assert log.events == []

    def test_row_only_hook_is_refused(self, world):
        """A hook that cannot take a column event would miss set_column."""
        log = []
        with pytest.raises(TypeError, match="on_column_change"):
            world.add_change_hook(lambda op, e, c, p: log.append(op))
        eid = world.spawn(Health={"hp": 5})
        world.set_column("Health", "hp", [eid], [6])
        assert log == []


class TestSystems:
    def test_function_system_runs_each_tick(self, world):
        runs = []
        world.add_function_system("tick_counter", lambda w, dt: runs.append(w.clock.tick))
        world.run(3)
        assert runs == [1, 2, 3]

    def test_system_interval_throttling(self, world):
        runs = []
        world.add_function_system(
            "slow_ai", lambda w, dt: runs.append(w.clock.tick), interval=3
        )
        world.run(9)
        assert runs == [3, 6, 9]

    def test_priority_order(self, world):
        order = []
        world.add_function_system("b", lambda w, dt: order.append("b"), priority=200)
        world.add_function_system("a", lambda w, dt: order.append("a"), priority=50)
        world.tick()
        assert order == ["a", "b"]

    def test_decorated_function_carries_name_interval_priority(self, world):
        order = []

        @system("late", interval=2, priority=200)
        def late(w, dt):
            order.append(("late", w.clock.tick))

        @system
        def early(w, dt):
            order.append(("early", w.clock.tick))

        world.add_system(late)
        world.add_system(early)
        world.run(2)
        assert world.scheduler.get("late").interval == 2
        assert order == [("early", 1), ("early", 2), ("late", 2)]

    def test_duplicate_name_raises(self, world):
        world.add_function_system("x", lambda w, dt: None)
        with pytest.raises(QueryError):
            world.add_function_system("x", lambda w, dt: None)

    def test_remove_system(self, world):
        world.add_function_system("x", lambda w, dt: None)
        world.scheduler.remove("x")
        with pytest.raises(QueryError):
            world.scheduler.get("x")

    def test_disabled_system_skipped(self, world):
        runs = []
        sys_ = world.add_function_system("x", lambda w, dt: runs.append(1))
        sys_.enabled = False
        world.tick()
        assert runs == []

    def test_per_entity_system(self, world):
        for i in range(5):
            world.spawn(Health={"hp": i})
        touched = []
        world.add_per_entity_system(
            "heal", ["Health"], lambda w, eid, dt: touched.append(eid)
        )
        world.tick()
        assert len(touched) == 5

    def test_batch_system_writes_columns(self, world):
        ids = [
            world.spawn(Position={"x": float(i), "y": 0.0}) for i in range(4)
        ]

        def integrate(w, entity_ids, cols, dt):
            xs = cols["Position.x"]
            return {"Position.x": [x + 1.0 for x in xs]}

        world.add_batch_system("move", ["Position.x", "Position.y"], integrate)
        world.tick()
        for i, eid in enumerate(ids):
            assert world.get_field(eid, "Position", "x") == i + 1.0

    def test_batch_system_bad_write_length(self, world):
        world.spawn(Position={"x": 0.0, "y": 0.0})
        world.add_batch_system(
            "bad", ["Position.x"], lambda w, ids, cols, dt: {"Position.x": []}
        )
        with pytest.raises(QueryError):
            world.tick()

    def test_batch_system_requires_dotted_reads(self, world):
        with pytest.raises(QueryError):
            world.add_batch_system("bad", ["Position"], lambda *a: None)


class TestEventsAndClock:
    def test_emit_stamps_tick(self, world):
        seen = []
        world.events.subscribe("boom", lambda e: seen.append(e.tick))
        world.run(4)
        world.emit("boom")
        assert seen == [4]

    def test_deferred_events_flush_at_tick_end(self, world):
        from repro.core.events import Event

        seen = []
        world.events.subscribe("later", lambda e: seen.append(e.topic))
        world.add_function_system(
            "raiser",
            lambda w, dt: w.events.defer(Event("later")),
        )
        assert seen == []
        world.tick()
        assert seen == ["later"]

    def test_clock_determinism(self, world):
        world.run(10)
        assert world.clock.tick == 10
        assert world.clock.now == pytest.approx(10 * world.clock.dt)


class TestSnapshotRestore:
    def test_roundtrip_preserves_ids_and_state(self, world):
        a = world.spawn(Position={"x": 1.0, "y": 2.0}, Health={"hp": 9})
        b = world.spawn(Health={"hp": 3})
        world.run(5)
        snap = world.snapshot()
        world.set(a, "Health", hp=1)
        world.destroy(b)
        world.restore(snap)
        assert world.get_field(a, "Health", "hp") == 9
        assert world.exists(b)
        assert world.get_field(b, "Health", "hp") == 3
        assert world.clock.tick == 5

    def test_restore_then_spawn_no_id_collision(self, world):
        a = world.spawn(Health={})
        snap = world.snapshot()
        world.restore(snap)
        c = world.spawn(Health={})
        assert c != a
        assert world.exists(a) and world.exists(c)

    def test_snapshot_is_plain_data(self, world):
        world.spawn(Position={"x": 0.0, "y": 0.0})
        import json

        json.dumps(world.snapshot())  # must not raise
