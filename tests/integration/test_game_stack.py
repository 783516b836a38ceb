"""Integration tests across the full stack: world -> scripting -> spatial
-> persistence."""

import pytest

from repro.core import F, GameWorld, schema
from repro.persistence import (
    Action,
    CheckpointManager,
    EventDrivenPolicy,
    InMemoryGameDB,
    SQLBackingStore,
    WriteAheadLog,
    recover,
    verify_recovery,
)
from repro.scripting import CompiledScript, Interpreter, build_stdlib
from repro.spatial import UniformGrid
from tests.change_log import ChangeLog


ORC = {
    "Health": {"hp": 30, "max_hp": 30},
    "Position": {"x": 0.0, "y": 0.0},
    "Faction": {},
}
TROLL = {**ORC, "Health": {"hp": 60, "max_hp": 60}}


def spawn(world, kind, **position):
    """One monster of ``kind``, placed at ``position`` over its default."""
    components = {name: dict(fields) for name, fields in kind.items()}
    components["Position"].update(position)
    return world.spawn(**components)


@pytest.fixture
def game():
    """A small but complete game: world, indexes, scripts."""
    world = GameWorld()
    world.catalog.define(schema("Position", x="float", y="float"))
    world.catalog.define(
        schema("Health", hp=("int", 100), max_hp=("int", 100))
    )
    world.catalog.define(schema("Faction", name=("str", "hostile")))
    world.index_manager("Position").attach_spatial(UniformGrid(10.0))
    world.index_manager("Health").create_sorted_index("hp")
    return world


class TestContentToWorld:
    def test_template_spawn_visible_to_queries(self, game):
        world = game
        for i in range(5):
            spawn(world, ORC, x=float(i * 5))
        spawn(world, TROLL)
        weak = world.query("Health").where("Health", F.hp < 50).count()
        assert weak == 5

    def test_spatial_query_after_template_spawn(self, game):
        world = game
        near = spawn(world, ORC, x=1.0, y=1.0)
        spawn(world, ORC, x=90.0, y=90.0)
        hits = world.query("Position").within(0, 0, 5).execute(mode="tuple").ids
        assert hits == [near]


class TestScriptedCombatLoop:
    def test_script_system_drives_combat(self, game):
        world = game
        for i in range(10):
            spawn(world, ORC, x=float(i))
        interp = Interpreter(world, build_stdlib(world))
        poison = CompiledScript(
            'for e in entities("Health"):\n'
            " e.hp = e.hp - 5\n"
            "end"
        )
        world.add_function_system(
            "poison", lambda w, dt: interp.run(poison)
        )
        world.run(3)
        hps = {world.get_field(e, "Health", "hp") for e in world.entities()}
        assert hps == {15}

    def test_aggregate_view_tracks_scripted_damage(self, game):
        world = game
        for _ in range(4):
            spawn(world, ORC)
        avg = world.create_aggregate("Health", "avg", "hp")
        assert avg.value() == 30
        interp = Interpreter(world, build_stdlib(world))
        interp.run(CompiledScript(
            'for e in entities("Health"):\n e.hp = e.hp - 10\nend'
        ))
        assert avg.value() == 20
        assert avg.recompute() == 20


class TestWorldPersistenceBridge:
    def test_world_changes_journal_and_recover(self, game):
        world = game
        wal = WriteAheadLog(group_commit=1)
        db = InMemoryGameDB(wal)
        db.create_table("entities")

        log = ChangeLog()
        world.add_change_hook(log)
        ids = [spawn(world, ORC) for _ in range(3)]
        for eid in ids:
            world.set(eid, "Health", hp=7)
        for op, entity_id, component, payload in log.events:
            if op == "update" and component == "Health":
                db.put("entities", entity_id, dict(payload), tick=world.clock.tick)
        recovered, _report = recover(wal, SQLBackingStore())
        for eid in ids:
            assert recovered.get("entities", eid) == {"hp": 7}

    def test_checkpoint_cycle_through_sql(self, game):
        wal = WriteAheadLog()
        db = InMemoryGameDB(wal)
        db.create_table("players")
        store = SQLBackingStore()
        mgr = CheckpointManager(
            db, store, EventDrivenPolicy(importance_threshold=0.5)
        )
        for t in range(50):
            mgr.record(Action(
                "put", "players", t % 4, {"x": t},
                importance=0.02, tick=t,
            ))
        assert mgr.stats.checkpoints >= 1
        wal.flush()
        recovered, report = recover(wal, store)
        assert verify_recovery(recovered, db) == []


class TestSnapshotDeterminism:
    def test_snapshot_equals_replayed_world(self, game):
        """Determinism end-to-end: run the same scripted world twice and
        compare snapshots."""

        def build():
            world = GameWorld()
            world.catalog.define(schema("Position", x="float", y="float"))
            world.catalog.define(schema("Health", hp=("int", 100)))
            interp = Interpreter(world, build_stdlib(world))
            drift = CompiledScript(
                'for e in entities("Position"):\n'
                " e.x = e.x + 1.0\n"
                " e.hp = e.hp - 1\n"
                "end"
            )
            for i in range(6):
                world.spawn(Position={"x": float(i), "y": 0.0}, Health={})
            world.add_function_system("drift", lambda w, dt: interp.run(drift))
            world.run(10)
            return world.snapshot()

        assert build() == build()
