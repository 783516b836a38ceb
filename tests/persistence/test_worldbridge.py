"""Tests for WorldPersistence: full GameWorld journal/checkpoint/recover."""

from repro.core import GameWorld, schema
from repro.persistence import (
    EventDrivenPolicy,
    IntervalPolicy,
    SnapshotStore,
    SQLBackingStore,
    WorldPersistence,
    recover_world,
)


def make_world():
    world = GameWorld()
    world.catalog.define(schema("Position", x="float", y="float"))
    world.catalog.define(
        schema("Health", hp=("int", 100), max_hp=("int", 100))
    )
    return world


class TestJournaling:
    def test_every_world_op_journaled(self):
        world = make_world()
        bridge = WorldPersistence(
            world, SnapshotStore(), IntervalPolicy(10 ** 9)
        )
        base = bridge.wal.durable_count()
        eid = world.spawn(Position={"x": 1.0, "y": 2.0}, Health={})
        world.set(eid, "Health", hp=40)
        world.detach(eid, "Health")
        world.destroy(eid)
        # spawn + 2 attach + update + detach(+Position detach) + destroy
        assert bridge.wal.durable_count() - base >= 6

    def test_column_write_journals_one_put_per_changed_cell(self):
        world = make_world()
        store = SnapshotStore()
        bridge = WorldPersistence(world, store, IntervalPolicy(10 ** 9))
        ids = [world.spawn(Health={"hp": 10}) for _ in range(3)]
        base = bridge.wal.durable_count()
        world.set_column("Health", "hp", ids, [10, 20, 30])  # first is noop
        assert bridge.wal.durable_count() - base == 2
        recovered, _ = recover_world(bridge.wal, store)
        assert [recovered.get_field(e, "Health", "hp") for e in ids] == [10, 20, 30]

    def test_close_detaches(self):
        world = make_world()
        bridge = WorldPersistence(
            world, SnapshotStore(), IntervalPolicy(10 ** 9)
        )
        bridge.close()
        count = bridge.wal.durable_count()
        world.spawn(Health={})
        assert bridge.wal.durable_count() == count
        bridge.close()  # idempotent


class TestRecoverWorld:
    def _populate(self, world):
        ids = []
        for i in range(5):
            ids.append(world.spawn(
                Position={"x": float(i), "y": 0.0},
                Health={"hp": 10 * (i + 1)},
            ))
        world.set(ids[0], "Health", hp=7)
        world.detach(ids[1], "Position")
        world.destroy(ids[2])
        return ids

    def test_exact_recovery_after_clean_shutdown(self):
        world = make_world()
        store = SnapshotStore()
        bridge = WorldPersistence(world, store, IntervalPolicy(10 ** 9))
        ids = self._populate(world)
        bridge.wal.flush()
        recovered, report = recover_world(bridge.wal, store)
        assert recovered.exists(ids[0])
        assert not recovered.exists(ids[2])
        assert recovered.get_field(ids[0], "Health", "hp") == 7
        assert not recovered.has(ids[1], "Position")
        assert recovered.get(ids[3], "Position") == {"x": 3.0, "y": 0.0}
        assert recovered.entity_count == world.entity_count

    def test_recovery_through_sql_checkpoint(self):
        world = make_world()
        store = SQLBackingStore()
        bridge = WorldPersistence(
            world, store, IntervalPolicy(1)  # checkpoint every tick's action
        )
        ids = self._populate(world)
        world.run(3)  # advance ticks so interval policy can fire
        world.set(ids[0], "Health", hp=99)
        bridge.wal.flush()
        recovered, _report = recover_world(bridge.wal, store)
        assert recovered.get_field(ids[0], "Health", "hp") == 99

    def test_crash_loses_only_tail(self):
        world = make_world()
        store = SnapshotStore()
        bridge = WorldPersistence(
            world, store, IntervalPolicy(10 ** 9), group_commit=1
        )
        eid = world.spawn(Health={"hp": 50})
        # group_commit=1: everything durable; now buffer one update and crash
        bridge.wal.auto_flush = False
        world.set(eid, "Health", hp=1)
        lost = bridge.wal.crash()
        assert lost == 1
        recovered, _ = recover_world(bridge.wal, store)
        assert recovered.get_field(eid, "Health", "hp") == 50

    def test_recovered_world_is_fully_functional(self):
        world = make_world()
        store = SnapshotStore()
        bridge = WorldPersistence(world, store, IntervalPolicy(10 ** 9))
        self._populate(world)
        bridge.wal.flush()
        recovered, _ = recover_world(bridge.wal, store)
        # schemas survived: new spawns and queries work
        from repro.core import F

        eid = recovered.spawn(Health={"hp": 3})
        assert recovered.query("Health").where("Health", F.hp < 5).execute(mode="tuple").ids == [eid]

    def test_entity_ids_preserved_exactly(self):
        world = make_world()
        store = SnapshotStore()
        bridge = WorldPersistence(world, store, IntervalPolicy(10 ** 9))
        a = world.spawn(Health={})
        world.destroy(a)
        b = world.spawn(Health={})  # recycled slot, new generation
        bridge.wal.flush()
        recovered, _ = recover_world(bridge.wal, store)
        assert recovered.exists(b)
        assert not recovered.exists(a)


class TestImportancePlumbing:
    def test_milestone_forces_checkpoint(self):
        world = make_world()
        store = SnapshotStore()
        bridge = WorldPersistence(
            world, store,
            EventDrivenPolicy(importance_threshold=10.0, instant_threshold=0.9),
        )
        eid = world.spawn(Health={})
        before = bridge.checkpoints_taken
        world.set(eid, "Health", hp=90)  # routine: no checkpoint
        assert bridge.checkpoints_taken == before
        bridge.mark_importance(0.95)
        world.set(eid, "Health", hp=80)  # boss kill: instant checkpoint
        assert bridge.checkpoints_taken == before + 1

    def test_importance_consumed_once(self):
        world = make_world()
        store = SnapshotStore()
        bridge = WorldPersistence(
            world, store,
            EventDrivenPolicy(importance_threshold=10.0, instant_threshold=0.9),
        )
        eid = world.spawn(Health={})
        bridge.mark_importance(0.95)
        world.set(eid, "Health", hp=80)
        taken = bridge.checkpoints_taken
        world.set(eid, "Health", hp=70)  # importance reset to routine
        assert bridge.checkpoints_taken == taken

    def test_column_write_gives_importance_to_its_first_cell(self):
        world = make_world()
        bridge = WorldPersistence(
            world, SnapshotStore(),
            EventDrivenPolicy(importance_threshold=10.0, instant_threshold=0.9),
        )
        ids = [world.spawn(Health={}) for _ in range(3)]
        before = bridge.checkpoints_taken
        bridge.mark_importance(0.95)
        world.set_column("Health", "hp", ids, [80, 70, 60])
        assert bridge.checkpoints_taken == before + 1

    def test_checkpoint_now(self):
        world = make_world()
        bridge = WorldPersistence(
            world, SnapshotStore(), IntervalPolicy(10 ** 9)
        )
        bridge.checkpoint_now()
        assert bridge.checkpoints_taken == 1
