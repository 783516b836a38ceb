"""Tests for the set-at-a-time column fast paths (gather/update_column/
set_column) and their interaction with observers, hooks, and indexes."""

import pytest

from repro.core import F, GameWorld, schema
from repro.core.table import ComponentTable
from repro.errors import ComponentMissingError, SchemaError
from repro.spatial import UniformGrid
from tests.change_log import ChangeLog


@pytest.fixture
def world():
    w = GameWorld()
    w.catalog.define(schema("Position", x="float", y="float"))
    w.catalog.define(schema("Health", hp=("int", 100)))
    return w


class TestGather:
    def test_gather_matches_get_field(self, world):
        ids = [world.spawn(Health={"hp": i}) for i in range(5)]
        got = world.table("Health").gather("hp", ids)
        assert got == [world.get_field(e, "Health", "hp") for e in ids]

    def test_gather_missing_entity(self, world):
        world.spawn(Health={})
        with pytest.raises(ComponentMissingError):
            world.table("Health").gather("hp", [12345])

    def test_gather_unknown_field(self, world):
        eid = world.spawn(Health={})
        with pytest.raises(SchemaError):
            world.table("Health").gather("mana", [eid])

    def test_gather_respects_order(self, world):
        ids = [world.spawn(Health={"hp": i * 10}) for i in range(4)]
        reversed_ids = list(reversed(ids))
        assert world.table("Health").gather("hp", reversed_ids) == [30, 20, 10, 0]


class TestUpdateColumn:
    def test_values_written_and_validated(self):
        table = ComponentTable(schema("P", x="float"))
        table.insert(1, {"x": 0.0})
        table.insert(2, {"x": 0.0})
        changed = table.update_column("x", [1, 2], [5, 6])  # ints coerce
        assert changed == 2
        assert table.get_field(1, "x") == 5.0

    def test_noop_values_not_counted(self):
        table = ComponentTable(schema("P", x=("float", 1.0)))
        table.insert(1, {})
        assert table.update_column("x", [1], [1.0]) == 0

    def test_type_error_raises(self):
        table = ComponentTable(schema("P", x="float"))
        table.insert(1, {"x": 0.0})
        with pytest.raises(SchemaError):
            table.update_column("x", [1], ["far away"])

    def test_observers_receive_deltas(self):
        table = ComponentTable(schema("P", x="float"))
        table.insert(1, {"x": 0.0})
        table.insert(2, {"x": 0.0})
        deltas = []
        table.add_observer(lambda k, e, p: deltas.append((k, e, dict(p))))
        table.update_column("x", [1, 2], [3.0, 0.0])
        assert deltas == [("update", 1, {"x": (0.0, 3.0)})]

    def test_version_bumps_without_observers(self):
        table = ComponentTable(schema("P", x="float"))
        table.insert(1, {"x": 0.0})
        v = table.version
        table.update_column("x", [1], [2.0])
        assert table.version > v


class TestWorldSetColumn:
    def test_indexes_stay_exact(self, world):
        world.index_manager("Position").attach_spatial(UniformGrid(5.0))
        ids = [world.spawn(Position={"x": float(i), "y": 0.0}) for i in range(5)]
        world.set_column("Position", "x", ids, [100.0 + i for i in range(5)])
        assert world.query("Position").within(0.0, 0.0, 10.0).execute(mode="tuple").ids == []
        assert sorted(world.query("Position").within(102.0, 0.0, 3.0).execute(mode="tuple").ids) == sorted(ids)

    def test_aggregates_stay_exact(self, world):
        view = world.create_aggregate("Health", "sum", "hp")
        ids = [world.spawn(Health={"hp": 10}) for _ in range(4)]
        world.set_column("Health", "hp", ids, [1, 2, 3, 4])
        assert view.value() == 10
        assert view.recompute() == 10

    def test_change_hooks_fire_per_changed_entity(self, world):
        ids = [world.spawn(Health={"hp": 10}) for _ in range(3)]
        log = ChangeLog()
        world.add_change_hook(log)
        world.set_column("Health", "hp", ids, [10, 20, 30])  # first is noop
        updates = [entry for entry in log.events if entry[0] == "update"]
        assert len(updates) == 2
        assert updates[0][3] == {"hp": 20}

    def test_no_hooks_fast_path(self, world):
        ids = [world.spawn(Health={"hp": 0}) for _ in range(3)]
        changed = world.set_column("Health", "hp", ids, [5, 5, 5])
        assert changed == 3
        assert world.get_field(ids[2], "Health", "hp") == 5

    def test_batch_system_equivalent_to_per_entity(self, world):
        """The two execution styles must be observationally identical."""
        w_batch = GameWorld()
        w_batch.catalog.define(schema("Position", x="float", y="float"))
        for w in (world, w_batch):
            pass
        ids_a = [world.spawn(Position={"x": float(i), "y": 0.0}) for i in range(6)]
        ids_b = [w_batch.spawn(Position={"x": float(i), "y": 0.0}) for i in range(6)]

        def per_entity(w, eid, dt):
            pos = w.get(eid, "Position")
            w.set(eid, "Position", x=pos["x"] * 2)

        world.add_per_entity_system("double", ["Position"], per_entity)

        def batch(w, ids, cols, dt):
            return {"Position.x": [x * 2 for x in cols["Position.x"]]}

        w_batch.add_batch_system("double", ["Position.x"], batch)
        world.run(3)
        w_batch.run(3)
        xs_a = sorted(world.table("Position").column("x"))
        xs_b = sorted(w_batch.table("Position").column("x"))
        assert xs_a == xs_b


class TestAdvisorPlannerIntegration:
    def test_scans_recorded_then_recommendation(self, world):
        for i in range(10):
            world.spawn(Health={"hp": i})
        for _ in range(12):
            world.query("Health").where("Health", F.hp < 5).execute(mode="tuple").ids
        recs = world.index_advisor.recommend()
        assert ("Health", "hp") in [(c, f) for c, f, _n in recs]

    def test_after_building_index_no_more_misses(self, world):
        for i in range(10):
            world.spawn(Health={"hp": i})
        world.query("Health").where("Health", F.hp < 5).execute(mode="tuple").ids
        missed_before = world.index_advisor.stats()["missed_total"]
        world.index_manager("Health").create_sorted_index("hp")
        world.query("Health").where("Health", F.hp < 5).execute(mode="tuple").ids
        assert world.index_advisor.stats()["missed_total"] == missed_before
        assert world.index_advisor.stats()["served_total"] > 0
