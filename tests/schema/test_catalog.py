"""The Catalog façade: define/alter/describe, dual-version reads, plan
and index invalidation, and the deprecation shim."""

import pytest

from repro.core import GameWorld, schema
from repro.errors import IndexError_, SchemaError, UnknownComponentError
from repro.schema import (
    AddColumn,
    DropColumn,
    RenameColumn,
    RetypeColumn,
    SplitColumn,
    TransformColumn,
)


def make_world(rows=10):
    world = GameWorld()
    world.catalog.define(schema("Health", hp=("int", 100), armor=("int", 0)))
    world.catalog.define(schema("Position", x="float", y="float"))
    eids = [
        world.spawn(
            Health={"hp": i, "armor": i % 3},
            Position={"x": float(i), "y": 0.0},
        )
        for i in range(rows)
    ]
    return world, eids


class TestDefine:
    def test_define_by_name_and_specs(self):
        world = GameWorld()
        world.catalog.define("Mana", mp=("int", 50))
        assert world.catalog.version_of("Mana") == 1
        eid = world.spawn(Mana={})
        assert world.get(eid, "Mana") == {"mp": 50}

    def test_specs_with_prebuilt_schema_rejected(self):
        world = GameWorld()
        with pytest.raises(SchemaError):
            world.catalog.define(schema("Mana", mp="int"), extra="float")

    def test_describe(self):
        world, _ = make_world(3)
        desc = world.catalog.describe("Health")
        assert desc["version"] == 1
        assert desc["target_version"] is None
        assert desc["fields"] == {"hp": "int", "armor": "int"}
        assert desc["rows"] == 3
        assert set(world.catalog.describe()) == {"Health", "Position"}

    def test_unknown_component(self):
        world = GameWorld()
        with pytest.raises(UnknownComponentError):
            world.catalog.alter("Nope", [DropColumn("x")])


class TestOnlineAlter:
    def test_logical_switch_is_immediate(self):
        world, eids = make_world()
        world.catalog.alter(
            "Health", [AddColumn("regen", 0.5), RetypeColumn("hp", "float")],
            batch_rows=2,
        )
        # No backfill has run, yet every read sees the target schema.
        assert world.get(eids[7], "Health") == {
            "hp": 7.0, "armor": 1, "regen": 0.5,
        }
        assert world.catalog.version_of("Health") == 1
        assert world.catalog.effective_version("Health") == 2

    def test_backfill_commits_over_ticks(self):
        world, _ = make_world(10)
        handle = world.catalog.alter(
            "Health", [AddColumn("regen", 0.5)], batch_rows=4
        )
        ticks = 0
        while not handle.done:
            world.tick()
            ticks += 1
        assert ticks == 3  # ceil(10 / 4)
        assert handle.rows_migrated == 10
        assert world.catalog.version_of("Health") == 2
        assert world.table("Health").unmigrated_count == 0

    def test_writes_never_block_and_land_migrated(self):
        world, eids = make_world()
        world.catalog.alter("Health", [RetypeColumn("hp", "float")], batch_rows=1)
        world.set(eids[9], "Health", hp=55)
        assert world.get_field(eids[9], "Health", "hp") == 55.0
        # The write materialized the row: it no longer needs backfill.
        remaining = world.table("Health").unmigrated_count
        assert remaining == len(eids) - 1

    def test_inserts_are_born_migrated(self):
        world, _ = make_world(4)
        world.catalog.alter("Health", [AddColumn("regen", 2.0)], batch_rows=1)
        eid = world.spawn(Health={"hp": 1})
        assert world.get(eid, "Health")["regen"] == 2.0
        assert world.table("Health").unmigrated_count == 4

    def test_derive_and_split(self):
        world, eids = make_world(5)
        handle = world.catalog.alter(
            "Position",
            [SplitColumn("x", into=("gx", "lx"), exprs=("x // 10", "x % 10"))],
            online=False,
        )
        assert handle.done
        assert world.get(eids[3], "Position") == {"y": 0.0, "gx": 0.0, "lx": 3.0}

    def test_concurrent_alter_rejected(self):
        world, _ = make_world()
        world.catalog.alter("Health", [AddColumn("regen", 0.0)], batch_rows=1)
        with pytest.raises(SchemaError):
            world.catalog.alter("Health", [DropColumn("armor")])

    def test_empty_and_unbackfillable_rejected(self):
        world, _ = make_world()
        with pytest.raises(SchemaError):
            world.catalog.alter("Health", [])
        with pytest.raises(SchemaError):
            # no default, no derivation, not nullable: nothing to backfill
            world.catalog.alter("Health", [AddColumn("mystery")])

    def test_transform_works_locally(self):
        world, eids = make_world(3)
        world.catalog.alter(
            "Health",
            [TransformColumn("hp", lambda r: r["hp"] + 100)],
            online=False,
        )
        assert world.get_field(eids[2], "Health", "hp") == 102

    def test_offline_matches_online_rows(self):
        online, eids = make_world(8)
        offline, _ = make_world(8)
        steps = [AddColumn("regen", 0.5), RetypeColumn("hp", "float")]
        h = online.catalog.alter("Health", list(steps), batch_rows=3)
        while not h.done:
            online.tick()
        offline.catalog.alter("Health", list(steps), online=False)
        for eid in eids:
            assert online.get(eid, "Health") == offline.get(eid, "Health")


class TestStaleWritesToDroppedFields:
    """Regression: a stale plan writing a dropped field must get a typed
    SchemaError, not silent corruption (the bug this PR fixes)."""

    def test_set_rejected(self):
        world, eids = make_world()
        world.catalog.alter("Health", [DropColumn("armor")], batch_rows=1)
        with pytest.raises(SchemaError):
            world.set(eids[0], "Health", armor=9)

    def test_batch_column_write_rejected(self):
        world, eids = make_world()
        world.catalog.alter("Health", [DropColumn("armor")], batch_rows=1)
        with pytest.raises(SchemaError):
            world.table("Health").update_column("armor", [eids[0]], [9])

    def test_renamed_field_old_name_rejected(self):
        world, eids = make_world()
        world.catalog.alter("Health", [RenameColumn("hp", "health")], batch_rows=1)
        with pytest.raises(SchemaError):
            world.set(eids[0], "Health", hp=1)
        world.set(eids[0], "Health", health=1)  # new name works


class TestInvalidation:
    def test_plan_cache_invalidates_on_catalog_bump(self):
        from repro.core import F

        world, _ = make_world(6)
        query = world.query("Health").where("Health", F.hp >= 0)
        query.execute()
        query.execute()
        assert world.plan_cache.stats()["hits"] >= 1
        world.catalog.alter("Health", [AddColumn("regen", 0.1)], online=False)
        query.execute()
        assert world.plan_cache.stats()["invalidations"] >= 1

    def test_indexes_over_affected_fields_drop(self):
        world, _ = make_world(6)
        mgr = world.index_manager("Health")
        mgr.create_sorted_index("hp")
        before = mgr.catalog_version
        world.catalog.alter("Health", [RetypeColumn("hp", "float")], batch_rows=2)
        assert mgr.catalog_version > before
        assert "hp" not in mgr._sorted

    def test_index_creation_refused_mid_transition(self):
        world, _ = make_world(6)
        world.catalog.alter("Health", [RetypeColumn("hp", "float")], batch_rows=1)
        with pytest.raises(IndexError_):
            world.index_manager("Health").create_sorted_index("hp")

    def test_unaffected_indexes_survive(self):
        world, _ = make_world(6)
        mgr = world.index_manager("Health")
        mgr.create_sorted_index("armor")
        world.catalog.alter("Health", [RetypeColumn("hp", "float")], online=False)
        assert "armor" in mgr._sorted


class TestStats:
    def test_counters_accumulate(self):
        world, _ = make_world(6)
        h = world.catalog.alter("Health", [AddColumn("regen", 0.0)], batch_rows=4)
        while not h.done:
            world.tick()
        row = world.catalog.stats()
        assert row["components"] == 2
        assert row["alters_started"] == 1
        assert row["alters_committed"] == 1
        assert row["rows_migrated"] == 6
        assert row["active_alters"] == 0
