"""The unified stats() surface: StatsRow and the hub's provider registry."""

from repro.core import GameWorld, schema
from repro.obs import Observability, StatsRow
from repro.obs.hub import DISABLED_OBS


class TestStatsRow:
    def test_subclass_columns(self):
        class MyStats(StatsRow):
            COLUMNS = ("a", "b")

        row = MyStats(a=1, b=2)
        assert row == {"a": 1, "b": 2}
        assert row.as_row() == (1, 2)

    def test_adhoc_columns(self):
        row = StatsRow(("x", "y"), x=1, y=2)
        assert row.as_row() == (1, 2)

    def test_missing_column_renders_none(self):
        row = StatsRow(("x", "y"), x=1)
        assert row.as_row() == (1, None)

    def test_default_columns_follow_insertion(self):
        row = StatsRow(b=2, a=1)
        assert row.COLUMNS == ("b", "a")
        assert row.as_row() == (2, 1)

    def test_is_a_snapshot_dict(self):
        row = StatsRow(hits=1)
        assert dict(row) == {"hits": 1}
        assert row["hits"] == 1


class TestProviderRegistry:
    def test_register_and_collect(self):
        obs = Observability()
        obs.register_stats("alpha", lambda: StatsRow(n=1))
        obs.register_stats("beta", lambda: StatsRow(n=2))
        collected = obs.collect_stats()
        assert list(collected) == ["alpha", "beta"]
        assert collected["beta"] == {"n": 2}

    def test_collision_gets_suffix(self):
        obs = Observability()
        first = obs.register_stats("dup", lambda: StatsRow(n=1))
        second = obs.register_stats("dup", lambda: StatsRow(n=2))
        assert first == "dup"
        assert second == "dup#2"
        assert obs.collect_stats()["dup#2"] == {"n": 2}

    def test_unregister(self):
        obs = Observability()
        name = obs.register_stats("gone", lambda: StatsRow(n=1))
        obs.unregister_stats(name)
        assert "gone" not in obs.stats_providers()

    def test_disabled_obs_is_noop(self):
        before = dict(DISABLED_OBS.stats_providers())
        name = DISABLED_OBS.register_stats("x", lambda: StatsRow(n=1))
        assert name == "x"
        assert DISABLED_OBS.stats_providers() == before


class TestSubsystemProviders:
    def test_world_registers_plan_cache(self):
        obs = Observability.metrics_only()
        world = GameWorld(obs=obs)
        world.catalog.define(schema("Health", hp=("int", 100)))
        world.spawn(Health={})
        world.query("Health").execute()
        collected = obs.collect_stats()
        assert "plan_cache" in collected
        assert collected["plan_cache"]["hits"] + collected["plan_cache"]["misses"] >= 1

    def test_plan_cache_stats_snapshot_not_live(self):
        world = GameWorld()
        world.catalog.define(schema("Health", hp=("int", 100)))
        world.spawn(Health={})
        before = world.plan_cache.stats()
        world.query("Health").execute()
        world.query("Health").execute()
        after = world.plan_cache.stats()
        assert after["hits"] + after["misses"] > before["hits"] + before["misses"]

    def test_journal_and_forwarding_stats(self):
        from repro.cluster.migration import ForwardingTable
        from repro.replication.journal import ShardJournal

        table = ForwardingTable()
        table.record_eviction(5, 2)
        table.count_forward()
        row = table.stats()
        assert row.as_row() == (1, 1)

        journal = ShardJournal()
        journal.log_tick(1)
        assert journal.stats()["pending"] == 1
        journal.flush()
        row = journal.stats()
        assert row["pending"] == 0
        assert row["durable"] == 1
        assert row["flushed_lsn"] == 1
