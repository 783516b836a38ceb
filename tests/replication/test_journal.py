"""Unit tests for the shard journal and its replay half."""

import pytest

from repro.core import GameWorld
from repro.errors import ReplicationError
from repro.replication import ShardJournal, apply_record
from repro.workloads import cluster_schemas


def make_world():
    world = GameWorld()
    for schema in cluster_schemas():
        world.catalog.define(schema)
    return world


def replay_all(journal, world):
    """Apply every durable journal record; returns (owned, applied_txns)."""
    owned, txns = set(), set()
    for _lsn, payload in journal.ship_since(0):
        apply_record(payload, world, owned, txns)
    return owned, txns


class TestShardJournal:
    def test_flush_is_the_durability_boundary(self):
        journal = ShardJournal()
        journal.log_own(1)
        journal.log_change("spawn", 1, None, None)
        assert journal.flushed_lsn == 0
        assert journal.ship_since(0) == ()
        journal.flush()
        assert journal.flushed_lsn == 2
        assert len(journal.ship_since(0)) == 2

    def test_ship_since_is_exclusive(self):
        journal = ShardJournal()
        for entity in (1, 2, 3):
            journal.log_own(entity)
        journal.flush()
        tail = journal.ship_since(2)
        assert [lsn for lsn, _ in tail] == [3]
        assert tail[0][1] == {"op": "own", "e": 3}

    def test_update_records_carry_values(self):
        journal = ShardJournal()
        journal.log_change("update", 5, "Position", {"x": 1.0, "y": 2.0})
        journal.log_change("detach", 5, "Position", None)
        journal.flush()
        (_, update), (_, detach) = journal.ship_since(0)
        assert update == {"op": "update", "e": 5, "c": "Position",
                          "v": {"x": 1.0, "y": 2.0}}
        assert detach == {"op": "detach", "e": 5, "c": "Position"}

    def test_column_event_is_one_record(self):
        journal = ShardJournal()
        journal.on_column_change("Position", "x", (5, 6), [1.0, 2.0])
        journal.flush()
        ((_, record),) = journal.ship_since(0)
        assert record == {"op": "column", "c": "Position", "f": "x",
                          "e": [5, 6], "v": [1.0, 2.0]}


class TestApplyRecord:
    def test_change_stream_reconstructs_world(self):
        """A standby that replays the journal reaches the exact state —
        the state-hash equality all of replication rests on."""
        src = make_world()
        journal = ShardJournal()
        src.add_change_hook(journal.log_change)
        a = src.spawn(Position={"x": 1.0, "y": 2.0}, Wealth={"gold": 10})
        b = src.spawn(Position={"x": 9.0, "y": 9.0}, Wealth={"gold": 20})
        src.set(a, "Position", x=3.5)
        src.set(b, "Wealth", gold=15)
        src.detach(b, "Wealth")
        src.destroy(a)
        journal.flush()

        standby = make_world()
        replay_all(journal, standby)
        assert standby.state_hash() == src.state_hash()
        assert standby.get(b, "Position")["y"] == 9.0

    def test_column_record_replays_bit_identical(self):
        """One column record per set_column; replay changes the same
        cells, repeated ids included, so hash and version both match."""
        src = make_world()
        journal = ShardJournal()
        src.add_change_hook(journal.log_change)
        a = src.spawn(Position={"x": 1.0, "y": 2.0})
        b = src.spawn(Position={"x": 9.0, "y": 9.0})
        before = journal.wal.next_lsn
        src.set_column("Position", "x", [a, b, a, b], [4, 9.0, 5.5, -0.0])
        assert journal.wal.next_lsn == before + 1
        journal.flush()

        standby = make_world()
        replay_all(journal, standby)
        assert standby.state_hash() == src.state_hash()
        assert (standby.table("Position").version
                == src.table("Position").version)
        assert repr(standby.get_field(b, "Position", "x")) == "-0.0"

    def test_ownership_and_txn_markers(self):
        journal = ShardJournal()
        journal.log_own(7)
        journal.log_own(8)
        journal.log_disown(7)
        journal.log_txn(42, True)
        journal.flush()
        owned, txns = replay_all(journal, make_world())
        assert owned == {8}
        assert txns == {42}

    def test_tick_marker_advances_the_standby_clock(self):
        src = make_world()
        journal = ShardJournal()
        src.add_change_hook(journal.log_change)
        src.spawn(Position={"x": 0.0, "y": 0.0})
        journal.log_tick(13)
        journal.flush()
        standby = make_world()
        replay_all(journal, standby)
        assert standby.clock.tick == 13
        assert standby.state_hash() != src.state_hash()  # clocks differ

    def test_unknown_op_raises(self):
        with pytest.raises(ReplicationError):
            apply_record({"op": "vacuum"}, make_world(), set(), set())
