"""Tests for the write-ahead log and the in-memory DB layer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PersistenceError, WALError
from repro.persistence import Action, InMemoryGameDB, WriteAheadLog


class TestWAL:
    def test_lsn_monotonic(self):
        wal = WriteAheadLog()
        lsns = [wal.append({"n": i}) for i in range(5)]
        assert lsns == [1, 2, 3, 4, 5]

    def test_autoflush_per_record(self):
        wal = WriteAheadLog(group_commit=1)
        wal.append({"a": 1})
        assert wal.durable_count() == 1
        assert wal.fsyncs == 1

    def test_group_commit_batches_fsyncs(self):
        wal = WriteAheadLog(group_commit=5)
        for i in range(12):
            wal.append({"n": i})
        assert wal.fsyncs == 2
        assert wal.pending_count() == 2

    def test_crash_loses_unflushed_tail_only(self):
        wal = WriteAheadLog(group_commit=4)
        for i in range(6):
            wal.append({"n": i})
        lost = wal.crash()
        assert lost == 2
        recovered = [r.payload["n"] for r in wal.records()]
        assert recovered == [0, 1, 2, 3]

    def test_flush_then_crash_loses_nothing(self):
        wal = WriteAheadLog(group_commit=100)
        for i in range(5):
            wal.append({"n": i})
        wal.flush()
        assert wal.crash() == 0
        assert wal.durable_count() == 5

    def test_records_from_lsn(self):
        wal = WriteAheadLog()
        for i in range(5):
            wal.append({"n": i})
        tail = [r.payload["n"] for r in wal.records(from_lsn=3)]
        assert tail == [2, 3, 4]

    def test_truncate(self):
        wal = WriteAheadLog()
        for i in range(6):
            wal.append({"n": i})
        removed = wal.truncate_until(4)
        assert removed == 3
        remaining = [r.lsn for r in wal.records()]
        assert remaining == [4, 5, 6]

    def test_corruption_stops_replay(self):
        wal = WriteAheadLog()
        for i in range(4):
            wal.append({"n": i})
        wal.corrupt_tail()
        recovered = [r.payload["n"] for r in wal.records()]
        assert recovered == [0, 1, 2]  # stops before the torn record

    def test_corrupt_empty_raises(self):
        with pytest.raises(WALError):
            WriteAheadLog().corrupt_tail()

    def test_bytes_roundtrip(self):
        wal = WriteAheadLog()
        wal.append({"blob": b"\x00\xff\x10"})
        rec = next(wal.records())
        assert rec.payload["blob"] == b"\x00\xff\x10"

    def test_bad_group_commit(self):
        with pytest.raises(WALError):
            WriteAheadLog(group_commit=0)

    def test_flushed_lsn(self):
        wal = WriteAheadLog(group_commit=10, auto_flush=False)
        wal.append({})
        wal.append({})
        assert wal.flushed_lsn == 0
        wal.flush()
        assert wal.flushed_lsn == 2


class TestMemDB:
    @pytest.fixture
    def db(self):
        db = InMemoryGameDB(WriteAheadLog())
        db.create_table("chars")
        return db

    def test_put_get(self, db):
        db.put("chars", 1, {"gold": 10})
        assert db.get("chars", 1) == {"gold": 10}

    def test_put_merges_fields(self, db):
        db.put("chars", 1, {"gold": 10})
        db.put("chars", 1, {"hp": 5})
        assert db.get("chars", 1) == {"gold": 10, "hp": 5}

    def test_delete(self, db):
        db.put("chars", 1, {"gold": 10})
        db.delete("chars", 1)
        assert db.get("chars", 1) is None

    def test_every_action_journaled_before_apply(self, db):
        db.put("chars", 1, {"gold": 10})
        db.delete("chars", 1)
        payloads = [r.payload["op"] for r in db.wal.records()]
        assert payloads == ["put", "delete"]

    def test_unknown_table(self, db):
        with pytest.raises(PersistenceError):
            db.put("ghosts", 1, {})
        with pytest.raises(PersistenceError):
            db.get("ghosts", 1)

    def test_row_count_and_keys(self, db):
        for i in range(4):
            db.put("chars", i, {"gold": i})
        assert db.row_count("chars") == 4
        assert db.row_count() == 4
        assert [key for key, _row in db.rows("chars")] == [0, 1, 2, 3]

    def test_snapshot_restore_roundtrip(self, db):
        db.put("chars", 1, {"gold": 10})
        snap = db.snapshot()
        db.put("chars", 1, {"gold": 99})
        db.restore(snap)
        assert db.get("chars", 1) == {"gold": 10}

    def test_action_payload_roundtrip(self):
        action = Action("put", "t", "k", {"a": 1}, importance=0.5, tick=7)
        assert Action.from_payload(action.to_payload()) == action

    def test_replay_without_journaling(self, db):
        before = db.wal.next_lsn
        db.replay([Action("put", "chars", 1, {"gold": 3})])
        assert db.get("chars", 1) == {"gold": 3}
        assert db.wal.next_lsn == before

    def test_bad_op_rejected(self, db):
        bad = Action("put", "chars", 1, {})
        object.__setattr__(bad, "op", "explode")
        with pytest.raises(PersistenceError):
            db._apply_unlogged(bad)


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "delete"]),
            st.integers(0, 5),
            st.integers(0, 100),
        ),
        max_size=40,
    ),
    crash_after=st.integers(0, 40),
)
def test_wal_replay_reconstructs_prefix(ops, crash_after):
    """Property: replaying a crashed WAL reproduces the state of exactly
    the first `flushed` actions."""
    wal = WriteAheadLog(group_commit=3)
    db = InMemoryGameDB(wal)
    db.create_table("t")
    applied = []
    for i, (op, key, value) in enumerate(ops):
        if i == crash_after:
            break
        if op == "put":
            db.put("t", key, {"v": value})
        else:
            db.delete("t", key)
        applied.append((op, key, value))
    lost = wal.crash()
    survivors = applied[: len(applied) - lost]
    # rebuild from the log alone
    db2 = InMemoryGameDB(WriteAheadLog())
    db2.create_table("t")
    db2.replay(Action.from_payload(r.payload) for r in wal.records())
    # model
    model = {}
    for op, key, value in survivors:
        if op == "put":
            model[key] = {"v": value}
        else:
            model.pop(key, None)
    assert dict(db2.rows("t")) == model
