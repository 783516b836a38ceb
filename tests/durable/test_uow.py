"""Unit-of-work semantics: CAS, bounded retry, atomicity with the outbox."""

import pytest

from repro.durable import DurableStore, SqlUnitOfWork, run_unit
from repro.errors import (
    ConflictError,
    DurableError,
    RetriesExhaustedError,
    SQLError,
)


@pytest.fixture
def store():
    return DurableStore()


class TestBasics:
    def test_commit_creates_entity_with_version_one(self, store):
        uow = SqlUnitOfWork(store)
        uow.put(1, {"gold": 10})
        receipt = uow.commit()
        assert receipt.writes == 1
        assert store.read_entity(1) == ({"gold": 10}, 1)

    def test_versions_increment_per_commit(self, store):
        for gold in (10, 20, 30):
            uow = SqlUnitOfWork(store)
            uow.update(1, gold=gold)
            uow.commit()
        assert store.read_entity(1) == ({"gold": 30}, 3)

    def test_get_returns_none_for_missing(self, store):
        assert SqlUnitOfWork(store).get(99) is None

    def test_update_merges_fields(self, store):
        uow = SqlUnitOfWork(store)
        uow.put(1, {"gold": 10, "hp": 50})
        uow.commit()
        uow2 = SqlUnitOfWork(store)
        uow2.update(1, hp=40)
        uow2.commit()
        assert store.read_entity(1)[0] == {"gold": 10, "hp": 40}

    def test_double_commit_rejected(self, store):
        uow = SqlUnitOfWork(store)
        uow.put(1, {"gold": 1})
        uow.commit()
        with pytest.raises(DurableError):
            uow.commit()

    def test_read_only_unit_commits_nothing(self, store):
        uow = SqlUnitOfWork(store)
        uow.put(1, {"gold": 1})
        uow.commit()
        reader = SqlUnitOfWork(store)
        reader.get(1)
        receipt = reader.commit()
        assert receipt.writes == 0
        # A read-only footprint never conflicts with later writers.
        assert store.read_entity(1) == ({"gold": 1}, 1)


class TestCas:
    def test_interleaved_writers_conflict(self, store):
        first = SqlUnitOfWork(store)
        first.update(1, gold=10)
        first.commit()
        a = SqlUnitOfWork(store)
        b = SqlUnitOfWork(store)
        a.update(1, gold=11)
        b.update(1, gold=12)
        a.commit()
        with pytest.raises(ConflictError) as exc:
            b.commit()
        assert exc.value.entity == 1
        assert exc.value.found == exc.value.expected + 1
        # The loser wrote nothing: state is the winner's.
        assert store.read_entity(1)[0] == {"gold": 11}

    def test_conflict_writes_nothing_including_events(self, store):
        seed = SqlUnitOfWork(store)
        seed.put(1, {"gold": 10})
        seed.commit()
        winner = SqlUnitOfWork(store)
        loser = SqlUnitOfWork(store)
        winner.update(1, gold=11)
        loser.update(1, gold=12)
        loser.emit("spent", entity=1, key="x")
        winner.commit()
        with pytest.raises(ConflictError):
            loser.commit()
        assert store.outbox_pending() == 0

    def test_blind_write_still_guarded(self, store):
        seed = SqlUnitOfWork(store)
        seed.put(1, {"gold": 10})
        seed.commit()
        blind = SqlUnitOfWork(store)
        blind.put(1, {"gold": 99})  # no prior get()
        racer = SqlUnitOfWork(store)
        racer.update(1, gold=11)
        racer.commit()
        with pytest.raises(ConflictError):
            blind.commit()

    def test_conflicts_counted(self, store):
        seed = SqlUnitOfWork(store)
        seed.put(1, {"gold": 0})
        seed.commit()
        a, b = SqlUnitOfWork(store), SqlUnitOfWork(store)
        a.update(1, gold=1)
        b.update(1, gold=2)
        a.commit()
        with pytest.raises(ConflictError):
            b.commit()
        assert store.conflicts == 1


class TestRetry:
    def test_run_unit_retries_to_success(self, store):
        seed = SqlUnitOfWork(store)
        seed.put(1, {"gold": 0})
        seed.commit()
        calls = {"n": 0}

        def contended(uow):
            calls["n"] += 1
            state = uow.get(1)
            if calls["n"] == 1:
                # Sneak a competing commit in after the read.
                racer = SqlUnitOfWork(store)
                racer.update(1, gold=100)
                racer.commit()
            uow.put(1, {"gold": state["gold"] + 1})

        run_unit(store, contended)
        assert calls["n"] == 2
        # The retry re-read, so the racer's write is preserved.
        assert store.read_entity(1)[0] == {"gold": 101}

    def test_retries_exhausted_reports_last_conflict(self, store):
        seed = SqlUnitOfWork(store)
        seed.put(1, {"gold": 0})
        seed.commit()

        def always_loses(uow):
            state = uow.get(1)
            racer = SqlUnitOfWork(store)
            racer.update(1, gold=state["gold"] + 100)
            racer.commit()
            uow.put(1, {"gold": state["gold"] + 1})

        with pytest.raises(RetriesExhaustedError) as exc:
            run_unit(store, always_loses, retries=3)
        assert exc.value.attempts == 3
        assert isinstance(exc.value.last, ConflictError)

    def test_zero_retries_rejected(self, store):
        with pytest.raises(DurableError):
            run_unit(store, lambda uow: None, retries=0)


class TestEventsRideTheCommit:
    def test_event_written_with_state_change(self, store):
        uow = SqlUnitOfWork(store)
        uow.put(1, {"hp": 9})
        uow.emit("hit", entity=1, key="h1", dmg=1)
        uow.commit()
        rows = store.undispatched()
        assert len(rows) == 1
        assert rows[0]["dedup"] == "1:hit:h1"

    def test_duplicate_dedup_key_is_idempotent(self, store):
        for _ in range(2):
            uow = SqlUnitOfWork(store)
            uow.update(1, hp=1)
            uow.emit("spawn", entity=1, key="once")
            uow.commit()
        assert store.outbox_pending() == 1

    def test_commit_span_emitted_when_tracing(self):
        from repro.obs import Observability

        obs = Observability.full()
        store = DurableStore(obs=obs)
        uow = SqlUnitOfWork(store)
        uow.put(1, {"gold": 1})
        uow.commit()
        names = [s.name for s in obs.recorder.spans()]
        assert "uow.commit" in names


class TestProjectionIsTyped:
    @staticmethod
    def strict_tables(store):
        rows = store.engine.execute("PRAGMA table_list")
        return {
            r["name"]: r["strict"] for r in rows
            if r["schema"] == "main" and not r["name"].startswith("sqlite_")
        }

    def test_every_projection_table_is_strict_after_recovery_too(self, store):
        expected = {"entities": 1, "outbox": 1, "leases": 1}
        assert self.strict_tables(store) == expected
        store.crash()
        store.recover()
        assert self.strict_tables(store) == expected

    def test_wrong_typed_value_is_refused_before_it_lands(self, store):
        uow = SqlUnitOfWork(store)
        uow.put(1, {"gold": 1})
        uow.commit()
        with pytest.raises(SQLError, match="cannot store TEXT"):
            store.engine.execute(
                "UPDATE entities SET row_version = ? WHERE entity = ?",
                ("2; DELETE FROM entities", 1),
            )
        assert store.entity_version(1) == 1
