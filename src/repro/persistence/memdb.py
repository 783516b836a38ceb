"""The in-memory database layer between the game and the backing store.

    "Most games have an in-memory database layer that processes all
    actions, and only writes to the database periodically."

:class:`InMemoryGameDB` is that layer: named tables of records keyed by
id, every mutation journaled to the WAL *before* it is applied
(write-ahead), importance-tagged actions feeding the intelligent
checkpointer, and snapshot/restore hooks the checkpoint manager drives.

Actions are the unit of journaling — a named mutation with a table, key,
and field updates — because recovery semantics in games are phrased in
player actions ("lost the boss kill"), not row images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping

from repro.errors import PersistenceError
from repro.persistence.wal import WriteAheadLog


@dataclass(frozen=True)
class Action:
    """One journaled game action.

    ``op`` is ``put`` (upsert fields), ``delete``, or ``set_row``
    (replace the whole row).  ``importance`` ∈ [0, 1] is the designer
    weight the intelligent checkpointer accumulates.
    """

    op: str
    table: str
    key: int | str
    fields: dict[str, Any] | None = None
    importance: float = 0.0
    tick: int = 0

    def to_payload(self) -> dict[str, Any]:
        """Encode for the WAL."""
        return {
            "op": self.op,
            "t": self.table,
            "k": self.key,
            "f": self.fields,
            "i": self.importance,
            "tick": self.tick,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Action":
        """Decode from a WAL record payload."""
        return cls(
            op=payload["op"],
            table=payload["t"],
            key=payload["k"],
            fields=payload["f"],
            importance=payload.get("i", 0.0),
            tick=payload.get("tick", 0),
        )


class InMemoryGameDB:
    """Journaled in-memory tables.

    All mutation goes through :meth:`apply`, which journals first and
    mutates second — so a crash can lose *recent* actions (bounded by the
    WAL flush policy) but can never apply an unjournaled one.
    """

    def __init__(self, wal: WriteAheadLog):
        self.wal = wal
        self._tables: dict[str, dict[Any, dict[str, Any]]] = {}
        self.actions_applied = 0
        self.applied_lsn = 0

    # -- schema-ish ------------------------------------------------------------------

    def create_table(self, name: str) -> None:
        """Create an empty table (idempotent)."""
        self._tables.setdefault(name, {})

    def tables(self) -> list[str]:
        """All table names."""
        return sorted(self._tables)

    # -- mutation ----------------------------------------------------------------------

    def apply(self, action: Action) -> int:
        """Journal then apply one action; returns its LSN."""
        if action.table not in self._tables:
            raise PersistenceError(f"no table {action.table!r}")
        lsn = self.wal.append(action.to_payload())
        self._apply_unlogged(action)
        self.applied_lsn = lsn
        return lsn

    def put(
        self,
        table: str,
        key: Any,
        fields: Mapping[str, Any],
        importance: float = 0.0,
        tick: int = 0,
    ) -> int:
        """Upsert fields into a row (journaled)."""
        return self.apply(
            Action("put", table, key, dict(fields), importance, tick)
        )

    def delete(self, table: str, key: Any, importance: float = 0.0, tick: int = 0) -> int:
        """Delete a row (journaled)."""
        return self.apply(Action("delete", table, key, None, importance, tick))

    def _apply_unlogged(self, action: Action) -> None:
        table = self._tables[action.table]
        if action.op == "put":
            row = table.setdefault(action.key, {})
            row.update(action.fields or {})
        elif action.op == "set_row":
            table[action.key] = dict(action.fields or {})
        elif action.op == "delete":
            table.pop(action.key, None)
        else:
            raise PersistenceError(f"unknown action op {action.op!r}")
        self.actions_applied += 1

    # -- reads ------------------------------------------------------------------------------

    def get(self, table: str, key: Any) -> dict[str, Any] | None:
        """Row copy, or None."""
        t = self._tables.get(table)
        if t is None:
            raise PersistenceError(f"no table {table!r}")
        row = t.get(key)
        return dict(row) if row is not None else None

    def rows(self, table: str) -> Iterator[tuple[Any, dict[str, Any]]]:
        """Iterate (key, row copy)."""
        t = self._tables.get(table)
        if t is None:
            raise PersistenceError(f"no table {table!r}")
        for key in list(t):
            yield key, dict(t[key])

    def row_count(self, table: str | None = None) -> int:
        """Row count for one table or all."""
        if table is not None:
            return len(self._tables.get(table, {}))
        return sum(len(t) for t in self._tables.values())

    # -- snapshot / restore --------------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Full-state snapshot for checkpointing.

        Tables are encoded as ``[key, row]`` pair lists rather than dicts
        so JSON-encoding checkpoint stores preserve integer keys.
        """
        return {
            "tables": {
                name: [[k, dict(row)] for k, row in t.items()]
                for name, t in self._tables.items()
            },
            "applied_lsn": self.applied_lsn,
        }

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Replace all state from a snapshot."""
        self._tables = {
            name: {k: dict(row) for k, row in pairs}
            for name, pairs in snapshot["tables"].items()
        }
        self.applied_lsn = snapshot.get("applied_lsn", 0)

    def replay(self, actions: Iterable[Action]) -> int:
        """Apply recovered actions without re-journaling; returns count."""
        n = 0
        for action in actions:
            if action.table not in self._tables:
                self._tables[action.table] = {}
            self._apply_unlogged(action)
            n += 1
        return n
