"""The SQL bridge — game state written through an embedded SQL database.

    "MMOs use commercial databases for persistence and to recover from
    server crashes. … they need to ensure that the bridge between the
    client software and the SQL code is robust enough to handle changes
    in each."

Since the sandbox has no commercial database, the stand-in is SQLite,
which ships with Python.  :class:`SQLEngine` wraps one in-memory
connection behind the small surface the persistence tier reads:
``execute(sql, params)`` returning rows as dicts, a statement counter
and the affected-row count.  Parameters travel separately as ``?``
placeholders — the robust half of the bridge — and tables are declared
``STRICT``, so a wrong-typed value is refused before it lands.  Every
database error surfaces as :class:`~repro.errors.SQLError`.

The database holds a projection only: the tier's own write-ahead log is
the durability point, so the connection lives in memory and a crash
simply drops it.

:class:`SQLBackingStore` implements the :class:`~repro.persistence.
checkpoint.BackingStore` protocol over the same engine, so checkpoints
genuinely flow through SQL — as the tutorial describes.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from repro.errors import SQLError


class SQLEngine:
    """One in-memory SQLite connection; ``execute`` returns result rows."""

    def __init__(self) -> None:
        # Imported here, not at module top: the import costs about a
        # megabyte of resident memory, and most processes importing the
        # persistence tier never open a database.
        import sqlite3

        self._conn = sqlite3.connect(":memory:", isolation_level=None)
        self._errors = (sqlite3.Error, OverflowError)
        self.statements_executed = 0
        #: Rows affected by the most recent INSERT/UPDATE/DELETE (rows
        #: returned, for SELECT) — the signal optimistic CAS reads to
        #: learn whether its guarded UPDATE actually landed.
        self.rowcount = 0

    def execute(
        self, sql: str, params: Sequence[Any] = ()
    ) -> list[dict[str, Any]]:
        """Run one statement; SELECTs return rows, others return []."""
        self.statements_executed += 1
        try:
            cursor = self._conn.execute(sql, params)
            description = cursor.description
            if description is None:
                self.rowcount = max(cursor.rowcount, 0)
                return []
            rows = cursor.fetchall()
        except self._errors as exc:
            raise SQLError(str(exc)) from exc
        self.rowcount = len(rows)
        names = [column[0] for column in description]
        return [dict(zip(names, row)) for row in rows]

    def table_names(self) -> list[str]:
        """All table names."""
        rows = self.query(
            "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name"
        )
        return [name for (name,) in rows]

    def row_count(self, table: str) -> int:
        """Rows in one table."""
        quoted = '"' + table.replace('"', '""') + '"'
        return self.query(f"SELECT COUNT(*) FROM {quoted}")[0][0]

    def close(self) -> None:
        """Drop the connection and everything it held."""
        self._conn.close()

    def query(self, sql: str) -> list[tuple[Any, ...]]:
        """One read that is not counted as the tier's statement: catalog
        reads and gauges, so observing the tier never moves its counter."""
        try:
            return self._conn.execute(sql).fetchall()
        except self._errors as exc:
            raise SQLError(str(exc)) from exc


class SQLBackingStore:
    """Checkpoint store writing through the SQL engine.

    Snapshots are stored as rows in a ``checkpoints`` table, newest wins —
    the shape of a real game's persistence bridge (serialize, INSERT,
    SELECT latest on recovery).
    """

    def __init__(self, engine: SQLEngine | None = None):
        self.engine = engine or SQLEngine()
        if "checkpoints" not in self.engine.table_names():
            self.engine.execute(
                "CREATE TABLE checkpoints "
                "(seq INTEGER PRIMARY KEY, body TEXT) STRICT"
            )
        self._seq = 0

    def store_checkpoint(self, snapshot: dict[str, Any]) -> int:
        """Serialize + INSERT; returns bytes written."""
        self._seq += 1
        body = json.dumps(snapshot, sort_keys=True, default=_store_default)
        self.engine.execute(
            "INSERT INTO checkpoints (seq, body) VALUES (?, ?)",
            (self._seq, body),
        )
        return len(body)

    def load_checkpoint(self) -> dict[str, Any] | None:
        """SELECT the newest snapshot and deserialize it."""
        rows = self.engine.execute(
            "SELECT body FROM checkpoints ORDER BY seq DESC LIMIT 1"
        )
        if not rows:
            return None
        return json.loads(rows[0]["body"], object_hook=_store_hook)


def _store_default(obj: Any) -> Any:
    if isinstance(obj, bytes):
        return {"__bytes__": obj.hex()}
    raise TypeError(f"not serializable: {type(obj).__name__}")


def _store_hook(obj: dict) -> Any:
    if set(obj) == {"__bytes__"}:
        return bytes.fromhex(obj["__bytes__"])
    return obj
