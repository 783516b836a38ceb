"""A miniature SQL engine — the stand-in for the commercial backend.

    "MMOs use commercial databases for persistence and to recover from
    server crashes. … they need to ensure that the bridge between the
    client software and the SQL code is robust enough to handle changes
    in each."

Since the sandbox has no commercial database, we build the smallest SQL
engine that exercises the same bridge code paths: typed tables with an
optional primary key, parameterized statements (``?`` placeholders — the
robust half of the bridge), and the subset of SQL a game persistence tier
actually issues:

    CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, gold INTEGER)
    INSERT INTO t (id, name, gold) VALUES (?, ?, ?)
    SELECT name, gold FROM t WHERE gold >= ? ORDER BY gold DESC LIMIT 10
    UPDATE t SET gold = ? WHERE id = ?
    DELETE FROM t WHERE id = ?
    CREATE INDEX t_gold ON t (gold)

The engine also implements the :class:`~repro.persistence.checkpoint.
BackingStore` protocol via :class:`SQLBackingStore`, so checkpoints
genuinely flow through SQL — as the tutorial describes.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterable

from repro.errors import SQLError

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>-?\d+(?:\.\d+)?)"
    r"|(?P<string>'(?:[^']|'')*')"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|!=|<>|=|<|>|\?|\(|\)|,|\*)"
    r")"
)

_KEYWORDS = {
    "CREATE", "TABLE", "PRIMARY", "KEY", "INSERT", "INTO", "VALUES",
    "SELECT", "FROM", "WHERE", "AND", "ORDER", "BY", "DESC", "ASC",
    "LIMIT", "UPDATE", "SET", "DELETE", "INTEGER", "REAL", "TEXT", "BLOB",
    "COUNT", "NULL", "INDEX", "ON",
}

_COLUMN_TYPES = {"INTEGER": int, "REAL": float, "TEXT": str, "BLOB": bytes}


@lru_cache(maxsize=256)
def _tokenize(sql: str) -> tuple[tuple[str, Any], ...]:
    """Token stream of one SQL text — a pure function of the text, so
    each distinct statement is tokenised once (parameters travel
    separately as ``?``, which keeps the text set small)."""
    tokens: list[tuple[str, Any]] = []
    pos = 0
    while pos < len(sql):
        m = _TOKEN_RE.match(sql, pos)
        if m is None:
            rest = sql[pos:].strip()
            if not rest:
                break
            raise SQLError(f"cannot tokenize near {rest[:20]!r}")
        pos = m.end()
        if m.lastgroup == "number":
            text = m.group("number")
            tokens.append(("num", float(text) if "." in text else int(text)))
        elif m.lastgroup == "string":
            raw = m.group("string")[1:-1].replace("''", "'")
            tokens.append(("str", raw))
        elif m.lastgroup == "ident":
            word = m.group("ident")
            upper = word.upper()
            if upper in _KEYWORDS:
                tokens.append(("kw", upper))
            else:
                tokens.append(("ident", word))
        else:
            tokens.append(("op", m.group("op")))
    tokens.append(("eof", None))
    return tuple(tokens)


@dataclass
class _Column:
    name: str
    type_name: str
    primary_key: bool = False

    def check(self, value: Any) -> Any:
        if value is None:
            return None
        py = _COLUMN_TYPES[self.type_name]
        if self.type_name == "REAL" and isinstance(value, int) and not isinstance(value, bool):
            return float(value)
        if isinstance(value, bool) or not isinstance(value, py):
            raise SQLError(
                f"column {self.name} ({self.type_name}) rejects "
                f"{type(value).__name__} value {value!r}"
            )
        return value


class _Table:
    def __init__(self, name: str, columns: list[_Column]):
        self.name = name
        self.columns = columns
        self.by_name = {c.name: c for c in columns}
        self.rows: list[dict[str, Any]] = []
        pk = [c.name for c in columns if c.primary_key]
        self.pk = pk[0] if pk else None
        self._pk_index: dict[Any, int] = {}
        #: Secondary equality indexes: column -> value -> ascending
        #: positions in ``rows`` (so candidates come back in table order).
        self.indexes: dict[str, dict[Any, list[int]]] = {}

    def index_add(self, column: str, value: Any, pos: int) -> None:
        """Enter row ``pos`` under ``value`` in one column's index."""
        index = self.indexes[column]
        bucket = index.get(value)
        if bucket is None:
            index[value] = [pos]
        else:
            insort(bucket, pos)

    def index_remove(self, column: str, value: Any, pos: int) -> None:
        """Drop row ``pos`` from under ``value`` in one column's index."""
        index = self.indexes[column]
        bucket = index[value]
        if len(bucket) == 1:
            del index[value]
        else:
            del bucket[bisect_left(bucket, pos)]

    def reindex(self) -> None:
        """Rebuild every index from ``rows`` (positions have shifted)."""
        if self.pk is not None:
            self._pk_index = {
                row[self.pk]: i for i, row in enumerate(self.rows)
            }
        for column in self.indexes:
            self.indexes[column] = {}
            for pos, row in enumerate(self.rows):
                self.index_add(column, row[column], pos)


class MiniSQL:
    """The engine: ``execute(sql, params)`` returns affected/result rows."""

    def __init__(self) -> None:
        self._tables: dict[str, _Table] = {}
        self._index_names: set[str] = set()
        self.statements_executed = 0
        #: Rows WHERE predicates were evaluated on, summed over all
        #: statements — the work an index lookup saves over a scan.
        self.rows_examined = 0
        #: Rows affected by the most recent INSERT/UPDATE/DELETE (rows
        #: returned, for SELECT) — the signal optimistic CAS reads to
        #: learn whether its guarded UPDATE actually landed.
        self.rowcount = 0

    # -- public API ---------------------------------------------------------------

    def execute(
        self, sql: str, params: Iterable[Any] = ()
    ) -> list[dict[str, Any]]:
        """Run one statement; SELECTs return rows, others return []."""
        self.statements_executed += 1
        parser = _Parser(_tokenize(sql), list(params))
        kind = parser.peek_kw()
        if kind == "CREATE":
            parser.expect_kw("CREATE")
            if parser.try_kw("INDEX"):
                self._create_index(parser)
            else:
                self._create(parser)
            self.rowcount = 0
            return []
        if kind == "INSERT":
            self._insert(parser)
            self.rowcount = 1
            return []
        if kind == "SELECT":
            rows = self._select(parser)
            self.rowcount = len(rows)
            return rows
        if kind == "UPDATE":
            self.rowcount = self._update(parser)
            return []
        if kind == "DELETE":
            self.rowcount = self._delete(parser)
            return []
        raise SQLError(f"unsupported statement start: {kind!r}")

    def table_names(self) -> list[str]:
        """All table names."""
        return sorted(self._tables)

    def row_count(self, table: str) -> int:
        """Rows in one table."""
        return len(self._require(table).rows)

    # -- statement implementations ---------------------------------------------------

    def _create(self, p: "_Parser") -> None:
        p.expect_kw("TABLE")
        name = p.expect_ident()
        if name in self._tables:
            raise SQLError(f"table {name!r} already exists")
        p.expect_op("(")
        columns: list[_Column] = []
        while True:
            col_name = p.expect_ident()
            type_kw = p.expect_any_kw("INTEGER", "REAL", "TEXT", "BLOB")
            primary = False
            if p.try_kw("PRIMARY"):
                p.expect_kw("KEY")
                primary = True
            if primary and any(c.primary_key for c in columns):
                raise SQLError("multiple primary keys")
            columns.append(_Column(col_name, type_kw, primary))
            if p.try_op(")"):
                break
            p.expect_op(",")
        if len({c.name for c in columns}) != len(columns):
            raise SQLError("duplicate column name")
        self._tables[name] = _Table(name, columns)

    def _create_index(self, p: "_Parser") -> None:
        name = p.expect_ident()
        p.expect_kw("ON")
        table = self._require(p.expect_ident())
        p.expect_op("(")
        column = p.expect_ident()
        p.expect_op(")")
        p.expect_eof()
        if column not in table.by_name:
            raise SQLError(f"no column {column!r} in {table.name}")
        if name in self._index_names:
            raise SQLError(f"index {name!r} already exists")
        self._index_names.add(name)
        if column not in table.indexes:
            table.indexes[column] = {}
            table.reindex()

    def _insert(self, p: "_Parser") -> None:
        p.expect_kw("INSERT")
        p.expect_kw("INTO")
        table = self._require(p.expect_ident())
        p.expect_op("(")
        cols = [p.expect_ident()]
        while p.try_op(","):
            cols.append(p.expect_ident())
        p.expect_op(")")
        p.expect_kw("VALUES")
        p.expect_op("(")
        values = [p.value()]
        while p.try_op(","):
            values.append(p.value())
        p.expect_op(")")
        if len(cols) != len(values):
            raise SQLError("column/value count mismatch")
        row = {c.name: None for c in table.columns}
        for col, value in zip(cols, values):
            cdef = table.by_name.get(col)
            if cdef is None:
                raise SQLError(f"no column {col!r} in {table.name}")
            row[col] = cdef.check(value)
        if table.pk is not None:
            pk_value = row[table.pk]
            if pk_value is None:
                raise SQLError(f"primary key {table.pk} cannot be NULL")
            if pk_value in table._pk_index:
                raise SQLError(
                    f"duplicate primary key {pk_value!r} in {table.name}"
                )
            table._pk_index[pk_value] = len(table.rows)
        for column in table.indexes:
            table.index_add(column, row[column], len(table.rows))
        table.rows.append(row)

    def _select(self, p: "_Parser") -> list[dict[str, Any]]:
        p.expect_kw("SELECT")
        count_star = False
        cols: list[str] = []
        if p.try_kw("COUNT"):
            p.expect_op("(")
            p.expect_op("*")
            p.expect_op(")")
            count_star = True
        elif p.try_op("*"):
            pass  # all columns
        else:
            cols.append(p.expect_ident())
            while p.try_op(","):
                cols.append(p.expect_ident())
        p.expect_kw("FROM")
        table = self._require(p.expect_ident())
        predicate = self._where(p, table)
        order_col: str | None = None
        descending = False
        if p.try_kw("ORDER"):
            p.expect_kw("BY")
            order_col = p.expect_ident()
            if order_col not in table.by_name:
                raise SQLError(f"no column {order_col!r}")
            if p.try_kw("DESC"):
                descending = True
            else:
                p.try_kw("ASC")
        limit: int | None = None
        if p.try_kw("LIMIT"):
            limit_val = p.value()
            if not isinstance(limit_val, int) or limit_val < 0:
                raise SQLError("LIMIT must be a non-negative integer")
            limit = limit_val
        p.expect_eof()
        matched = [table.rows[pos] for pos in self._match_rows(table, predicate)]
        if count_star:
            return [{"count": len(matched)}]
        if order_col is not None:
            matched.sort(
                key=lambda r: (r[order_col] is None, r[order_col]),
                reverse=descending,
            )
        if limit is not None:
            matched = matched[:limit]
        if not cols:
            return [dict(r) for r in matched]
        for col in cols:
            if col not in table.by_name:
                raise SQLError(f"no column {col!r} in {table.name}")
        return [{c: r[c] for c in cols} for r in matched]

    def _update(self, p: "_Parser") -> int:
        p.expect_kw("UPDATE")
        table = self._require(p.expect_ident())
        p.expect_kw("SET")
        updates: list[tuple[str, Any]] = []
        while True:
            col = p.expect_ident()
            cdef = table.by_name.get(col)
            if cdef is None:
                raise SQLError(f"no column {col!r} in {table.name}")
            p.expect_op("=")
            updates.append((col, cdef.check(p.value())))
            if not p.try_op(","):
                break
        predicate = self._where(p, table)
        p.expect_eof()
        matched = self._match_rows(table, predicate)
        for pos in matched:
            row = table.rows[pos]
            for col, value in updates:
                if col == table.pk and value != row[col]:
                    raise SQLError("updating primary keys is not supported")
                if col in table.indexes and value != row[col]:
                    table.index_remove(col, row[col], pos)
                    table.index_add(col, value, pos)
                row[col] = value
        return len(matched)

    def _delete(self, p: "_Parser") -> int:
        p.expect_kw("DELETE")
        p.expect_kw("FROM")
        table = self._require(p.expect_ident())
        predicate = self._where(p, table)
        p.expect_eof()
        doomed = set(self._match_rows(table, predicate))
        if doomed:
            table.rows = [
                r for pos, r in enumerate(table.rows) if pos not in doomed
            ]
            table.reindex()
        return len(doomed)

    # -- where handling -------------------------------------------------------------------

    def _where(self, p: "_Parser", table: _Table) -> list[tuple[str, str, Any]]:
        conds: list[tuple[str, str, Any]] = []
        if p.try_kw("WHERE"):
            while True:
                col = p.expect_ident()
                if col not in table.by_name:
                    raise SQLError(f"no column {col!r} in {table.name}")
                op = p.expect_comparison()
                conds.append((col, op, p.value()))
                if not p.try_kw("AND"):
                    break
        return conds

    def _match_rows(
        self, table: _Table, conds: list[tuple[str, str, Any]]
    ) -> list[int]:
        """Positions in ``table.rows`` (ascending) matching every condition."""
        rows = table.rows
        # The first equality on the primary key or an indexed column
        # narrows the candidates; anything else scans the table.
        for col, op, value in conds:
            if op == "=" and col == table.pk:
                idx = table._pk_index.get(value)
                candidates = [] if idx is None else [idx]
                break
            if op == "=" and col in table.indexes:
                candidates = table.indexes[col].get(value, ())
                break
        else:
            candidates = range(len(rows))
        self.rows_examined += len(candidates)
        return [
            pos
            for pos in candidates
            if all(_cmp(rows[pos][c], op, v) for c, op, v in conds)
        ]

    def _require(self, name: str) -> _Table:
        table = self._tables.get(name)
        if table is None:
            raise SQLError(f"no table {name!r}")
        return table


def _cmp(lhs: Any, op: str, rhs: Any) -> bool:
    if lhs is None:
        return False
    if op == "=":
        return lhs == rhs
    if op in ("!=", "<>"):
        return lhs != rhs
    try:
        if op == "<":
            return lhs < rhs
        if op == "<=":
            return lhs <= rhs
        if op == ">":
            return lhs > rhs
        if op == ">=":
            return lhs >= rhs
    except TypeError as exc:
        raise SQLError(f"cannot compare {lhs!r} {op} {rhs!r}") from exc
    raise SQLError(f"unknown comparison {op!r}")


class _Parser:
    """Token-stream helper shared by the statement parsers."""

    def __init__(self, tokens: tuple[tuple[str, Any], ...], params: list[Any]):
        self.tokens = tokens
        self.pos = 0
        self.params = params
        self.param_index = 0

    def _peek(self) -> tuple[str, Any]:
        return self.tokens[self.pos]

    def _advance(self) -> tuple[str, Any]:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def peek_kw(self) -> str | None:
        kind, value = self._peek()
        return value if kind == "kw" else None

    def expect_kw(self, word: str) -> None:
        kind, value = self._advance()
        if kind != "kw" or value != word:
            raise SQLError(f"expected {word}, found {value!r}")

    def expect_any_kw(self, *words: str) -> str:
        kind, value = self._advance()
        if kind != "kw" or value not in words:
            raise SQLError(f"expected one of {words}, found {value!r}")
        return value

    def try_kw(self, word: str) -> bool:
        kind, value = self._peek()
        if kind == "kw" and value == word:
            self._advance()
            return True
        return False

    def expect_ident(self) -> str:
        kind, value = self._advance()
        if kind != "ident":
            raise SQLError(f"expected identifier, found {value!r}")
        return value

    def expect_op(self, op: str) -> None:
        kind, value = self._advance()
        if kind != "op" or value != op:
            raise SQLError(f"expected {op!r}, found {value!r}")

    def try_op(self, op: str) -> bool:
        kind, value = self._peek()
        if kind == "op" and value == op:
            self._advance()
            return True
        return False

    def expect_comparison(self) -> str:
        kind, value = self._advance()
        if kind == "op" and value in ("=", "!=", "<>", "<", "<=", ">", ">="):
            return value
        raise SQLError(f"expected comparison operator, found {value!r}")

    def value(self) -> Any:
        kind, value = self._advance()
        if kind in ("num", "str"):
            return value
        if kind == "kw" and value == "NULL":
            return None
        if kind == "op" and value == "?":
            if self.param_index >= len(self.params):
                raise SQLError("not enough parameters for placeholders")
            param = self.params[self.param_index]
            self.param_index += 1
            return param
        raise SQLError(f"expected a value, found {value!r}")

    def expect_eof(self) -> None:
        kind, value = self._peek()
        if kind != "eof":
            raise SQLError(f"unexpected trailing input at {value!r}")


class SQLBackingStore:
    """Checkpoint store writing through the SQL engine.

    Snapshots are stored as rows in a ``checkpoints`` table, newest wins —
    the shape of a real game's persistence bridge (serialize, INSERT,
    SELECT latest on recovery).
    """

    def __init__(self, engine: MiniSQL | None = None):
        self.engine = engine or MiniSQL()
        if "checkpoints" not in self.engine.table_names():
            self.engine.execute(
                "CREATE TABLE checkpoints (seq INTEGER PRIMARY KEY, body TEXT)"
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
