"""Secondary indexes in the SQL engine.

An index is a plan choice, never a semantic one: every statement must
return the same rows in the same order with or without it.  The plan
itself is observable through ``EXPLAIN QUERY PLAN``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SQLError
from repro.persistence.sqlbridge import SQLEngine

DDL = (
    "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, s TEXT) "
    "STRICT"
)


def populated(index=True, rows=20):
    db = SQLEngine()
    db.execute(DDL)
    if index:
        db.execute("CREATE INDEX t_a ON t (a)")
    for i in range(rows):
        db.execute(
            "INSERT INTO t (id, a, b, s) VALUES (?, ?, ?, ?)",
            (i, i % 4, i, f"r{i}"),
        )
    return db


def plan(db, sql, params=()):
    """The query plan's detail lines, joined."""
    rows = db.execute("EXPLAIN QUERY PLAN " + sql, params)
    return " | ".join(r["detail"] for r in rows)


class TestCreateIndex:
    def test_equality_on_indexed_column_examines_only_the_bucket(self):
        db = populated()
        sql = "SELECT id FROM t WHERE a = 1 ORDER BY id"
        assert [r["id"] for r in db.execute(sql)] == [1, 5, 9, 13, 17]
        assert "INDEX t_a (a=?)" in plan(db, sql)

    def test_without_index_the_same_query_scans(self):
        db = populated(index=False)
        sql = "SELECT id FROM t WHERE a = 1 ORDER BY id"
        assert [r["id"] for r in db.execute(sql)] == [1, 5, 9, 13, 17]
        assert plan(db, sql) == "SCAN t"

    def test_range_predicate_searches_the_index(self):
        db = populated()
        sql = "SELECT id FROM t WHERE a >= 2"
        assert sorted(r["id"] for r in db.execute(sql)) == [
            i for i in range(20) if i % 4 >= 2
        ]
        assert "INDEX t_a (a>?)" in plan(db, sql)

    def test_absent_value_examines_nothing(self):
        db = populated()
        sql = "SELECT id FROM t WHERE a = 99"
        assert db.execute(sql) == []
        assert "INDEX t_a (a=?)" in plan(db, sql)

    def test_index_on_populated_table_indexes_existing_rows(self):
        db = populated(index=False)
        db.execute("CREATE INDEX late ON t (a)")
        sql = "SELECT id FROM t WHERE a = 3 AND b > 10 ORDER BY id"
        assert [r["id"] for r in db.execute(sql)] == [11, 15, 19]
        assert "INDEX late (a=?)" in plan(db, sql)

    def test_update_of_indexed_column_moves_the_row(self):
        db = populated()
        db.execute("UPDATE t SET a = 1 WHERE id = 2")
        ids = "SELECT id FROM t WHERE a = ? ORDER BY id"
        assert [r["id"] for r in db.execute(ids, (1,))] == [1, 2, 5, 9, 13, 17]
        assert [r["id"] for r in db.execute(ids, (2,))] == [6, 10, 14, 18]

    def test_delete_keeps_the_index_in_step(self):
        db = populated()
        db.execute("DELETE FROM t WHERE id = 5")
        rows = db.execute("SELECT id FROM t WHERE a = 1 ORDER BY id")
        assert [r["id"] for r in rows] == [1, 9, 13, 17]

    def test_null_never_matches_equality(self):
        db = populated()
        db.execute("INSERT INTO t (id, a) VALUES (100, NULL)")
        assert db.execute("SELECT id FROM t WHERE a = NULL") == []

    @pytest.mark.parametrize(
        "sql",
        [
            "CREATE INDEX t_a ON t (a)",  # name taken
            "CREATE INDEX i2 ON t (nope)",
            "CREATE INDEX i2 ON missing (a)",
            "CREATE INDEX i2 ON t (a) extra",
        ],
    )
    def test_bad_ddl_rejected(self, sql):
        db = populated()
        with pytest.raises(SQLError):
            db.execute(sql)


# -- property: indexed and unindexed engines agree row-for-row -----------------

small = st.integers(min_value=0, max_value=4)
ops = st.one_of(
    st.tuples(st.just("insert"), small, small),
    st.tuples(st.just("update_a"), small, small),
    st.tuples(st.just("update_b"), small, small),
    st.tuples(st.just("delete"), st.sampled_from(["a", "b"]), small),
    st.tuples(
        st.just("select"),
        st.sampled_from(["a = ?", "b = ?", "a = ? AND b >= ?", "b <= ? AND a = ?"]),
        small,
        small,
        # Every order is total: SQL promises no order beyond ORDER BY,
        # and without one a plan may return (and LIMIT keep) any rows.
        st.sampled_from(
            [" ORDER BY id", " ORDER BY b ASC, id", " ORDER BY a DESC, id"]
        ),
        st.sampled_from(["", " LIMIT 3"]),
    ),
    st.tuples(st.just("index")),
)


def run_stream(stream, indexed):
    db = SQLEngine()
    db.execute(DDL)
    if indexed:
        db.execute("CREATE INDEX t_a ON t (a)")
    out = []
    next_id = 0
    for op in stream:
        if op[0] == "insert":
            db.execute(
                "INSERT INTO t (id, a, b) VALUES (?, ?, ?)",
                (next_id, op[1], op[2]),
            )
            next_id += 1
        elif op[0] == "update_a":
            db.execute("UPDATE t SET a = ? WHERE b = ?", (op[1], op[2]))
            out.append(db.rowcount)
        elif op[0] == "update_b":
            db.execute("UPDATE t SET b = ? WHERE a = ?", (op[1], op[2]))
            out.append(db.rowcount)
        elif op[0] == "delete":
            db.execute(f"DELETE FROM t WHERE {op[1]} = ?", (op[2],))
            out.append(db.rowcount)
        elif op[0] == "select":
            _, where, x, y, order, limit = op
            params = (x, y)[: where.count("?")]
            out.append(
                db.execute(f"SELECT * FROM t WHERE {where}{order}{limit}", params)
            )
        elif op[0] == "index" and indexed:
            # A second index, created mid-stream on a populated table.
            db.execute("CREATE INDEX IF NOT EXISTS t_b ON t (b)")
    out.append(db.execute("SELECT * FROM t ORDER BY id"))
    return out


@given(st.lists(ops, max_size=40))
@settings(max_examples=150, deadline=None)
def test_indexed_and_unindexed_agree(stream):
    assert run_stream(stream, indexed=True) == run_stream(stream, indexed=False)
