"""Secondary indexes and the tokenise-once cache in MiniSQL.

An index is a plan choice, never a semantic one: every statement must
return the same rows in the same order with or without it, and the only
observable difference is ``rows_examined``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SQLError
from repro.persistence import sqlbridge
from repro.persistence.sqlbridge import MiniSQL

DDL = "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, s TEXT)"


def populated(index=True, rows=20):
    db = MiniSQL()
    db.execute(DDL)
    if index:
        db.execute("CREATE INDEX t_a ON t (a)")
    for i in range(rows):
        db.execute(
            "INSERT INTO t (id, a, b, s) VALUES (?, ?, ?, ?)",
            (i, i % 4, i, f"r{i}"),
        )
    return db


class TestCreateIndex:
    def test_equality_on_indexed_column_examines_only_the_bucket(self):
        db = populated()
        before = db.rows_examined
        rows = db.execute("SELECT id FROM t WHERE a = 1")
        assert [r["id"] for r in rows] == [1, 5, 9, 13, 17]
        assert db.rows_examined - before == 5

    def test_without_index_the_same_query_scans(self):
        db = populated(index=False)
        before = db.rows_examined
        rows = db.execute("SELECT id FROM t WHERE a = 1")
        assert [r["id"] for r in rows] == [1, 5, 9, 13, 17]
        assert db.rows_examined - before == 20

    def test_range_predicate_still_scans(self):
        db = populated()
        before = db.rows_examined
        assert len(db.execute("SELECT id FROM t WHERE a >= 2")) == 10
        assert db.rows_examined - before == 20

    def test_absent_value_examines_nothing(self):
        db = populated()
        before = db.rows_examined
        assert db.execute("SELECT id FROM t WHERE a = 99") == []
        assert db.rows_examined == before

    def test_index_on_populated_table_indexes_existing_rows(self):
        db = populated(index=False)
        db.execute("CREATE INDEX late ON t (a)")
        before = db.rows_examined
        rows = db.execute("SELECT id FROM t WHERE a = 3 AND b > 10")
        assert [r["id"] for r in rows] == [11, 15, 19]
        assert db.rows_examined - before == 5

    def test_update_of_indexed_column_moves_the_row(self):
        db = populated()
        db.execute("UPDATE t SET a = 1 WHERE id = 2")
        assert [r["id"] for r in db.execute("SELECT id FROM t WHERE a = 1")] == [
            1, 2, 5, 9, 13, 17,
        ]
        assert [r["id"] for r in db.execute("SELECT id FROM t WHERE a = 2")] == [
            6, 10, 14, 18,
        ]

    def test_delete_keeps_the_index_in_step(self):
        db = populated()
        db.execute("DELETE FROM t WHERE id = 5")
        before = db.rows_examined
        rows = db.execute("SELECT id FROM t WHERE a = 1")
        assert [r["id"] for r in rows] == [1, 9, 13, 17]
        assert db.rows_examined - before == 4

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
            "CREATE INDEX i2 ON t (a, b)",
            "CREATE INDEX i2 ON t (a) extra",
        ],
    )
    def test_bad_ddl_rejected(self, sql):
        db = populated()
        with pytest.raises(SQLError):
            db.execute(sql)


class TestTokeniseOnce:
    def test_each_distinct_text_is_tokenised_once(self):
        sqlbridge._tokenize.cache_clear()
        db = populated(rows=0)
        for i in range(50):
            db.execute("INSERT INTO t (id, a) VALUES (?, ?)", (i, i))
            db.execute("SELECT a FROM t WHERE id = ?", (i,))
        info = sqlbridge._tokenize.cache_info()
        assert info.misses == 4  # two DDL texts + the two above
        assert info.hits == 98
        assert info.maxsize is not None

    def test_tokens_are_immutable_and_errors_are_not_cached(self):
        assert isinstance(sqlbridge._tokenize("SELECT * FROM t"), tuple)
        for _ in range(2):
            with pytest.raises(SQLError, match="tokenize"):
                MiniSQL().execute("SELECT @ FROM t")


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
        st.sampled_from(["", " ORDER BY b ASC", " ORDER BY a DESC"]),
        st.sampled_from(["", " LIMIT 3"]),
    ),
    st.tuples(st.just("index")),
)


def run_stream(stream, indexed):
    db = MiniSQL()
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
        elif op[0] == "index" and indexed and "b" not in db._tables["t"].indexes:
            # A second index, created mid-stream on a populated table.
            db.execute("CREATE INDEX t_b ON t (b)")
    out.append(db.execute("SELECT * FROM t"))
    return out, db.rows_examined


@given(st.lists(ops, max_size=40))
@settings(max_examples=150, deadline=None)
def test_indexed_and_unindexed_agree(stream):
    with_index, examined_indexed = run_stream(stream, indexed=True)
    without, examined_scan = run_stream(stream, indexed=False)
    assert with_index == without
    assert examined_indexed <= examined_scan
