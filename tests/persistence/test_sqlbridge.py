"""Tests for the SQL engine: SQLite behind the tier's ``execute`` surface.

Beyond plain SQL, these pin the bridge's contract: wrong-typed values
are refused (the tables are ``STRICT``), keys stay unique, parameters
are data and never SQL, every statement counts once, and every database
error surfaces as :class:`~repro.errors.SQLError`.
"""

import pytest

from repro.errors import SQLError
from repro.persistence import SQLEngine


@pytest.fixture
def db():
    sql = SQLEngine()
    sql.execute(
        "CREATE TABLE chars (id INTEGER PRIMARY KEY, name TEXT, "
        "gold INTEGER, level REAL) STRICT"
    )
    for i in range(10):
        sql.execute(
            "INSERT INTO chars (id, name, gold, level) VALUES (?, ?, ?, ?)",
            (i, f"p{i}", i * 10, 1.0 + i),
        )
    return sql


class TestCreate:
    def test_duplicate_table(self, db):
        with pytest.raises(SQLError, match="already exists"):
            db.execute("CREATE TABLE chars (id INTEGER)")

    def test_duplicate_column(self):
        sql = SQLEngine()
        with pytest.raises(SQLError, match="duplicate column"):
            sql.execute("CREATE TABLE t (a INTEGER, a TEXT)")

    def test_multiple_primary_keys(self):
        sql = SQLEngine()
        with pytest.raises(SQLError, match="more than one primary key"):
            sql.execute(
                "CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER PRIMARY KEY)"
            )

    def test_table_names(self, db):
        assert db.table_names() == ["chars"]


class TestInsert:
    def test_type_checking(self, db):
        with pytest.raises(SQLError, match="cannot store TEXT"):
            db.execute(
                "INSERT INTO chars (id, gold) VALUES (?, ?)", (99, "lots")
            )
        with pytest.raises(SQLError, match="cannot store REAL"):
            db.execute(
                "INSERT INTO chars (id, gold) VALUES (?, ?)", (99, 1.5)
            )
        assert db.row_count("chars") == 10

    def test_pk_uniqueness(self, db):
        with pytest.raises(SQLError, match="UNIQUE constraint"):
            db.execute("INSERT INTO chars (id, name) VALUES (5, 'dup')")

    def test_pk_not_null(self, db):
        # A text key (the tier's outbox and lease tables) is never NULL;
        # an INTEGER PRIMARY KEY is the rowid and a missing one is
        # assigned.
        db.execute("CREATE TABLE tags (tag TEXT PRIMARY KEY, n INTEGER) STRICT")
        with pytest.raises(SQLError, match="NOT NULL"):
            db.execute("INSERT INTO tags (n) VALUES (1)")
        db.execute("INSERT INTO chars (name) VALUES ('nobody')")
        assert db.execute("SELECT id FROM chars WHERE name = 'nobody'") == [
            {"id": 10}
        ]

    def test_missing_columns_default_null(self, db):
        db.execute("INSERT INTO chars (id) VALUES (100)")
        row = db.execute("SELECT name FROM chars WHERE id = 100")[0]
        assert row["name"] is None

    def test_unknown_column(self, db):
        with pytest.raises(SQLError, match="no column"):
            db.execute("INSERT INTO chars (id, mana) VALUES (50, 1)")

    def test_count_mismatch(self, db):
        with pytest.raises(SQLError, match="1 values for 2 columns"):
            db.execute("INSERT INTO chars (id, name) VALUES (50)")

    def test_real_accepts_int(self, db):
        db.execute("INSERT INTO chars (id, level) VALUES (77, 3)")
        assert db.execute("SELECT level FROM chars WHERE id = 77")[0][
            "level"
        ] == 3.0


class TestSelect:
    def test_projection(self, db):
        rows = db.execute("SELECT name, gold FROM chars WHERE id = 3")
        assert rows == [{"name": "p3", "gold": 30}]

    def test_star(self, db):
        rows = db.execute("SELECT * FROM chars WHERE id = 0")
        assert set(rows[0]) == {"id", "name", "gold", "level"}

    def test_where_and(self, db):
        rows = db.execute(
            "SELECT id FROM chars WHERE gold >= 30 AND gold < 60"
        )
        assert sorted(r["id"] for r in rows) == [3, 4, 5]

    def test_order_and_limit(self, db):
        rows = db.execute(
            "SELECT id FROM chars ORDER BY gold DESC LIMIT 3"
        )
        assert [r["id"] for r in rows] == [9, 8, 7]

    def test_order_asc_explicit(self, db):
        rows = db.execute("SELECT id FROM chars ORDER BY gold ASC LIMIT 2")
        assert [r["id"] for r in rows] == [0, 1]

    def test_count_star(self, db):
        assert db.execute("SELECT COUNT(*) AS count FROM chars") == [
            {"count": 10}
        ]
        assert db.execute(
            "SELECT COUNT(*) AS count FROM chars WHERE gold > 70"
        ) == [{"count": 2}]

    def test_parameters_are_not_parsed_as_sql(self, db):
        # the injection-safety property the "bridge" needs
        db.execute(
            "INSERT INTO chars (id, name) VALUES (?, ?)",
            (200, "Robert'); DROP TABLE chars;--"),
        )
        assert db.row_count("chars") == 11
        rows = db.execute("SELECT name FROM chars WHERE id = 200")
        assert rows[0]["name"] == "Robert'); DROP TABLE chars;--"

    def test_quoted_strings_with_escapes(self, db):
        db.execute("INSERT INTO chars (id, name) VALUES (201, 'O''Brien')")
        rows = db.execute("SELECT name FROM chars WHERE id = 201")
        assert rows[0]["name"] == "O'Brien"

    def test_missing_param(self, db):
        with pytest.raises(SQLError, match="number of bindings"):
            db.execute("SELECT id FROM chars WHERE gold > ?")

    def test_unknown_table(self, db):
        with pytest.raises(SQLError, match="no such table"):
            db.execute("SELECT * FROM ghosts")

    def test_unknown_column_in_where(self, db):
        with pytest.raises(SQLError, match="no such column"):
            db.execute("SELECT id FROM chars WHERE mana = 1")

    def test_trailing_garbage(self, db):
        with pytest.raises(SQLError, match="syntax error"):
            db.execute("SELECT id FROM chars WHERE id = 1 banana")

    def test_null_never_matches_comparison(self, db):
        db.execute("INSERT INTO chars (id) VALUES (300)")
        rows = db.execute("SELECT id FROM chars WHERE name = 'p1'")
        assert [r["id"] for r in rows] == [1]
        rows2 = db.execute("SELECT id FROM chars WHERE gold < 10000")
        assert 300 not in [r["id"] for r in rows2]

    def test_negative_numbers(self, db):
        db.execute("INSERT INTO chars (id, gold) VALUES (400, -5)")
        rows = db.execute("SELECT id FROM chars WHERE gold < 0")
        assert [r["id"] for r in rows] == [400]


class TestUpdateDelete:
    def test_update(self, db):
        db.execute("UPDATE chars SET gold = ? WHERE id = ?", (999, 4))
        assert db.execute("SELECT gold FROM chars WHERE id = 4")[0]["gold"] == 999

    def test_update_multiple_columns(self, db):
        db.execute("UPDATE chars SET gold = 1, name = 'renamed' WHERE id = 2")
        row = db.execute("SELECT * FROM chars WHERE id = 2")[0]
        assert row["gold"] == 1 and row["name"] == "renamed"

    def test_update_all_rows(self, db):
        db.execute("UPDATE chars SET gold = 0")
        assert db.rowcount == 10
        assert db.execute(
            "SELECT COUNT(*) AS count FROM chars WHERE gold = 0"
        ) == [{"count": 10}]

    def test_update_pk_rejected(self, db):
        # Moving a row onto a taken key is refused and changes nothing.
        with pytest.raises(SQLError, match="UNIQUE constraint"):
            db.execute("UPDATE chars SET id = 2 WHERE id = 1")
        assert db.execute("SELECT name FROM chars WHERE id = 1") == [
            {"name": "p1"}
        ]

    def test_delete(self, db):
        db.execute("DELETE FROM chars WHERE gold >= 50")
        assert db.rowcount == 5
        assert db.row_count("chars") == 5

    def test_delete_then_reinsert_pk(self, db):
        db.execute("DELETE FROM chars WHERE id = 3")
        db.execute("INSERT INTO chars (id, name) VALUES (3, 'reborn')")
        assert db.execute("SELECT name FROM chars WHERE id = 3")[0][
            "name"
        ] == "reborn"

    def test_pk_index_path_used(self, db):
        # equality on the primary key stays right after deletions
        db.execute("DELETE FROM chars WHERE id = 0")
        rows = db.execute("SELECT name FROM chars WHERE id = 9")
        assert rows == [{"name": "p9"}]


class TestStatements:
    def test_statement_counter(self, db):
        before = db.statements_executed
        db.execute("SELECT id FROM chars WHERE id = 1")
        assert db.statements_executed == before + 1

    def test_errors_still_count(self, db):
        before = db.statements_executed
        with pytest.raises(SQLError):
            db.execute("SELECT * FROM ghosts")
        assert db.statements_executed == before + 1

    def test_catalog_reads_are_not_statements(self, db):
        before = db.statements_executed
        assert db.table_names() == ["chars"]
        assert db.row_count("chars") == 10
        assert db.statements_executed == before

    def test_unsupported_statement(self, db):
        with pytest.raises(SQLError):
            db.execute("GRANT ALL ON chars")

    def test_tokenizer_garbage(self, db):
        with pytest.raises(SQLError, match="unrecognized token"):
            db.execute("SELECT @ FROM chars")

    def test_one_statement_per_call(self, db):
        with pytest.raises(SQLError, match="one statement"):
            db.execute("SELECT 1; DROP TABLE chars")
        assert db.row_count("chars") == 10

    @pytest.mark.parametrize(
        "value", [[1], {"a": 1}, 2**70], ids=["list", "dict", "int_2_70"]
    )
    def test_unbindable_values_raise_sql_error(self, db, value):
        with pytest.raises(SQLError):
            db.execute(
                "INSERT INTO chars (id, gold) VALUES (?, ?)", (500, value)
            )

    def test_row_count_of_unknown_table(self, db):
        with pytest.raises(SQLError, match="no such table"):
            db.row_count("ghosts")
