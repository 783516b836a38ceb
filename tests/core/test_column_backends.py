"""Property tests: column storage backends are observationally identical.

The typed-column plane (``repro.core.columns``) may store a numeric
field on stdlib ``array`` buffers, numpy arrays, or plain object lists.
Which backend is active must never change observable values — snapshots,
``state_hash``, demotion behavior, and error semantics all agree.  These
tests drive random operation sequences through a table under every
available backend and compare results pairwise, then pin the view and
demotion contracts directly.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import GameWorld, schema
from repro.core.columns import (
    ArrayColumn,
    TypedColumn,
    default_backend,
    make_column,
    set_default_backend,
)
from repro.core.table import ComponentTable

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - numpy-less host
    HAVE_NUMPY = False

BACKENDS = ["array", "object"] + (["numpy"] if HAVE_NUMPY else [])


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    set_default_backend(None)


def _schema():
    return schema("Thing", x="float", n=("int", 0), tag=("str", "t"))


_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
_ints = st.integers(-(2**40), 2**40)
_big_ints = st.integers(2**64, 2**70)  # force int64 demotion

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 24), _floats, _ints),
        st.tuples(st.just("update"), st.integers(0, 24), _floats,
                  st.one_of(_ints, _big_ints)),
        st.tuples(st.just("delete"), st.integers(0, 24)),
        st.tuples(st.just("bulk"), _floats),
    ),
    max_size=40,
)


def _apply_ops(backend, ops):
    """Run one op sequence under ``backend``; return observable state."""
    set_default_backend(backend)
    try:
        table = ComponentTable(_schema())
    finally:
        set_default_backend(None)
    live = []
    for op in ops:
        kind = op[0]
        if kind == "insert":
            eid = op[1]
            if eid not in table:
                table.insert(eid, {"x": op[2], "n": op[3]})
                live.append(eid)
        elif kind == "update" and live:
            table.update(live[op[1] % len(live)], {"x": op[2], "n": op[3]})
        elif kind == "delete" and live:
            table.delete(live.pop(op[1] % len(live)))
        elif kind == "bulk" and live:
            ids = list(table.entity_ids)
            table.update_column(
                "x", ids, [v + op[1] for v in table.column("x")]
            )
    return (
        table.entity_ids,
        table.columns(["x", "n", "tag"]),
        {eid: table.get(eid) for eid in table.entity_ids},
    )


class TestBackendEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(ops=_ops)
    def test_all_backends_agree(self, ops):
        results = [_apply_ops(b, ops) for b in BACKENDS]
        for other in results[1:]:
            assert other == results[0]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_world_state_hash_matches_object_backend(self, backend):
        def build(name):
            set_default_backend(name)
            try:
                w = GameWorld()
                w.catalog.define(
                    schema("P", x="float", y="float", hp=("int", 10))
                )
            finally:
                set_default_backend(None)
            for i in range(50):
                w.spawn(P={"x": i * 0.5, "y": -i * 0.25, "hp": i})
            w.add_batch_system(
                "move",
                reads=["P.x"],
                fn=lambda w_, ids, cols, dt: {
                    "P.x": [x + 1.5 for x in cols["P.x"]]
                },
                writes=["P.x"],
            )
            w.run(5)
            return w.state_hash()

        assert build(backend) == build("object")


class TestDemotion:
    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "object"])
    def test_int64_overflow_demotes_in_place(self, backend):
        set_default_backend(backend)
        table = ComponentTable(_schema())
        table.insert(1, {"x": 0.0, "n": 5})
        col = table._columns["n"]
        assert isinstance(col, TypedColumn) and not col.demoted
        table.update(1, {"n": 2**70})
        assert col.demoted
        assert table.get_field(1, "n") == 2**70
        assert "n" not in table.typed_fields()
        # the demoted column keeps behaving like a list
        table.insert(2, {"x": 1.0, "n": -(2**80)})
        assert table.get_field(2, "n") == -(2**80)

    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "object"])
    def test_bulk_replace_overflow_demotes(self, backend):
        set_default_backend(backend)
        table = ComponentTable(_schema())
        for i in range(4):
            table.insert(i, {"x": 0.0, "n": i})
        table.update_column("n", list(table.entity_ids), [2**70] * 4)
        assert table._columns["n"].demoted
        assert table.column("n") == (2**70,) * 4


class TestViews:
    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "object"])
    def test_view_is_zero_copy_and_live(self, backend):
        set_default_backend(backend)
        table = ComponentTable(_schema())
        for i in range(8):
            table.insert(i, {"x": float(i), "n": i})
        view = table.column_view("x")
        assert isinstance(view, memoryview)
        assert view.readonly
        assert view[3] == 3.0
        table.update(3, {"x": 99.0})  # in-place cell write shows through
        assert view[3] == 99.0

    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "object"])
    def test_view_snapshot_stable_across_growth(self, backend):
        set_default_backend(backend)
        table = ComponentTable(_schema())
        for i in range(4):
            table.insert(i, {"x": float(i), "n": i})
        view = table.column_view("x")
        before = list(view)
        for i in range(4, 40):  # force at least one buffer growth
            table.insert(i, {"x": float(i), "n": i})
        assert list(view) == before  # copy-on-grow: old view, old buffer
        assert table.column("x") == tuple(float(i) for i in range(40))

    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "object"])
    def test_demoted_column_view_falls_back_to_snapshot(self, backend):
        set_default_backend(backend)
        table = ComponentTable(_schema())
        table.insert(1, {"x": 0.0, "n": 2**70})
        assert table._columns["n"].demoted
        got = table.column_view("n")
        assert got == (2**70,)

    def test_object_columns_snapshot(self):
        set_default_backend("object")
        table = ComponentTable(_schema())
        table.insert(1, {"x": 1.0, "n": 2, "tag": "hi"})
        assert table.column_view("tag") == ("hi",)
        assert table.column_view("x") == (1.0,)


class TestReplace:
    def test_length_mismatch_rejected(self):
        col = ArrayColumn("d", [1.0, 2.0])
        with pytest.raises(ValueError):
            col.replace([1.0])

    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "object"])
    def test_replace_writes_through_live_views(self, backend):
        set_default_backend(backend)
        table = ComponentTable(_schema())
        ids = []
        for i in range(6):
            table.insert(i, {"x": float(i), "n": i})
            ids.append(i)
        view = table.column_view("x")
        table.update_column("x", ids, [v + 10.0 for v in table.column("x")])
        assert list(view) == [i + 10.0 for i in range(6)]


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            set_default_backend("rocksdb")

    def test_forced_backend_wins(self):
        set_default_backend("array")
        assert default_backend() == "array"
        fdef = _schema().field("x")
        assert isinstance(make_column(fdef), ArrayColumn)

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not importable")
    def test_auto_prefers_numpy(self):
        set_default_backend(None)
        import os

        if os.environ.get("REPRO_COLUMN_BACKEND", "auto") == "auto":
            assert default_backend() == "numpy"

    def test_nullable_and_str_fields_stay_object_lists(self):
        from repro.core.component import ComponentSchema, FieldDef

        set_default_backend("array")
        s = ComponentSchema(
            "Ref",
            [
                FieldDef("target", "entity", nullable=True),
                FieldDef("name", "str", default="x"),
            ],
        )
        table = ComponentTable(s)
        assert not isinstance(table._columns["name"], TypedColumn)
        assert not isinstance(table._columns["target"], TypedColumn)
