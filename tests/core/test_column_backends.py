"""The column store: one plain list per component field.

``ComponentTable`` keeps every field in a python list.  These tests pin
the three contracts that store owes its callers: any python int round
trips, whatever its width; every stored value has the field's exact
scalar type, however the caller built it; and every read that hands a
column out is a snapshot the caller cannot write through and later
writes do not change.
"""

from array import array
from enum import IntEnum

import pytest

from repro.core import GameWorld, schema
from repro.core.table import ComponentTable
from repro.schema import RetypeColumn

try:
    import numpy
    from numpy import float64 as _Float
except ImportError:  # pragma: no cover - numpy-less host
    numpy = None

    class _Float(float):
        """A float subclass, standing in for ``numpy.float64``."""


# The packed buffers a caller may hold a column in before writing it.
PACKED = ["array"] + (["numpy"] if numpy is not None else [])
SOURCES = PACKED + ["object"]


def _packed(source, typecode, values):
    """``values`` held as ``source``: an ``array.array``, a numpy array or a list."""
    if source == "array":
        return array(typecode, values)
    if source == "numpy":
        return numpy.array(values, dtype=typecode)
    return list(values)


class Kind(IntEnum):
    SCOUT = 3
    TANK = 7


def _schema():
    return schema("Thing", x="float", n=("int", 0), tag=("str", "t"))


class TestBigInts:
    def test_values_beyond_64_bits_round_trip(self):
        world = GameWorld()
        world.catalog.define(schema("V", n="int", m=("int", 0)))
        a = world.spawn(V={"n": 2**70})
        b = world.spawn(V={"n": -(2**63) - 1})
        assert world.get_field(a, "V", "n") == 2**70
        world.set(b, "V", n=-(2**80))
        assert world.get_field(b, "V", "n") == -(2**80)
        assert world.set_column("V", "m", [a, b], [2**64, 2**100]) == 2
        assert world.table("V").column_view("m") == (2**64, 2**100)
        handle = world.catalog.alter("V", [RetypeColumn("n", "float")], batch_rows=1)
        while not handle.done:
            world.tick()
        for eid, n in ((a, 2**70), (b, -(2**80))):
            got = world.get_field(eid, "V", "n")
            assert type(got) is float and got == float(n)


class TestDemotion:
    """An int column loaded from a packed int64 buffer, then given wider ints.

    The list store has no 64-bit limit to demote at: crossing it changes
    neither the stored values, nor their type, nor the other fields.
    """

    def _loaded(self, source):
        table = ComponentTable(_schema())
        ids = list(range(4))
        for eid in ids:
            table.insert(eid, {"x": 0.0, "n": 0})
        bounds = _packed(source, "q", [2**63 - 1, -(2**63), 1, 2])
        assert table.update_column("n", ids, bounds.tolist()) == 4
        xs = _packed(source, "d", [0.5, 1, 2, 3])
        assert table.update_column("x", ids, xs) == 4
        return table, ids

    @pytest.mark.parametrize("source", PACKED)
    def test_int64_overflow_demotes_in_place(self, source):
        table, _ids = self._loaded(source)
        table.update(2, {"n": 2**70})
        assert table.get_field(2, "n") == 2**70
        table.insert(4, {"x": 1.0, "n": -(2**80)})
        assert table.get_field(4, "n") == -(2**80)
        assert table.column("n") == (2**63 - 1, -(2**63), 2**70, 2, -(2**80))
        assert table.column("x") == (0.5, 1.0, 2.0, 3.0, 1.0)
        assert all(type(x) is float for x in table.column("x"))
        assert all(type(n) is int for n in table.column("n"))

    @pytest.mark.parametrize("source", PACKED)
    def test_bulk_replace_overflow_demotes(self, source):
        table, ids = self._loaded(source)
        assert table.update_column("n", ids, [2**70] * 4) == 4
        assert table.column("n") == (2**70,) * 4
        assert table.update_column("n", ids[:2], [2**63 - 1, -(2**100)]) == 2
        assert table.column("n") == (2**63 - 1, -(2**100), 2**70, 2**70)
        assert all(type(v) is int for v in table.column("n"))


def _unit_world(f, k):
    """A world written through spawn, set and set_column with scalars built by ``f``/``k``."""
    world = GameWorld()
    world.catalog.define(schema("Unit", x="float", kind=("int", 0), ref=("entity", 0)))
    ids = [
        world.spawn(Unit={"x": f(0.5 * i), "kind": k(Kind.SCOUT), "ref": k(Kind.TANK)})
        for i in range(4)
    ]
    world.set(ids[0], "Unit", x=f(9.25), kind=k(Kind.TANK))
    world.set_column("Unit", "x", ids[1:], [f(1.0), f(2.0), f(-3.5)])
    world.set_column("Unit", "kind", ids[2:], [k(Kind.TANK), k(Kind.SCOUT)])
    return world, ids


class TestExactScalarTypes:
    def test_subclass_values_store_as_exact_float_and_int(self):
        world, ids = _unit_world(_Float, lambda v: v)
        for eid in ids:
            assert type(world.get_field(eid, "Unit", "x")) is float
            assert type(world.get_field(eid, "Unit", "kind")) is int
            assert type(world.get_field(eid, "Unit", "ref")) is int
        plain, _ = _unit_world(float, int)
        assert world.state_hash() == plain.state_hash()


class TestViews:
    def test_object_columns_snapshot(self):
        table = ComponentTable(_schema())
        table.insert(1, {"x": 1.0, "n": 2, "tag": "hi"})
        assert table.column_view("tag") == ("hi",)
        assert table.column_view("x") == (1.0,)

    @pytest.mark.parametrize("source", SOURCES)
    def test_view_snapshot_stable_across_growth(self, source):
        xs = _packed(source, "d", range(40))
        table = ComponentTable(_schema())
        for i in range(4):
            table.insert(i, {"x": xs[i], "n": i})
        view = table.column_view("x")
        column = table.column("n")
        _ids, rows = table.batch_rows(["x"])
        before = tuple(float(i) for i in range(4))
        for i in range(4, 40):  # inserts grow every column
            table.insert(i, {"x": xs[i], "n": i})
        table.update(2, {"x": -1.0})
        table.update_column("n", range(4), [7] * 4)
        assert view == before
        assert column == (0, 1, 2, 3)
        assert rows["x"] == list(before)
        assert table.column("x")[:4] == (0.0, 1.0, -1.0, 3.0)
        assert len(table.column("x")) == 40
        assert all(type(x) is float for x in table.column("x"))

    @pytest.mark.parametrize("source", PACKED)
    def test_demoted_column_view_falls_back_to_snapshot(self, source):
        table = ComponentTable(_schema())
        table.insert(1, {"x": 0.0, "n": 2**70})
        for i, n in enumerate(_packed(source, "q", [2**63 - 1, -(2**63)]).tolist()):
            table.insert(2 + i, {"x": 0.0, "n": n})
        view = table.column_view("n")
        assert view == (2**70, 2**63 - 1, -(2**63))
        assert isinstance(view, tuple)
        table.update(1, {"n": 0})
        table.insert(4, {"x": 0.0, "n": -(2**80)})
        assert view == (2**70, 2**63 - 1, -(2**63))
        assert table.column_view("n") == (0, 2**63 - 1, -(2**63), -(2**80))


def _table_world():
    world = GameWorld()
    world.catalog.define(_schema())
    ids = [world.spawn(Thing={"x": float(i), "n": i}) for i in range(6)]
    return world, ids


def _scribble(seq):
    """Try to overwrite, grow and empty ``seq``; a tuple must refuse."""
    if isinstance(seq, tuple):
        with pytest.raises(TypeError):
            seq[0] = -1  # type: ignore[index]
        return
    seq[0] = -1
    seq.append(-2)
    seq.clear()


def _state(world):
    table = world.table("Thing")
    return (table.columns(["x", "n", "tag"]), table.version, world.state_hash())


class TestReadsAreSnapshots:
    def test_mutating_returned_columns_leaves_the_table_alone(self):
        world, ids = _table_world()
        table = world.table("Thing")
        before = _state(world)
        for field in ("x", "n", "tag"):
            _scribble(table.column(field))
            _scribble(table.column_view(field))
        for entity_ids in (None, ids, ids[::-1], ids[1:3]):
            _ids, cols = table.batch_rows(["x", "n", "tag"], entity_ids)
            for col in cols.values():
                _scribble(col)
        assert _state(world) == before

    def test_batch_system_inputs_are_private(self):
        def scribbler(world, ids, cols, dt):
            for col in cols.values():
                _scribble(col)

        def reader(world, ids, cols, dt):
            return None

        states = []
        for fn in (scribbler, reader):
            world, _ids = _table_world()
            table = world.table("Thing")
            before = (table.columns(["x", "n", "tag"]), table.version)
            world.add_batch_system(
                "s", reads=["Thing.x", "Thing.n", "Thing.tag"], fn=fn
            )
            world.run(2)
            assert (table.columns(["x", "n", "tag"]), table.version) == before
            states.append(_state(world))
        assert states[0] == states[1]
