"""The one set-at-a-time write path: ``update_column`` ≡ a per-cell loop.

``ComponentTable.update_column`` resolves every slot, validates the whole
column, compares it against the stored values, scatters the changed
cells and only then tells observers; ``GameWorld.set_column`` hands each
change hook one column event of the changed cells.  These tests pin that
path against the per-cell reference it replaced; pin
validate-before-write (a bad value writes nothing and tells
no one); and pin that a gateway fed column events streams exactly the
deltas it streams when fed per-cell row events.
"""

import math
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterCoordinator, StaticGridPlacement
from repro.consistency import StaticGridPartitioner
from repro.core import GameWorld, schema
from repro.core.component import FieldDef
from repro.errors import ComponentMissingError, SchemaError
from repro.gateway.streams import ClientStreamState, ClusterView, InterestStream
from repro.spatial import AABB

try:
    import numpy
except ImportError:  # pragma: no cover - numpy-less host
    numpy = None

# Where a caller may hold a float column before writing it.
SOURCES = ["array", "object"] + (["numpy"] if numpy is not None else [])


def _floats_from(source, values):
    """``values`` as an ``array('d')``, a float64 numpy array or a plain list."""
    if source == "array":
        return array("d", values)
    if source == "numpy":
        return numpy.array(values, dtype=numpy.float64)
    return list(values)


def _world(cell_schema):
    world = GameWorld()
    world.catalog.define(cell_schema)
    return world


class _ColumnLog:
    """A change hook that takes column events whole."""

    def __init__(self):
        self.rows = []
        self.columns = []

    def __call__(self, op, entity_id, component, payload):
        self.rows.append((op, entity_id, component, dict(payload or {})))

    def on_column_change(self, component, field, ids, values):
        self.columns.append((component, field, list(ids), list(values)))


# -- update_column ≡ the per-cell reference loop --------------------------------


def _per_cell(world, component, field, ids, values):
    """Reference: one validated ``world.set`` per cell, in ids order."""
    for eid, value in zip(ids, values):
        world.set(eid, component, **{field: value})


_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
_small_ints = st.integers(-50, 50)
_big_ints = st.integers(2**64, 2**70)  # beyond int64


@st.composite
def _scenario(draw):
    field = draw(st.sampled_from(["x", "n"]))
    rows = draw(st.integers(1, 12))
    deletes = draw(st.lists(st.integers(0, 11), max_size=4))
    order = draw(st.sampled_from(["row", "shuffled", "subset", "duplicates"]))
    if field == "x":  # ints into a float field, repeats of stored values
        value = st.one_of(_floats, _small_ints, st.sampled_from([0.0, -0.0, 1.0]))
    else:
        value = st.one_of(_small_ints, _big_ints, st.just(0))
    width = draw(st.integers(0, 16))
    return {
        "field": field,
        "rows": rows,
        "deletes": deletes,
        "order": order,
        "values": draw(st.lists(value, min_size=width, max_size=width)),
        "indexed": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
    }


def _build(sc):
    world = _world(schema("Cell", x="float", n=("int", 0)))
    for i in range(sc["rows"]):
        world.spawn(Cell={"x": float(i % 3), "n": i % 3})
    for d in sc["deletes"]:
        live = world.table("Cell").entity_ids
        if len(live) > 1:
            world.destroy(live[d % len(live)])  # swap-delete
    if sc["indexed"]:
        world.index_manager("Cell").create_sorted_index(sc["field"])
    observed = []
    world.table("Cell").add_observer(
        lambda kind, eid, payload: observed.append((kind, eid, dict(payload)))
    )
    log = _ColumnLog()
    world.add_change_hook(log)
    return world, observed, log


def _target_ids(sc, live):
    rng = random.Random(sc["seed"])
    order = sc["order"]
    if order == "row":
        return list(live)
    if order == "shuffled":
        return rng.sample(live, len(live))
    if order == "subset":
        return rng.sample(live, rng.randint(0, len(live)))
    return [rng.choice(live) for _ in range(rng.randint(1, 2 * len(live)))]


def _state(world, field):
    table = world.table("Cell")
    index = world.index_manager("Cell").sorted_index(field)
    return {
        "cells": [repr(v) for v in table.column(field)],  # -0.0 != 0.0 here
        "version": table.version,
        "index": None if index is None else index.ordered_ids(),
    }


class TestUpdateColumnEquivalence:
    @settings(max_examples=250, deadline=None)
    @given(sc=_scenario())
    def test_matches_per_cell_loop(self, sc):
        field = sc["field"]
        fast, fast_obs, fast_log = _build(sc)
        ref, ref_obs, ref_log = _build(sc)
        ids = _target_ids(sc, list(fast.table("Cell").entity_ids))
        values = sc["values"]

        changed = fast.set_column("Cell", field, ids, values)
        _per_cell(ref, "Cell", field, ids, values)

        assert _state(fast, field) == _state(ref, field)
        assert fast_obs == ref_obs  # (old, new) per changed cell, ids order
        assert changed == len(ref_obs) == len(ref_log.rows)
        # One column event carrying exactly the reference's changed cells.
        expected = [(eid, p[field]) for _op, eid, _c, p in ref_log.rows]
        if expected:
            (comp, fname, ev_ids, ev_values), = fast_log.columns
            assert (comp, fname) == ("Cell", field)
            assert list(zip(ev_ids, ev_values)) == expected
        else:
            assert fast_log.columns == []
        assert fast_log.rows == []  # a column write has no row echo
        index = fast.index_manager("Cell").sorted_index(field)
        if index is not None:
            table = fast.table("Cell")
            assert index.ordered_ids() == sorted(
                table.entity_ids, key=lambda e: (table.get_field(e, field), e)
            )

    @pytest.mark.parametrize("source", SOURCES)
    def test_table_count_matches_event(self, source):
        world = _world(schema("Cell", x="float"))
        ids = [world.spawn(Cell={"x": 0.0}) for _ in range(4)]
        table = world.table("Cell")
        values = _floats_from(source, [0, 1, 0, 2])
        if source == "object":
            values = [0, 1, 0.0, 2]  # ints in a float column are coerced
        assert table.update_column("x", ids, values) == 2
        ids_out, values_out = table.write_column(
            "x", ids, _floats_from(source, [0.0, 1.0, 5.0, 2.0])
        )
        assert (ids_out, values_out) == ([ids[2]], [5.0])
        assert type(values_out[0]) is float
        # Pairs beyond the shorter sequence are ignored, as zip would.
        assert table.update_column("x", ids, _floats_from(source, [9.0])) == 1
        assert table.update_column("x", ids[:1], _floats_from(source, [9.0, 7.0])) == 0
        assert table.column("x") == (9.0, 1.0, 5.0, 2.0)
        assert all(type(x) is float for x in table.column("x"))


# -- validate before write ----------------------------------------------------------


class TestValidateBeforeWrite:
    @pytest.mark.parametrize("reverse", [False, True], ids=["row", "reversed"])
    def test_bad_value_writes_nothing_and_tells_no_one(self, reverse):
        world = _world(schema("Cell", v="float"))
        ids = [world.spawn(Cell={"v": 0.0}) for _ in range(5)]
        world.index_manager("Cell").create_sorted_index("v")
        log = _ColumnLog()
        world.add_change_hook(log)
        table = world.table("Cell")
        index = world.index_manager("Cell").sorted_index("v")
        before = (table.column("v"), table.version, index.ordered_ids())
        target = ids[::-1] if reverse else ids
        with pytest.raises(SchemaError, match="expects float, got str"):
            world.set_column("Cell", "v", target, [1.0, 2.0, "bad", 4.0, 5.0])
        assert (table.column("v"), table.version, index.ordered_ids()) == before
        assert index.range(0.5, None) == []
        assert (log.rows, log.columns) == ([], [])

    @pytest.mark.parametrize("source", SOURCES)
    def test_missing_entity_writes_nothing(self, source):
        world = _world(schema("Cell", v="float"))
        ids = [world.spawn(Cell={"v": 0.0}) for _ in range(3)]
        table = world.table("Cell")
        version = table.version
        values = _floats_from(source, [1.0, 2.0, 3.0])
        with pytest.raises(ComponentMissingError, match="entity 9999 "):
            table.update_column("v", [ids[0], 9999, ids[2]], values)
        assert table.column("v") == (0.0, 0.0, 0.0)
        assert table.version == version


_mixed = st.one_of(
    _floats, _small_ints, _big_ints, st.booleans(), st.none(), st.just(math.nan),
    st.text(max_size=2), st.binary(max_size=2),
)


class TestValidateColumn:
    @settings(max_examples=300, deadline=None)
    @given(
        fdef=st.sampled_from([
            FieldDef("f", "float"), FieldDef("i", "int"), FieldDef("e", "entity"),
            FieldDef("s", "str"), FieldDef("b", "bool"), FieldDef("o", "blob"),
            FieldDef("r", "entity", nullable=True),
        ]),
        values=st.lists(_mixed, max_size=6),
    )
    def test_same_result_or_error_as_per_value(self, fdef, values):
        try:
            expected = [fdef.validate(v) for v in values]
        except (SchemaError, OverflowError) as exc:
            with pytest.raises(type(exc)) as got:
                fdef.validate_column(values)
            assert str(got.value) == str(exc)
        else:
            got = fdef.validate_column(values)
            assert [(type(v), repr(v)) for v in got] == [
                (type(v), repr(v)) for v in expected
            ]


# -- the gateway: column events ≡ per-cell row events --------------------------------


WALL = 150.0


def _drift(world, ids, cols, dt):
    # Clamped to the map, so stopped entities write unchanged cells that
    # must stay clean.
    return {
        f"Position.{axis}": [
            max(0.0, min(WALL, p + v))
            for p, v in zip(cols[f"Position.{axis}"], cols[f"Velocity.v{axis}"])
        ]
        for axis in ("x", "y")
    }


def _drift_one(world, eid, dt):
    pos, vel = world.get(eid, "Position"), world.get(eid, "Velocity")
    world.set(
        eid, "Position",
        x=max(0.0, min(WALL, pos["x"] + vel["vx"])),
        y=max(0.0, min(WALL, pos["y"] + vel["vy"])),
    )


def _stream_run(seed, batch, ticks=40):
    cluster = ClusterCoordinator(
        2,
        StaticGridPlacement(
            StaticGridPartitioner(AABB(0.0, 0.0, 200.0, 200.0), 4, 4, 2)
        ),
        [
            schema("Position", x="float", y="float"),
            schema("Velocity", vx=("float", 0.0), vy=("float", 0.0)),
        ],
        seed=seed,
        repartition_interval=5,
    )
    rng = random.Random(seed)
    eids = [
        cluster.spawn({
            "Position": {"x": rng.uniform(0, 140), "y": rng.uniform(0, 140)},
            "Velocity": {"vx": rng.uniform(0, 3), "vy": rng.uniform(0, 3)},
        })
        for _ in range(80)
    ]
    if batch:
        cluster.add_batch_system(
            "drift",
            reads=["Position.x", "Position.y", "Velocity.vx", "Velocity.vy"],
            fn=_drift, writes=["Position.x", "Position.y"],
        )
    else:
        cluster.add_per_entity_system("drift", ["Position", "Velocity"], _drift_one)
    view = ClusterView(cluster)
    stream = InterestStream(view, default_radius=25.0)
    avatars = eids[:6]
    states = {a: ClientStreamState() for a in avatars}
    deltas = []
    for tick in range(ticks):
        eid = rng.choice(eids)
        host = cluster.shard(cluster.owner_of(eid))
        if tick % 4 == 0 and host.owns(eid) and not cluster.in_flight_handoffs:
            # A row write beside the column writes.
            host.world.set(
                eid, "Velocity", vx=rng.uniform(-3, 3), vy=rng.uniform(-3, 3)
            )
        cluster.tick()
        stream.begin_tick({25.0: avatars})
        deltas.append([stream.delta_for(states[a], a, (a,)) for a in avatars])
    suppressed = [states[a].updates_suppressed for a in avatars]
    view.close()
    return cluster, deltas, suppressed


class TestClusterViewColumnEvents:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_same_deltas_as_per_cell_path(self, seed):
        # Reference: per-entity writes, each heard as a row event.
        ref_cluster, ref_deltas, ref_suppressed = _stream_run(seed, batch=False)
        assert ref_cluster.stats().migrations > 0
        assert any(d.updates for tick in ref_deltas for d in tick)
        assert any(d.enters for tick in ref_deltas for d in tick)
        # Column writes, heard as column events.
        cluster, deltas, suppressed = _stream_run(seed, batch=True)
        assert cluster.state_hash() == ref_cluster.state_hash()
        assert deltas == ref_deltas
        assert suppressed == ref_suppressed
