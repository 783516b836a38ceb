"""`GameWorld` — the facade tying the game database together.

The world owns: the entity allocator, one columnar table per registered
component type, per-table index managers, the query planner, the event
bus, the frame clock, and the system scheduler.  One call —
:meth:`GameWorld.tick` — advances the simulation a frame: systems run in
priority order, deferred events flush, and the frame budget is closed.

This is the "in-memory database layer that processes all actions"
described in the tutorial's Engineering Challenges section; the
persistence package journals its mutations via a change hook.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.core.aggregates import AggregateView, TopKView
from repro.core.clock import FrameBudget, FrameClock
from repro.core.component import ComponentSchema
from repro.core.entity import EntityAllocator, EntityHandle
from repro.core.events import Event, EventBus
from repro.core.indexes import IndexAdvisor, IndexManager
from repro.core.plancache import PlanCache
from repro.core.planner import Planner
from repro.core.predicates import Predicate
from repro.core.query import Query, nearest_neighbors
from repro.core.systems import (
    BatchSystem,
    FunctionSystem,
    PerEntitySystem,
    System,
    SystemScheduler,
)
from repro.core.table import ComponentTable
from repro.errors import UnknownComponentError
from repro.obs import Observability, resolve_obs
from repro.schema.catalog import Catalog

#: Row-event signature: (op, entity_id, component, payload) with op in
#: "spawn" | "destroy" | "attach" | "detach" | "update".
ChangeHook = Callable[[str, int, str | None, Mapping[str, Any] | None], None]

#: Column-event signature: (component, field, entity_ids, values), one call
#: per :meth:`GameWorld.set_column`, carrying only the changed cells.
ColumnHook = Callable[[str, str, Sequence[int], Sequence[Any]], None]


class GameWorld:
    """The authoritative in-memory game database.

    Parameters
    ----------
    dt:
        Fixed simulation timestep in seconds (default 1/30).
    frame_budget_seconds:
        Wall-clock budget per frame for the scheduler's budget report;
        defaults to ``dt``.
    obs:
        Observability bundle (metrics/tracer/recorder).  Defaults to the
        session default (usually disabled).  The frame budget keeps a
        private registry regardless — budget cells are labelled only by
        system name, and sharing one registry across the many worlds of
        a cluster would merge their per-frame timings.
    """

    def __init__(
        self,
        dt: float = 1.0 / 30.0,
        frame_budget_seconds: float | None = None,
        obs: Observability | None = None,
    ):
        self.obs = resolve_obs(obs)
        self.clock = FrameClock(dt)
        self.budget = FrameBudget(frame_budget_seconds or dt)
        self.events = EventBus()
        self.scheduler = SystemScheduler()
        self.index_advisor = IndexAdvisor()
        self.planner = Planner(self)
        self.plan_cache = PlanCache(self)
        self._allocator = EntityAllocator()
        self._tables: dict[str, ComponentTable] = {}
        self._indexes: dict[str, IndexManager] = {}
        self._components_of: dict[int, set[str]] = {}
        self._change_hooks: list[ChangeHook] = []
        #: Each hook's resolved ``on_column_change``, index-aligned.
        self._column_hooks: list[ColumnHook] = []
        #: The schema catalog: define / alter / describe component types.
        self.catalog = Catalog(self)
        self.obs.register_stats("plan_cache", self.plan_cache.stats)
        self.obs.register_stats("schema_catalog", self.catalog.stats)

    # ------------------------------------------------------------------ schema

    def _install_table(self, schema: ComponentSchema) -> ComponentTable:
        """Create the table + index manager for a catalog define."""
        if schema.name in self._tables:
            raise UnknownComponentError(
                f"component {schema.name!r} already registered"
            )
        table = ComponentTable(schema)
        self._tables[schema.name] = table
        self._indexes[schema.name] = IndexManager(table)
        return table

    def component_names(self) -> tuple[str, ...]:
        """All registered component type names."""
        return tuple(self._tables)

    def table(self, component: str) -> ComponentTable:
        """The columnar table backing ``component``."""
        try:
            return self._tables[component]
        except KeyError:
            raise UnknownComponentError(
                f"component {component!r} is not registered; "
                f"known: {sorted(self._tables)}"
            ) from None

    def index_manager(self, component: str) -> IndexManager:
        """The index manager for ``component``."""
        self.table(component)
        return self._indexes[component]

    # ------------------------------------------------------------- change hooks

    def add_change_hook(self, hook: ChangeHook) -> None:
        """Register a hook receiving every logical state change.

        Row events arrive as ``hook(op, entity_id, component, payload)``.
        A :meth:`set_column` write arrives as one column event on the
        hook's ``on_column_change(component, field, ids, values)`` — on
        the hook itself, or on its owner when the hook is a bound
        method (e.g. ``ClusterView._on_change``).  A hook without one
        would silently miss every set-at-a-time write, so it raises
        :class:`TypeError`.
        """
        owner = getattr(hook, "__self__", hook)
        on_column = getattr(owner, "on_column_change", None)
        if on_column is None:
            raise TypeError(
                f"change hook {hook!r} has no on_column_change(component, "
                f"field, ids, values); it would miss every set_column write"
            )
        self._change_hooks.append(hook)
        self._column_hooks.append(on_column)

    def remove_change_hook(self, hook: ChangeHook) -> None:
        """Unregister a change hook."""
        i = self._change_hooks.index(hook)
        del self._change_hooks[i]
        del self._column_hooks[i]

    def _emit_change(
        self,
        op: str,
        entity_id: int,
        component: str | None = None,
        payload: Mapping[str, Any] | None = None,
    ) -> None:
        for hook in self._change_hooks:
            hook(op, entity_id, component, payload)

    # -------------------------------------------------------------- entity CRUD

    def spawn(self, **components: Mapping[str, Any]) -> int:
        """Create an entity with the given components.

        >>> eid = world.spawn(Position={"x": 0, "y": 0}, Health={"hp": 50})
        """
        entity_id = self._allocator.allocate()
        self._components_of[entity_id] = set()
        self._emit_change("spawn", entity_id)
        for comp, values in components.items():
            self.attach(entity_id, comp, **values)
        return entity_id

    def spawn_handle(self, **components: Mapping[str, Any]) -> EntityHandle:
        """Like :meth:`spawn` but returns an :class:`EntityHandle`."""
        return EntityHandle(self, self.spawn(**components))

    def destroy(self, entity_id: int) -> None:
        """Destroy an entity, detaching all of its components."""
        self._allocator.require(entity_id)
        for comp in tuple(self._components_of.get(entity_id, ())):
            self.detach(entity_id, comp)
        del self._components_of[entity_id]
        self._allocator.free(entity_id)
        self._emit_change("destroy", entity_id)

    def exists(self, entity_id: int) -> bool:
        """Whether the entity id refers to a live entity."""
        return self._allocator.is_live(entity_id)

    @property
    def entity_count(self) -> int:
        """Number of live entities."""
        return self._allocator.live_count

    def entities(self) -> tuple[int, ...]:
        """Snapshot of all live entity ids."""
        return self._allocator.live_ids()

    def handle(self, entity_id: int) -> EntityHandle:
        """Wrap an existing entity id in a handle (validating it)."""
        self._allocator.require(entity_id)
        return EntityHandle(self, entity_id)

    def components_of(self, entity_id: int) -> tuple[str, ...]:
        """Names of components attached to ``entity_id``."""
        self._allocator.require(entity_id)
        return tuple(sorted(self._components_of[entity_id]))

    # --------------------------------------------------------- component access

    def attach(self, entity_id: int, component: str, **values: Any) -> dict[str, Any]:
        """Attach a component instance to an entity."""
        self._allocator.require(entity_id)
        row = self.table(component).insert(entity_id, values)
        self._components_of[entity_id].add(component)
        self._emit_change("attach", entity_id, component, row)
        return row

    def detach(self, entity_id: int, component: str) -> dict[str, Any]:
        """Detach a component from an entity; returns its last values."""
        self._allocator.require(entity_id)
        row = self.table(component).delete(entity_id)
        self._components_of[entity_id].discard(component)
        self._emit_change("detach", entity_id, component, row)
        return row

    def has(self, entity_id: int, component: str) -> bool:
        """Whether the entity carries ``component``."""
        return self.exists(entity_id) and entity_id in self.table(component)

    def get(self, entity_id: int, component: str) -> dict[str, Any]:
        """Copy of an entity's component row."""
        self._allocator.require(entity_id)
        return self.table(component).get(entity_id)

    def get_field(self, entity_id: int, component: str, field: str) -> Any:
        """One component field (O(1))."""
        self._allocator.require(entity_id)
        return self.table(component).get_field(entity_id, field)

    def set(self, entity_id: int, component: str, **values: Any) -> dict[str, Any]:
        """Update component fields; returns the delta ``{field: (old, new)}``."""
        self._allocator.require(entity_id)
        delta = self.table(component).update(entity_id, values)
        if delta:
            self._emit_change(
                "update", entity_id, component, {f: nv for f, (_o, nv) in delta.items()}
            )
        return delta

    def set_column(
        self,
        component: str,
        field: str,
        entity_ids: "Iterable[int]",
        values: "Iterable[Any]",
    ) -> int:
        """Set-at-a-time write of one field across many entities.

        The columnar fast path behind :class:`BatchSystem`: index and
        aggregate maintenance stay exact (the table emits per-entity
        deltas to its observers), and every change hook receives one
        column event ``(component, field, ids, values)`` holding only the
        cells that changed (see :meth:`add_change_hook`).  Returns the
        number of changed cells.
        """
        ids, vals = self.table(component).write_column(field, entity_ids, values)
        if ids:
            for on_column in self._column_hooks:
                on_column(component, field, ids, vals)
        return len(ids)

    def update_batch(
        self,
        component: str,
        entity_ids: "Iterable[int]",
        columns: "Mapping[str, Iterable[Any]]",
    ) -> int:
        """Bulk write-back of several columns at once; returns changed cells.

        The write half of set-at-a-time script execution: a lowered script
        loop computes new column values for the whole entity set, then
        lands them here in one call per field.  Each field goes through
        :meth:`set_column`, so validation, index maintenance, and change
        hooks behave exactly as if the script had written row by row.
        """
        ids = list(entity_ids)
        changed = 0
        for field, values in columns.items():
            changed += self.set_column(component, field, ids, values)
        return changed

    # ----------------------------------------------------------------- queries

    def query(self, component: str) -> Query:
        """Start a declarative query rooted at ``component``."""
        return Query(self, component)

    def nearest(
        self, component: str, cx: float, cy: float, k: int = 1
    ) -> list[tuple[int, float]]:
        """K-nearest entities carrying ``component`` to a point."""
        return nearest_neighbors(self, component, cx, cy, k)

    # -------------------------------------------------------------- aggregates

    def create_aggregate(
        self,
        component: str,
        agg: str,
        field: str | None = None,
        where: Predicate | None = None,
        group_by: str | None = None,
    ) -> AggregateView:
        """Create an incrementally-maintained aggregate view."""
        return AggregateView(self.table(component), agg, field, where, group_by)

    def create_topk(
        self,
        component: str,
        field: str,
        k: int,
        largest: bool = True,
        where: Predicate | None = None,
    ) -> TopKView:
        """Create an incrementally-maintained TOP-K view."""
        return TopKView(self.table(component), field, k, largest, where)

    # ------------------------------------------------------------------ systems

    def add_system(
        self, system: System | Callable[..., Any], priority: int | None = None
    ) -> System:
        """Register a system with the scheduler.

        Accepts a :class:`System` instance or a plain callable decorated
        with :func:`repro.core.systems.system` — the decorator's
        name/interval/priority are honoured (an explicit ``priority``
        argument wins over the decorator's).
        """
        if not isinstance(system, System):
            if priority is None:
                priority = getattr(system, "__system_priority__", 100)
            system = FunctionSystem.from_callable(system)
        return self.scheduler.add(system, 100 if priority is None else priority)

    def add_function_system(
        self,
        name: str,
        fn: Callable[["GameWorld", float], None],
        priority: int = 100,
        interval: int = 1,
    ) -> System:
        """Register a plain function as a system."""
        return self.scheduler.add(FunctionSystem(name, fn, interval), priority)

    def add_per_entity_system(
        self,
        name: str,
        components: Iterable[str],
        fn: Callable[["GameWorld", int, float], None],
        priority: int = 100,
        interval: int = 1,
    ) -> System:
        """Register a tuple-at-a-time system."""
        return self.scheduler.add(
            PerEntitySystem(name, tuple(components), fn, interval), priority
        )

    def add_batch_system(
        self,
        name: str,
        reads: Iterable[str],
        fn: Callable[..., dict | None],
        priority: int = 100,
        interval: int = 1,
        writes: Iterable[str] | None = None,
    ) -> System:
        """Register a set-at-a-time (columnar) system.

        Passing ``writes`` declares the column refs the callback may
        return; a write outside the declaration raises.
        """
        return self.scheduler.add(
            BatchSystem(
                name,
                tuple(reads),
                fn,
                interval,
                writes=None if writes is None else tuple(writes),
            ),
            priority,
        )

    # --------------------------------------------------------------------- tick

    def tick(self) -> int:
        """Advance the world one frame; returns the new tick number."""
        tracer = self.obs.tracer
        if not tracer.enabled:
            return self._tick_body()
        tracer.begin_tick(self.clock.tick + 1)
        with tracer.span("tick", cat="core", entities=self.entity_count):
            return self._tick_body()

    def _tick_body(self) -> int:
        tick = self.clock.advance()
        self.scheduler.run_tick(self, tick, self.clock.dt, self.budget)
        self.catalog.pump()
        self.events.flush_deferred()
        self.budget.end_frame()
        return tick

    def run(self, frames: int) -> None:
        """Advance ``frames`` frames."""
        for _ in range(frames):
            self.tick()

    def emit(self, topic: str, data: dict | None = None, source: int | None = None, importance: float = 0.0) -> int:
        """Publish a game event stamped with the current tick."""
        return self.events.publish(
            Event(topic, data or {}, source=source, tick=self.clock.tick, importance=importance)
        )

    # ---------------------------------------------------------------- snapshots

    def snapshot(self) -> dict[str, Any]:
        """Deep-copyable snapshot of all entity/component state.

        Used by checkpointing and by tests asserting recovery fidelity.
        The snapshot contains only plain python data.
        """
        return {
            "entities": {
                eid: sorted(comps) for eid, comps in self._components_of.items()
            },
            "tables": {
                name: {eid: row for eid, row in table.rows()}
                for name, table in self._tables.items()
            },
            "tick": self.clock.tick,
        }

    def snapshot_entity(self, entity_id: int) -> dict[str, dict[str, Any]]:
        """Snapshot one entity as ``{component: row}`` plain data.

        The unit of cross-shard migration: together with
        :meth:`restore_entity` it moves an entity between worlds while
        preserving its id.
        """
        self._allocator.require(entity_id)
        return {
            comp: self.table(comp).get(entity_id)
            for comp in sorted(self._components_of[entity_id])
        }

    def restore_entity(
        self, entity_id: int, components: Mapping[str, Mapping[str, Any]]
    ) -> int:
        """Install an entity under an exact, externally-allocated id.

        The inverse of :meth:`snapshot_entity`; used by cluster shards
        accepting a handoff.  Change hooks observe a normal spawn.
        """
        self._allocator.adopt(entity_id)
        self._components_of[entity_id] = set()
        self._emit_change("spawn", entity_id)
        for comp, values in components.items():
            self.attach(entity_id, comp, **values)
        return entity_id

    def state_hash(self) -> str:
        """Deterministic hex digest of all entity/component state.

        Canonicalises :meth:`snapshot` (sorted entities, tables, and
        fields) before hashing, so two worlds that hold the same logical
        state hash identically regardless of insertion order.  The
        cluster's deterministic-replay tests compare these digests.
        """
        import hashlib

        snap = self.snapshot()
        parts: list[str] = [f"tick={snap['tick']}"]
        for eid in sorted(snap["entities"]):
            parts.append(f"e{eid}:{','.join(snap['entities'][eid])}")
        for name in sorted(snap["tables"]):
            rows = snap["tables"][name]
            parts.append(f"t:{name}")
            for eid in sorted(rows):
                fields = ",".join(
                    f"{k}={rows[eid][k]!r}" for k in sorted(rows[eid])
                )
                parts.append(f"{eid}|{fields}")
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Restore entity/component state from :meth:`snapshot`.

        Existing entities are destroyed first.  Entity ids are preserved
        exactly (the allocator is rebuilt), so references inside component
        data remain valid.
        """
        for eid in tuple(self._components_of):
            self.destroy(eid)
        self._allocator = EntityAllocator()
        # Rebuild allocator state to reproduce the exact ids.
        from repro.core.entity import unpack_id

        entities = snapshot["entities"]
        max_slot = -1
        for eid in entities:
            slot, _gen = unpack_id(eid)
            max_slot = max(max_slot, slot)
        self._allocator._generations = [0] * (max_slot + 1)
        used_slots = set()
        for eid in entities:
            slot, gen = unpack_id(eid)
            self._allocator._generations[slot] = gen
            self._allocator._live.add(eid)
            used_slots.add(slot)
        self._allocator._free = [
            s for s in range(max_slot + 1) if s not in used_slots
        ]
        for eid in entities:
            self._components_of[eid] = set()
            self._emit_change("spawn", eid)
        for name, rows in snapshot["tables"].items():
            for eid, row in rows.items():
                self.attach(eid, name, **row)
        self.clock.rewind_to(snapshot.get("tick", 0))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"GameWorld(entities={self.entity_count}, "
            f"components={len(self._tables)}, tick={self.clock.tick})"
        )


def diff_worlds(a: "GameWorld", b: "GameWorld") -> list[str]:
    """Human-readable divergence report between two worlds.

    Returns an empty list when the worlds hold identical logical state
    (same tick, entities, components, and field values); otherwise one
    line per difference.  ``state_hash`` says *that* two worlds diverged;
    this says *where* — the first tool to reach for when a replica or a
    replayed run stops matching its reference.
    """
    out: list[str] = []
    snap_a, snap_b = a.snapshot(), b.snapshot()
    if snap_a["tick"] != snap_b["tick"]:
        out.append(f"tick: {snap_a['tick']} != {snap_b['tick']}")
    ents_a, ents_b = snap_a["entities"], snap_b["entities"]
    for eid in sorted(set(ents_a) - set(ents_b)):
        out.append(f"entity {eid}: only in first world")
    for eid in sorted(set(ents_b) - set(ents_a)):
        out.append(f"entity {eid}: only in second world")
    for eid in sorted(set(ents_a) & set(ents_b)):
        if ents_a[eid] != ents_b[eid]:
            out.append(
                f"entity {eid}: components {ents_a[eid]} != {ents_b[eid]}"
            )
    tables_a, tables_b = snap_a["tables"], snap_b["tables"]
    for name in sorted(set(tables_a) & set(tables_b)):
        rows_a, rows_b = tables_a[name], tables_b[name]
        for eid in sorted(set(rows_a) & set(rows_b)):
            row_a, row_b = rows_a[eid], rows_b[eid]
            for fieldname in sorted(set(row_a) | set(row_b)):
                va, vb = row_a.get(fieldname), row_b.get(fieldname)
                if va != vb:
                    out.append(
                        f"{name}[{eid}].{fieldname}: {va!r} != {vb!r}"
                    )
    return out
