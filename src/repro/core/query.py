"""Declarative entity queries — the library's front door.

A :class:`Query` describes *what* entities you want ("all goblins with
hp < 20 within 50 units of the player"), not *how* to find them; the
planner (:mod:`repro.core.planner`) picks the cheapest access path.  This
is the tutorial's central pitch: replace hand-written per-frame loops with
declarative processing so the engine, not the designer, owns performance.

Example
-------
>>> results = (world.query("Position")
...     .join("Health").join("Faction")
...     .where("Faction", F.name == "goblin")
...     .where("Health", F.hp < 20)
...     .within(px, py, 50.0)
...     .order_by("Health", "hp")
...     .limit(5)
...     .execute())
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterator, TYPE_CHECKING

from repro.core.predicates import And, Custom, Predicate
from repro.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.world import GameWorld

#: Execution modes accepted by :meth:`Query.execute`.
EXECUTE_MODES = ("auto", "tuple", "batch")


@dataclass
class SpatialClause:
    """A ``within(cx, cy, radius)`` clause bound to one component."""

    component: str
    cx: float
    cy: float
    radius: float
    x_field: str = "x"
    y_field: str = "y"

    def as_predicate(self) -> Predicate:
        """Row-level fallback check used when no spatial index exists."""
        cx, cy, r2 = self.cx, self.cy, self.radius * self.radius
        xf, yf = self.x_field, self.y_field

        def check(row: Any) -> bool:
            dx = row[xf] - cx
            dy = row[yf] - cy
            return dx * dx + dy * dy <= r2

        return Custom(check, referenced=frozenset((xf, yf)))


class ResultRow:
    """One query result: an entity id plus its queried component rows.

    Component rows are copies; mutate via ``world.set`` so indexes and
    aggregate views observe the change.
    """

    __slots__ = ("entity", "_components")

    def __init__(self, entity: int, components: dict[str, dict[str, Any]]):
        self.entity = entity
        self._components = components

    def __getitem__(self, component: str) -> dict[str, Any]:
        try:
            return self._components[component]
        except KeyError:
            raise QueryError(
                f"result does not include component {component!r}"
            ) from None

    def get(self, component: str, field: str) -> Any:
        """Shorthand for ``row[component][field]``."""
        return self[component][field]

    def components(self) -> tuple[str, ...]:
        return tuple(self._components)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ResultRow(entity={self.entity}, {self._components})"


class ResultSet:
    """The result of one :meth:`Query.execute` call.

    One object, three views of the same matching entities:

    * :attr:`ids` — the ordered entity-id list (the cheapest view);
    * :meth:`rows` — materialized :class:`ResultRow` objects;
    * :meth:`columns` — ``{"Comp.field": tuple_of_values}`` column slices,
      the shape batch systems and benchmarks consume.

    The set is also a sequence of :class:`ResultRow` (iteration, ``len``,
    indexing), so pre-redesign call sites that looped over
    ``query.execute()`` keep working unchanged.  Rows materialize lazily;
    the id list is computed exactly once at execute time.
    """

    __slots__ = ("_world", "_component_names", "_ids", "mode")

    def __init__(
        self,
        world: "GameWorld",
        component_names: tuple[str, ...],
        ids: list[int],
        mode: str,
    ):
        self._world = world
        self._component_names = component_names
        self._ids = ids
        #: Which execution path actually ran: ``"tuple"`` or ``"batch"``.
        self.mode = mode

    @property
    def ids(self) -> list[int]:
        """Matching entity ids in result order."""
        return self._ids

    def _row(self, entity_id: int) -> ResultRow:
        return ResultRow(
            entity_id,
            {
                c: self._world.table(c).get(entity_id)
                for c in self._component_names
            },
        )

    def rows(self) -> list[ResultRow]:
        """Materialize every result as a :class:`ResultRow`."""
        return [self._row(eid) for eid in self._ids]

    def columns(self, *refs: str) -> dict[str, tuple[Any, ...]]:
        """Column slices for ``"Component.field"`` references.

        Values align with :attr:`ids` position-for-position — the layout
        batch systems and vectorized workloads consume directly.
        """
        if not refs:
            raise QueryError("columns() needs at least one 'Comp.field' ref")
        out: dict[str, tuple[Any, ...]] = {}
        for ref in refs:
            comp, _, fld = ref.partition(".")
            if not fld:
                raise QueryError(f"column ref {ref!r} must be 'Comp.field'")
            if comp not in self._component_names:
                raise QueryError(
                    f"column ref {ref!r} names a component outside the query"
                )
            out[ref] = tuple(self._world.table(comp).gather(fld, self._ids))
        return out

    def first(self) -> ResultRow | None:
        """The first result row, or None when the set is empty."""
        return self._row(self._ids[0]) if self._ids else None

    def __iter__(self) -> Iterator[ResultRow]:
        return (self._row(eid) for eid in self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._row(eid) for eid in self._ids[index]]
        return self._row(self._ids[index])

    def __repr__(self) -> str:  # pragma: no cover
        return f"ResultSet({len(self._ids)} rows, mode={self.mode!r})"


class Query:
    """Builder for declarative queries over one or more components.

    Instances are immutable-ish builders: every clause method returns
    ``self`` for chaining but queries may also be stored and re-executed;
    each :meth:`execute` replans against current statistics.
    """

    def __init__(self, world: "GameWorld", component: str):
        self.world = world
        world.table(component)  # validate early
        self._components: list[str] = [component]
        self._predicates: dict[str, list[Predicate]] = {}
        self._spatial: dict[str, SpatialClause] = {}
        self._order: tuple[str, str, bool] | None = None
        self._limit: int | None = None

    # -- clause builders -------------------------------------------------------

    def join(self, component: str) -> "Query":
        """Require the entity to also have ``component`` (entity-id join)."""
        self.world.table(component)
        if component in self._components:
            raise QueryError(f"component {component!r} already in query")
        self._components.append(component)
        return self

    def where(self, component: str, predicate: Predicate) -> "Query":
        """Add a predicate over ``component``'s fields (ANDed together)."""
        if component not in self._components:
            raise QueryError(
                f"where() on {component!r} which is not part of the query; "
                f"call join({component!r}) first"
            )
        self._predicates.setdefault(component, []).append(predicate)
        return self

    def within(
        self,
        cx: float,
        cy: float,
        radius: float,
        component: str | None = None,
        x_field: str = "x",
        y_field: str = "y",
    ) -> "Query":
        """Restrict to entities within ``radius`` of ``(cx, cy)``.

        ``component`` defaults to the root component of the query and must
        carry the two position fields.
        """
        if radius < 0:
            raise QueryError("radius must be non-negative")
        comp = component or self._components[0]
        if comp not in self._components:
            raise QueryError(f"within() on unjoined component {comp!r}")
        if comp in self._spatial:
            raise QueryError(f"component {comp!r} already has a within() clause")
        self._spatial[comp] = SpatialClause(comp, cx, cy, radius, x_field, y_field)
        return self

    def order_by(
        self, component: str, field: str, descending: bool = False
    ) -> "Query":
        """Sort results by one field."""
        if component not in self._components:
            raise QueryError(f"order_by() on unjoined component {component!r}")
        self.world.table(component).schema.field(field)
        self._order = (component, field, descending)
        return self

    def limit(self, n: int) -> "Query":
        """Keep only the first ``n`` results (after ordering)."""
        if n < 0:
            raise QueryError("limit must be non-negative")
        self._limit = n
        return self

    # -- planner interface --------------------------------------------------------

    def component_names(self) -> tuple[str, ...]:
        """Components referenced by this query, root first."""
        return tuple(self._components)

    def predicate_for(self, component: str) -> Predicate | None:
        """The ANDed predicate for a component, or None."""
        preds = self._predicates.get(component)
        if not preds:
            return None
        if len(preds) == 1:
            return preds[0]
        return And(preds)

    def spatial_for(self, component: str) -> SpatialClause | None:
        """The spatial clause bound to a component, or None."""
        return self._spatial.get(component)

    def order_spec(self) -> tuple[str, str, bool] | None:
        """The ``(component, field, descending)`` ordering, or None."""
        return self._order

    def limit_spec(self) -> int | None:
        """The result limit, or None."""
        return self._limit

    # -- execution ------------------------------------------------------------------

    def prepare(self) -> "PreparedQuery":
        """Bake the current plan into a reusable prepared query.

        Games run the same queries every frame; preparing skips replanning
        on each execution (the prepared-statement idea).  The plan is
        refreshed automatically when any involved component's index
        *catalog* changes; data changes never invalidate it because access
        paths read live index state.
        """
        return PreparedQuery(self)

    def explain(self) -> str:
        """Render the plan this query would execute with right now.

        Goes through the plan cache, so EXPLAIN shows exactly what a
        subsequent :meth:`execute` call will run — cached or fresh.
        """
        return self.world.plan_cache.lookup(self).describe()

    def execute(self, mode: str = "auto") -> ResultSet:
        """Execute the query; the one entry point for all result shapes.

        ``mode`` selects the execution engine:

        * ``"tuple"`` — tuple-at-a-time: walk the access path, evaluate
          the residual per row;
        * ``"batch"`` — set-at-a-time: gather referenced columns once and
          run compiled vector filters (the paper's recommended style);
        * ``"auto"`` (default) — batch when the plan has residual
          predicates to vectorize, tuple otherwise; if the batch engine
          fails, fall back to the tuple engine *on the same plan*.

        Exactly one plan-cache lookup happens per call regardless of mode
        or fallback, so plan-cache hit counts and advisor-event replays
        count each execution exactly once.  Plans come from the world's
        :class:`~repro.core.plancache.PlanCache`: steady-state frames that
        repeat the same query shape skip planning entirely.
        """
        if mode not in EXECUTE_MODES:
            raise QueryError(
                f"unknown execute mode {mode!r}; expected one of {EXECUTE_MODES}"
            )
        plan = self.world.plan_cache.lookup(self)  # the one observation
        chosen = mode
        if mode == "auto":
            chosen = "batch" if plan.residual_count else "tuple"
        if chosen == "batch":
            if mode == "batch":
                ids = self._apply_order_limit(plan.execute_batch(self.world))
            else:
                try:
                    ids = self._apply_order_limit(
                        plan.execute_batch(self.world)
                    )
                except QueryError:
                    # Same plan, no second cache lookup: fallback must not
                    # double-count the observation.
                    chosen = "tuple"
                    ids = self._run_plan(plan)
        else:
            ids = self._run_plan(plan)
        return ResultSet(self.world, tuple(self._components), ids, chosen)

    def _run_plan(self, plan: Any) -> list[int]:
        ids = plan.candidates(self.world)
        if plan.residual_count:
            ids = [e for e in ids if plan.residual(e)]
        return self._apply_order_limit(ids)

    def count(self) -> int:
        """Number of matching entities."""
        return len(self.execute().ids)

    def first(self) -> ResultRow | None:
        """First result under the current ordering, or None."""
        saved = self._limit
        self._limit = 1
        try:
            return self.execute().first()
        finally:
            self._limit = saved

    def __iter__(self) -> Iterator[ResultRow]:
        return iter(self.execute())

    # -- helpers ---------------------------------------------------------------------

    def _apply_order_limit(self, ids: list[int]) -> list[int]:
        if self._order is not None:
            comp, field, desc = self._order
            table = self.world.table(comp)
            ids.sort(key=lambda e: table.get_field(e, field), reverse=desc)
        else:
            ids.sort()  # deterministic output regardless of access path
        if self._limit is not None:
            ids = ids[: self._limit]
        return ids


class PreparedQuery:
    """A query with its plan cached across executions.

    The plan is rebuilt lazily when any involved component's
    ``IndexManager.catalog_version`` changes (e.g. an index was created
    after preparation).  Use :attr:`plans_built` in tests to verify
    caching behaviour.
    """

    def __init__(self, query: Query):
        self.query = query
        self._plan = None
        self._catalog: tuple[int, ...] = ()
        self.plans_built = 0

    def _current_catalog(self) -> tuple[int, ...]:
        world = self.query.world
        return tuple(
            world.index_manager(c).catalog_version
            for c in self.query.component_names()
        )

    def _ensure_plan(self):
        catalog = self._current_catalog()
        if self._plan is None or catalog != self._catalog:
            self._plan = self.query.world.planner.plan(self.query)
            self._catalog = catalog
            self.plans_built += 1
        return self._plan

    def execute(self, mode: str = "auto") -> ResultSet:
        """Execute with the cached plan; same modes as :meth:`Query.execute`.

        The prepared path never consults the plan cache (the plan lives on
        this object), so plan-cache stats are untouched by prepared
        executions.
        """
        if mode not in EXECUTE_MODES:
            raise QueryError(
                f"unknown execute mode {mode!r}; expected one of {EXECUTE_MODES}"
            )
        plan = self._ensure_plan()
        query = self.query
        chosen = mode
        if mode == "auto":
            chosen = "batch" if plan.residual_count else "tuple"
        if chosen == "batch":
            if mode == "batch":
                ids = query._apply_order_limit(plan.execute_batch(query.world))
            else:
                try:
                    ids = query._apply_order_limit(
                        plan.execute_batch(query.world)
                    )
                except QueryError:
                    chosen = "tuple"
                    ids = query._run_plan(plan)
        else:
            ids = query._run_plan(plan)
        return ResultSet(
            query.world, query.component_names(), ids, chosen
        )

    def count(self) -> int:
        """Number of matching entities under the cached plan."""
        return len(self.execute().ids)

    def explain(self) -> str:
        """Render the cached plan (building it if needed)."""
        return self._ensure_plan().describe()


def nearest_neighbors(
    world: "GameWorld",
    component: str,
    cx: float,
    cy: float,
    k: int = 1,
    x_field: str = "x",
    y_field: str = "y",
) -> list[tuple[int, float]]:
    """K-nearest entities to ``(cx, cy)`` as ``[(entity_id, distance), ...]``.

    Uses the attached spatial index's ``query_knn`` when available, else
    falls back to a scan — mirroring how the planner degrades.
    """
    if k <= 0:
        raise QueryError("k must be positive")
    manager = world.index_manager(component)
    structure = manager.spatial_index(x_field, y_field)
    if structure is not None and hasattr(structure, "query_knn"):
        return structure.query_knn(cx, cy, k)
    table = world.table(component)
    scored = []
    for entity_id, row in table.rows():
        d = math.hypot(row[x_field] - cx, row[y_field] - cy)
        scored.append((d, entity_id))
    scored.sort()
    return [(eid, d) for d, eid in scored[:k]]
