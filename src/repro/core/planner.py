"""Rule-based query planner for declarative entity queries.

The planner turns a :class:`~repro.core.query.Query` into an access plan:

1. Pick a **driver component** and an access path for it — spatial index
   (for ``within`` clauses), hash index (equality / IN), sorted index
   (range), or full scan — preferring paths with the lowest estimated
   candidate count.
2. The remaining components become **existence probes** (an entity must
   have all queried components — the ECS equivalent of a key/foreign-key
   join, O(1) per probe via the table's slot map).
3. Unserved predicates become a **residual filter**.

``explain()`` renders the chosen plan, which the tests assert on: the whole
point of the reproduction is showing *when* the planner avoids the Ω(n²)
naive strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, TYPE_CHECKING

from repro.core.predicates import (
    Between,
    Compare,
    IsIn,
    Predicate,
    compile_batch_fn,
    compile_row_fn,
    contains_custom,
    split_sargable,
)
from repro.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.world import GameWorld


@dataclass
class AccessPath:
    """How the driver component's candidate entities are produced.

    The path stores only its *parameters* (kind, field, constants); the
    actual index is resolved by :meth:`fetch` at execute time.  This makes
    paths safe to cache: a plan built ten thousand ticks ago still reads
    live index state, and if its index was dropped in the meantime it
    degrades to a scan that re-applies the served predicates.
    """

    kind: str  # "scan" | "hash_eq" | "hash_in" | "sorted_range" | "spatial"
    component: str
    field: str | None = None
    detail: str = ""
    estimated_rows: float = 0.0
    #: execute-time parameters; interpretation depends on ``kind``
    params: tuple = ()
    #: sargable predicates fully answered by this path (excluded from residual)
    served: tuple = ()

    def describe(self) -> str:
        """One-line plan rendering, e.g. ``hash_eq(Faction.name='orc')``."""
        target = f"{self.component}.{self.field}" if self.field else self.component
        if self.detail:
            return f"{self.kind}({target} {self.detail})"
        return f"{self.kind}({target})"

    def fetch(self, world: "GameWorld") -> list[int]:
        """Produce candidate entity ids against *current* world state."""
        if self.kind == "scan":
            return world.table(self.component).scan()
        manager = world.index_manager(self.component)
        if self.kind == "hash_eq":
            index = manager.hash_index(self.field)
            if index is not None:
                return list(index.lookup(self.params[0]))
        elif self.kind == "hash_in":
            index = manager.hash_index(self.field)
            if index is not None:
                return list(index.lookup_in(self.params[0]))
        elif self.kind == "sorted_range":
            index = manager.sorted_index(self.field)
            if index is not None:
                lo, hi, lo_inc, hi_inc = self.params
                return index.range(lo, hi, lo_inc, hi_inc)
        elif self.kind == "spatial":
            x_field, y_field, cx, cy, radius = self.params
            structure = manager.spatial_index(x_field, y_field)
            if structure is not None:
                return list(structure.query_circle(cx, cy, radius))
        else:
            raise QueryError(f"unknown access path kind {self.kind!r}")
        return self._fallback_scan(world)

    def _fallback_scan(self, world: "GameWorld") -> list[int]:
        # The index this path was planned against no longer exists (dropped
        # after the plan was cached).  Degrade to a scan, but re-apply the
        # predicates the index would have served — dropping them would
        # silently widen the result set.
        preds = [
            p.as_predicate() if hasattr(p, "as_predicate") else p
            for p in self.served
        ]
        table = world.table(self.component)
        if not preds:
            return table.scan()
        return table.scan(compile_row_fn(preds))


@dataclass
class QueryPlan:
    """A fully-resolved plan: driver access path + probes + residual."""

    access: AccessPath
    probe_components: tuple[str, ...]
    residual_count: int
    residual: Callable[[int], bool]
    #: per-component residual conjuncts, the input to the batch compiler
    residual_specs: tuple[tuple[str, tuple[Predicate, ...]], ...] = ()
    #: ("hit" | "scan", component, field) advisor observations captured at
    #: plan time; the plan cache replays them on every hit so index advice
    #: stays proportional to workload executions, not to distinct shapes
    advisor_events: tuple[tuple[str, str, str], ...] = ()
    _batch_filters: list | None = field(default=None, repr=False, compare=False)

    def describe(self) -> str:
        """Multi-line EXPLAIN output."""
        lines = [f"driver: {self.access.describe()} (est {self.access.estimated_rows:.0f} rows)"]
        for comp in self.probe_components:
            lines.append(f"probe:  has_component({comp})")
        lines.append(f"filter: {self.residual_count} residual predicate(s)")
        return "\n".join(lines)

    def replay_advisor(self, advisor: Any) -> None:
        """Re-emit the advisor observations recorded at plan time."""
        for event, comp, fname in self.advisor_events:
            if event == "hit":
                advisor.record_index_hit(comp, fname)
            else:
                advisor.record_scan(comp, fname)

    def execute_batch(self, world: "GameWorld") -> list[int]:
        """Set-at-a-time execution of this plan; returns unordered ids.

        Instead of evaluating the residual row-by-row (a dict build plus
        interpreted predicate walk per candidate), the batch path gathers
        the referenced columns once per component and runs compiled vector
        filters over a shrinking selection vector.  Results are exactly
        the scalar path's set; ordering/limit are applied by the caller.
        """
        obs = getattr(world, "obs", None)
        tracer = obs.tracer if obs is not None else None
        if tracer is None or not tracer.enabled:
            return self._execute_batch(world)
        with tracer.span("query.batch", cat="query") as sp:
            ids = self._execute_batch(world)
            sp.set(driver=self.access.kind, rows=len(ids))
            return ids

    def candidates(self, world: "GameWorld") -> list[int]:
        """The access path's ids that every joined table holds, in its order.

        Set-at-a-time: one membership pass per table.  The driver pass
        drops stale index candidates.  The access path's order is kept,
        because ORDER BY breaks ties with a stable sort.
        """
        ids = self.access.fetch(world)
        for comp in (self.access.component, *self.probe_components):
            members = world.table(comp).members()
            ids = [e for e in ids if e in members]
        return ids

    def _execute_batch(self, world: "GameWorld") -> list[int]:
        ids = self.candidates(world)
        for comp, fields, batch_fn in self._filters(world):
            if not ids:
                break
            _, columns = world.table(comp).batch_rows(fields, ids)
            keep = batch_fn(columns, range(len(ids)))
            if len(keep) != len(ids):
                ids = [ids[i] for i in keep]
        return ids

    def _filters(self, world: "GameWorld") -> list:
        cached = self._batch_filters
        if cached is None:
            cached = []
            for comp, conjuncts in self.residual_specs:
                schema = world.table(comp).schema
                if any(contains_custom(c) for c in conjuncts):
                    # Custom predicates may read beyond their declared
                    # fields; gather the whole schema to stay exact.
                    fields = tuple(schema.field_names)
                else:
                    names: set[str] = set()
                    for c in conjuncts:
                        names.update(c.fields())
                    fields = tuple(sorted(names))
                cached.append((comp, fields, compile_batch_fn(conjuncts)))
            self._batch_filters = cached
        return cached


class Planner:
    """Chooses access paths using index availability and simple statistics.

    Selectivity model (deliberately crude, like early commercial
    optimizers): equality on a hash index returns ``n / distinct``;
    a range on a sorted index returns ``n / 3``; a spatial ``within``
    returns ``n * (query_area / world_area)`` when the structure knows its
    bounds, else ``n / 4``; a scan returns ``n``.
    """

    def __init__(self, world: "GameWorld"):
        self.world = world
        self.plans_built = 0

    def plan(self, query: Any) -> QueryPlan:
        """Build a :class:`QueryPlan` for a Query (see repro.core.query)."""
        self.plans_built += 1
        components = query.component_names()
        if not components:
            raise QueryError("query references no components")
        events: list[tuple[str, str, str]] = []
        candidates: list[AccessPath] = []
        for comp in components:
            candidates.extend(self._paths_for(query, comp, events))
        best = min(candidates, key=lambda p: p.estimated_rows)
        probe_components = tuple(c for c in components if c != best.component)
        residual_fn, residual_count, residual_specs = self._residual(query, best)
        plan = QueryPlan(
            access=best,
            probe_components=probe_components,
            residual_count=residual_count,
            residual=residual_fn,
            residual_specs=residual_specs,
            advisor_events=tuple(events),
        )
        plan.replay_advisor(self.world.index_advisor)
        return plan

    # -- access-path enumeration -------------------------------------------------

    def _paths_for(
        self, query: Any, comp: str, events: list[tuple[str, str, str]]
    ) -> list[AccessPath]:
        table = self.world.table(comp)
        manager = self.world.index_manager(comp)
        n = len(table)
        paths: list[AccessPath] = [
            AccessPath(
                kind="scan",
                component=comp,
                estimated_rows=float(n),
            )
        ]
        sargable, _ = split_sargable(query.predicate_for(comp))
        spatial = query.spatial_for(comp)
        if spatial is not None:
            structure = manager.spatial_index(spatial.x_field, spatial.y_field)
            if structure is not None:
                est = self._estimate_spatial(structure, spatial, n)
                paths.append(
                    AccessPath(
                        kind="spatial",
                        component=comp,
                        field=f"{spatial.x_field},{spatial.y_field}",
                        detail=f"within r={spatial.radius:g}",
                        estimated_rows=est,
                        params=(
                            spatial.x_field,
                            spatial.y_field,
                            spatial.cx,
                            spatial.cy,
                            spatial.radius,
                        ),
                        served=(spatial,),
                    )
                )
        for pred in sargable:
            pfield = next(iter(pred.fields()))
            hash_idx = manager.hash_index(pfield)
            sorted_idx = manager.sorted_index(pfield)
            if isinstance(pred, Compare) and pred.op == "==":
                if hash_idx is not None:
                    distinct = max(1, len(hash_idx.distinct_values()))
                    paths.append(
                        AccessPath(
                            kind="hash_eq",
                            component=comp,
                            field=pfield,
                            detail=f"== {pred.value!r}",
                            estimated_rows=n / distinct,
                            params=(pred.value,),
                            served=(pred,),
                        )
                    )
                    events.append(("hit", comp, pfield))
                else:
                    events.append(("scan", comp, pfield))
            elif isinstance(pred, IsIn):
                if hash_idx is not None:
                    distinct = max(1, len(hash_idx.distinct_values()))
                    paths.append(
                        AccessPath(
                            kind="hash_in",
                            component=comp,
                            field=pfield,
                            detail=f"in {len(pred.values)} values",
                            estimated_rows=n * len(pred.values) / distinct,
                            params=(pred.values,),
                            served=(pred,),
                        )
                    )
                    events.append(("hit", comp, pfield))
                else:
                    events.append(("scan", comp, pfield))
            else:
                # range-shaped predicate (<, <=, >, >=, between)
                if sorted_idx is not None:
                    paths.append(
                        AccessPath(
                            kind="sorted_range",
                            component=comp,
                            field=pfield,
                            detail=_range_detail(pred),
                            estimated_rows=max(1.0, n / 3.0),
                            params=_range_bounds(pred),
                            served=(pred,),
                        )
                    )
                    events.append(("hit", comp, pfield))
                else:
                    events.append(("scan", comp, pfield))
        return paths

    def _estimate_spatial(self, structure: Any, spatial: Any, n: int) -> float:
        bounds = getattr(structure, "bounds", None)
        area = None
        if bounds is not None:
            area = getattr(bounds, "area", None)
            if callable(area):  # AABB.area may be a method
                area = area()
        if area:
            import math

            qarea = math.pi * spatial.radius ** 2
            return max(1.0, n * min(1.0, qarea / area))
        return max(1.0, n / 4.0)

    # -- residual assembly ---------------------------------------------------------

    def _residual(
        self, query: Any, access: AccessPath
    ) -> tuple[
        Callable[[int], bool],
        int,
        tuple[tuple[str, tuple[Predicate, ...]], ...],
    ]:
        served = set(id(p) for p in access.served)
        checks: list[tuple[str, Callable[[dict], bool]]] = []
        specs: list[tuple[str, tuple[Predicate, ...]]] = []
        count = 0
        for comp in query.component_names():
            pred = query.predicate_for(comp)
            conjuncts = [] if pred is None else pred.conjuncts()
            remaining = [p for p in conjuncts if id(p) not in served]
            spatial = query.spatial_for(comp)
            if spatial is not None and id(spatial) not in served:
                remaining.append(spatial.as_predicate())
            if remaining:
                count += len(remaining)
                checks.append((comp, compile_row_fn(remaining)))
                specs.append((comp, tuple(remaining)))
        world = self.world

        def residual(entity_id: int) -> bool:
            for comp, fn in checks:
                if not fn(world.table(comp).get(entity_id)):
                    return False
            return True

        return residual, count, tuple(specs)


def _range_bounds(pred: Predicate) -> tuple[Any, Any, bool, bool]:
    """Translate a range-shaped predicate to (lo, hi, lo_inc, hi_inc)."""
    if isinstance(pred, Between):
        return pred.lo, pred.hi, True, True
    if isinstance(pred, Compare):
        if pred.op == "<":
            return None, pred.value, True, False
        if pred.op == "<=":
            return None, pred.value, True, True
        if pred.op == ">":
            return pred.value, None, False, True
        if pred.op == ">=":
            return pred.value, None, True, True
    raise QueryError(f"not a range predicate: {pred!r}")


def _range_detail(pred: Predicate) -> str:
    if isinstance(pred, Between):
        return f"between {pred.lo!r} and {pred.hi!r}"
    if isinstance(pred, Compare):
        return f"{pred.op} {pred.value!r}"
    return repr(pred)
