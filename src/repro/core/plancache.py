"""Query plan cache keyed on query shape, invalidated by statistics epochs.

Planning is cheap for one query but dominant at game scale: the same
handful of query shapes run every animation frame, and rebuilding the
plan each time is pure tuple-at-a-time overhead.  The cache keys on the
query's *shape* — component list, structural predicate signature, spatial
clause, order/limit — and tags every entry with the involved tables'
``stats_epoch``, the index catalog version, and the schema catalog
version at build time.  A lookup whose epochs still match returns the
cached plan without touching the planner; any insert/delete
(cardinalities moved), index create/drop (access paths moved), or
schema alter begin/commit (the table's shape moved) bumps an epoch and
the entry rebuilds on next use.

Plans are safe to share across calls because access paths rebind their
index at execute time (see :class:`repro.core.planner.AccessPath.fetch`)
and residual closures only capture predicate constants.  Queries whose
predicates contain :class:`~repro.core.predicates.Custom` nodes are
uncacheable — closure identity is not query shape — and simply plan
fresh, exactly as before.

On every hit the plan's recorded advisor events are replayed into the
world's :class:`~repro.core.indexes.IndexAdvisor`, so "you keep scanning
Health.hp" advice stays proportional to how often the workload *runs* a
shape, not to how often it gets planned.
"""

from __future__ import annotations

from typing import Any, TYPE_CHECKING

from repro.core.predicates import predicate_signature
from repro.core.planner import QueryPlan
from repro.obs.metrics import Counter, StatsRow

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.world import GameWorld


class PlanCacheStats(StatsRow):
    """Snapshot of the cache's registry-backed counters."""

    COLUMNS = ("entries", "hits", "misses", "invalidations", "uncacheable")


class PlanCache:
    """Shape-keyed cache of :class:`QueryPlan` objects with epoch validation.

    Parameters
    ----------
    world:
        Owning world; supplies the planner, tables, and index managers.
    max_entries:
        FIFO capacity bound.  Per-entity spatial queries (a ``within``
        around every NPC) mint a distinct signature per center, so an
        unbounded cache would grow with the entity count; a small FIFO
        keeps the steady-state shapes hot and lets one-off shapes churn.
    """

    def __init__(self, world: "GameWorld", max_entries: int = 512):
        self.world = world
        self.max_entries = max_entries
        self._entries: dict[Any, tuple[QueryPlan, tuple]] = {}
        # Counters live in the world's metrics registry when one is
        # attached (so ``obs.snapshot()`` sees them); otherwise they are
        # free-standing cells with the same API.
        obs = getattr(world, "obs", None)
        registry = obs.metrics if obs is not None else None

        def cell(name: str) -> Counter:
            if registry is not None:
                return registry.counter(f"query.plan_cache.{name}")
            return Counter(f"query.plan_cache.{name}", {})

        self._c_hits = cell("hits")
        self._c_misses = cell("misses")
        self._c_invalidations = cell("invalidations")
        self._c_uncacheable = cell("uncacheable")

    # -- counter facade (attribute API preserved) ----------------------------

    @property
    def hits(self) -> int:
        return self._c_hits.value

    @hits.setter
    def hits(self, value: int) -> None:
        self._c_hits.value = value

    @property
    def misses(self) -> int:
        return self._c_misses.value

    @misses.setter
    def misses(self, value: int) -> None:
        self._c_misses.value = value

    @property
    def invalidations(self) -> int:
        return self._c_invalidations.value

    @invalidations.setter
    def invalidations(self, value: int) -> None:
        self._c_invalidations.value = value

    @property
    def uncacheable(self) -> int:
        return self._c_uncacheable.value

    @uncacheable.setter
    def uncacheable(self, value: int) -> None:
        self._c_uncacheable.value = value

    # -- key construction ----------------------------------------------------

    def signature(self, query: Any) -> tuple | None:
        """Hashable shape key for ``query``, or None when uncacheable."""
        parts: list[Any] = []
        components = query.component_names()
        for comp in components:
            psig = predicate_signature(query.predicate_for(comp))
            if psig is None:
                return None
            spatial = query.spatial_for(comp)
            ssig = None
            if spatial is not None:
                ssig = (
                    spatial.cx,
                    spatial.cy,
                    spatial.radius,
                    spatial.x_field,
                    spatial.y_field,
                )
            parts.append((comp, psig, ssig))
        return (tuple(parts), query.order_spec(), query.limit_spec())

    def _epochs(self, components: tuple[str, ...]) -> tuple:
        world = self.world
        return tuple(
            (
                world.table(c).stats_epoch,
                world.index_manager(c).catalog_version,
                world.table(c).schema_version,
            )
            for c in components
        )

    # -- lookup --------------------------------------------------------------

    def lookup(self, query: Any) -> QueryPlan:
        """Return a valid plan for ``query``, planning only on miss.

        Emits a ``query.plan_cache`` tracer span (with a ``hit`` flag)
        when the world's tracer is enabled.
        """
        obs = getattr(self.world, "obs", None)
        tracer = obs.tracer if obs is not None else None
        if tracer is None or not tracer.enabled:
            return self._lookup(query)
        with tracer.span("query.plan_cache", cat="query") as sp:
            before = self.hits
            plan = self._lookup(query)
            sp.set(hit=self.hits > before, size=len(self._entries))
            return plan

    def _lookup(self, query: Any) -> QueryPlan:
        key = self.signature(query)
        if key is None:
            self.uncacheable += 1
            return self.world.planner.plan(query)
        components = query.component_names()
        epochs = self._epochs(components)
        entry = self._entries.get(key)
        if entry is not None:
            plan, cached_epochs = entry
            if cached_epochs == epochs:
                self.hits += 1
                plan.replay_advisor(self.world.index_advisor)
                return plan
            del self._entries[key]
            self.invalidations += 1
        self.misses += 1
        plan = self.world.planner.plan(query)
        if len(self._entries) >= self.max_entries:
            # FIFO eviction: drop the oldest insertion (dict preserves
            # insertion order), bounding memory under per-entity shapes.
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = (plan, epochs)
        return plan

    # -- maintenance / introspection ----------------------------------------

    def clear(self) -> None:
        """Drop every cached plan (counters are kept)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> PlanCacheStats:
        """Counter snapshot (a :class:`StatsRow`) for reports and benchmarks."""
        return PlanCacheStats(
            entries=len(self._entries),
            hits=self.hits,
            misses=self.misses,
            invalidations=self.invalidations,
            uncacheable=self.uncacheable,
        )
