"""System scheduler: the per-frame execution engine.

A *system* is a unit of per-frame work (physics, AI, combat, replication).
The tutorial contrasts two execution styles:

* **tuple-at-a-time** (:class:`PerEntitySystem`) — the naive scripting
  style: a callback runs once per matching entity per frame;
* **set-at-a-time** (:class:`BatchSystem`) — the database/GPU style the
  tutorial recommends ("techniques … on GPUs look very similar to the
  techniques that database engines use for join processing"): the callback
  receives whole columns and writes back a column of updates.

Experiment E3 measures the gap between the two on the same workload.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence, TYPE_CHECKING

from repro.errors import QueryError
from repro.obs.tracer import NOOP_SPAN

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.world import GameWorld


def system(
    name: str | Callable[..., Any] | None = None,
    *,
    interval: int = 1,
    priority: int = 100,
) -> Callable[..., Any]:
    """Declare a plain ``fn(world, dt)`` callable as a schedulable system.

    The decorator attaches name/interval/priority, and
    ``GameWorld.add_system`` / ``ClusterCoordinator.add_system`` accept
    the decorated callable directly::

        @system("drift", interval=2)
        def drift(world, dt):
            ...

        world.add_system(drift)

    Usable bare (``@system``) when the defaults do.
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        fn.__system_name__ = (
            name if isinstance(name, str) else getattr(fn, "__name__", "system")
        )
        fn.__system_interval__ = interval
        fn.__system_priority__ = priority
        return fn

    if callable(name):  # bare @system usage
        return decorate(name)
    return decorate


class System:
    """Base class: subclasses implement :meth:`run`.

    Attributes
    ----------
    name:
        Unique scheduler key; also the label in frame-budget reports.
    interval:
        Run every ``interval`` ticks (1 = every frame).  Games throttle
        expensive AI systems to every Nth frame; the scheduler supports
        that natively so scripts don't hand-roll modulo counters.
    enabled:
        Disabled systems stay registered but are skipped.
    """

    def __init__(self, name: str, interval: int = 1):
        if interval < 1:
            raise QueryError("system interval must be >= 1")
        self.name = name
        self.interval = interval
        self.enabled = True
        self.runs = 0

    def run(self, world: "GameWorld", dt: float) -> None:
        """Execute one frame of work.  Subclasses must override."""
        raise NotImplementedError

    def should_run(self, tick: int) -> bool:
        """Whether the scheduler should run this system at ``tick``."""
        return self.enabled and tick % self.interval == 0


class FunctionSystem(System):
    """Wraps a plain ``fn(world, dt)`` callable as a system.

    Callables decorated with :func:`system` carry their declaration
    along; :meth:`from_callable` reads it back out.
    """

    def __init__(
        self,
        name: str,
        fn: Callable[["GameWorld", float], None],
        interval: int = 1,
    ):
        super().__init__(name, interval=interval)
        self.fn = fn

    @classmethod
    def from_callable(cls, fn: Callable[..., Any]) -> "FunctionSystem":
        """Build a system from an ``@system``-decorated callable."""
        return cls(
            getattr(fn, "__system_name__", getattr(fn, "__name__", "system")),
            fn,
            interval=getattr(fn, "__system_interval__", 1),
        )

    def run(self, world: "GameWorld", dt: float) -> None:
        self.runs += 1
        self.fn(world, dt)


class PerEntitySystem(System):
    """Tuple-at-a-time system: ``fn(world, entity_id, dt)`` per entity.

    ``components`` is the conjunctive component signature; the entity set
    is computed fresh each frame via the query layer (so it benefits from
    whatever indexes exist, but the *body* still runs per entity).
    """

    def __init__(
        self,
        name: str,
        components: Sequence[str],
        fn: Callable[["GameWorld", int, float], None],
        interval: int = 1,
    ):
        super().__init__(name, interval=interval)
        if not components:
            raise QueryError("PerEntitySystem requires at least one component")
        self.components = tuple(components)
        self.fn = fn
        self._prepared = None
        self._prepared_world: "GameWorld | None" = None

    def _signature_query(self, world: "GameWorld"):
        if self._prepared is None or self._prepared_world is not world:
            query = world.query(self.components[0])
            for comp in self.components[1:]:
                query = query.join(comp)
            self._prepared = query.prepare()
            self._prepared_world = world
        return self._prepared

    def run(self, world: "GameWorld", dt: float) -> None:
        self.runs += 1
        for entity_id in self._signature_query(world).execute(mode="tuple").ids:
            self.fn(world, entity_id, dt)


class BatchSystem(System):
    """Set-at-a-time system operating on whole columns.

    ``fn(world, entity_ids, columns, dt)`` receives a tuple of entity ids
    and a mapping ``{"Component.field": sequence_of_values}`` (zero-copy
    memoryviews over the typed column buffers when available, else
    materialized lists) and returns a mapping ``{"Component.field":
    sequence_of_new_values}`` (or None for a read-only system).  Writes
    are applied through the table layer in one pass so observers still
    see per-entity deltas.

    ``writes`` declares the column refs ``fn`` may return; a write outside
    the declaration raises :class:`QueryError`.
    """

    def __init__(
        self,
        name: str,
        reads: Sequence[str],
        fn: Callable[..., dict[str, Sequence[Any]] | None],
        interval: int = 1,
        *,
        writes: Sequence[str] | None = None,
    ):
        super().__init__(name, interval=interval)
        self.reads = tuple(reads)
        if not self.reads:
            raise QueryError("BatchSystem requires at least one read column")
        self.fn = fn
        self.writes = tuple(writes) if writes is not None else None
        self._parse_cache: list[tuple[str, str]] = []
        for ref in self.reads:
            comp, _, fld = ref.partition(".")
            if not fld:
                raise QueryError(
                    f"BatchSystem read {ref!r} must be 'Component.field'"
                )
            self._parse_cache.append((comp, fld))
        self._prepared = None
        self._prepared_world: "GameWorld | None" = None

    def _signature_query(self, world: "GameWorld"):
        if self._prepared is None or self._prepared_world is not world:
            components = {comp for comp, _f in self._parse_cache}
            root, *rest = sorted(components)
            query = world.query(root)
            for comp in rest:
                query = query.join(comp)
            self._prepared = query.prepare()
            self._prepared_world = world
        return self._prepared

    def gather_columns(
        self, world: "GameWorld"
    ) -> tuple[tuple[int, ...], dict[str, Sequence[Any]]]:
        """Resolve the entity set and read columns (zero-copy when possible).

        Columns come from ``batch_rows(copy=False)``: when the signature
        ids match a table's own row order (the all-entities steady state)
        the values are memoryview slices straight over the typed buffers,
        with no per-row gather at all.
        """
        ids = tuple(self._signature_query(world).execute().ids)
        by_comp: dict[str, list[str]] = {}
        for comp, fld in self._parse_cache:
            by_comp.setdefault(comp, []).append(fld)
        columns: dict[str, Sequence[Any]] = {}
        for comp, flds in by_comp.items():
            _ids, cols = world.table(comp).batch_rows(flds, ids, copy=False)
            for fld in flds:
                columns[f"{comp}.{fld}"] = cols[fld]
        return ids, columns

    def _check_writes(self, writes: dict[str, Sequence[Any]], count: int) -> None:
        for ref, values in writes.items():
            if self.writes is not None and ref not in self.writes:
                raise QueryError(
                    f"BatchSystem {self.name!r}: wrote undeclared column "
                    f"{ref!r} (declared writes: {self.writes})"
                )
            if len(values) != count:
                raise QueryError(
                    f"BatchSystem {self.name!r}: write column {ref!r} has "
                    f"{len(values)} values for {count} entities"
                )

    def run(self, world: "GameWorld", dt: float) -> None:
        self.runs += 1
        ids, columns = self.gather_columns(world)
        writes = self.fn(world, ids, columns, dt) or {}
        self._check_writes(writes, len(ids))
        for ref, values in writes.items():
            comp, _, fld = ref.partition(".")
            world.set_column(comp, fld, ids, values)


class SystemScheduler:
    """Runs registered systems in priority order each tick."""

    def __init__(self) -> None:
        self._systems: list[tuple[int, int, System]] = []  # (priority, seq, sys)
        self._seq = 0

    def add(self, system: System, priority: int = 100) -> System:
        """Register a system; lower priority runs earlier."""
        if any(s.name == system.name for _p, _q, s in self._systems):
            raise QueryError(f"system {system.name!r} already registered")
        self._systems.append((priority, self._seq, system))
        self._seq += 1
        self._systems.sort(key=lambda t: (t[0], t[1]))
        return system

    def remove(self, name: str) -> None:
        """Unregister the system called ``name``."""
        before = len(self._systems)
        self._systems = [t for t in self._systems if t[2].name != name]
        if len(self._systems) == before:
            raise QueryError(f"no system named {name!r}")

    def get(self, name: str) -> System:
        for _p, _q, s in self._systems:
            if s.name == name:
                return s
        raise QueryError(f"no system named {name!r}")

    def systems(self) -> list[System]:
        """All systems in execution order."""
        return [s for _p, _q, s in self._systems]

    def run_tick(self, world: "GameWorld", tick: int, dt: float, budget: Any = None) -> None:
        """Run all due systems for ``tick``; measure if a budget is given.

        When the world's tracer is enabled each system gets its own span
        (child of the world's ``tick`` span); when disabled the only cost
        is one attribute check per tick.
        """
        obs = getattr(world, "obs", None)
        tracer = obs.tracer if obs is not None else None
        traced = tracer is not None and tracer.enabled
        for _p, _q, system in self._systems:
            if not system.should_run(tick):
                continue
            with (
                tracer.span(system.name, cat="system") if traced else NOOP_SPAN
            ):
                if budget is not None:
                    with budget.measure(system.name):
                        system.run(world, dt)
                else:
                    system.run(world, dt)
