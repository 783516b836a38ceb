"""The Catalog — one façade for every schema operation on a live world.

``world.catalog`` is the single DDL entry point:

* :meth:`Catalog.define` registers a component type;
* :meth:`Catalog.alter` applies a declarative step list to a component
  *while the world keeps ticking* — the table switches to the target
  schema immediately (dual-version reads), and :meth:`Catalog.pump`
  backfills N rows per tick until the alter commits;
* :meth:`Catalog.describe` reports versions and backfill progress.

Every component carries a numbered catalog version (1 at define, +1 per
committed alter).  The version is the coherence point for the rest of
the stack: cached plans key on it, the cluster coordinator stamps it
into handoff and 2PC payloads, and the replication journal replays
``alter`` records so replicas land on the same version with bit-identical
rows.  Catalog hooks (``fn(kind, record)``) observe ``define`` /
``alter_begin`` / ``alter_batch`` / ``alter_commit`` as plain records —
the journal subscribes one, which is all replication needs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from repro.core.component import ComponentSchema, schema as _make_schema
from repro.errors import SchemaError, UnknownComponentError
from repro.obs.metrics import Counter, StatsRow
from repro.schema.steps import (
    AddColumn,
    SplitColumn,
    Step,
    affected_fields,
    apply_steps_to_row,
    apply_steps_to_schema,
    removed_fields,
    schema_from_record,
    schema_to_record,
    steps_from_records,
    steps_to_records,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.table import ComponentTable
    from repro.core.world import GameWorld

#: Catalog hook signature: (kind, record) with kind in
#: "define" | "alter_begin" | "alter_batch" | "alter_commit".
CatalogHook = Callable[[str, Mapping[str, Any]], None]

#: Default backfill batch size: rows migrated per tick per active alter.
DEFAULT_BATCH_ROWS = 256


class CatalogStats(StatsRow):
    """Snapshot of the catalog's registry-backed counters."""

    COLUMNS = (
        "components", "catalog_version", "alters_started",
        "alters_committed", "rows_migrated", "active_alters",
    )


class _ActiveAlter:
    """One in-flight online alter (begin seen, commit pending)."""

    __slots__ = ("steps", "records", "to_version", "batch_rows",
                 "new_schema", "rows_migrated")

    def __init__(self, steps, records, to_version, batch_rows, new_schema):
        self.steps = steps
        self.records = records
        self.to_version = to_version
        self.batch_rows = batch_rows
        self.new_schema = new_schema
        self.rows_migrated = 0


class _Entry:
    """Catalog record for one component type."""

    __slots__ = ("name", "schema", "version", "history", "active",
                 "last_rows_migrated")

    def __init__(self, name: str, schema: ComponentSchema):
        self.name = name
        self.schema = schema
        self.version = 1
        #: from-version -> serialized steps of the alter that produced
        #: from-version + 1 (None for local alters with callables)
        self.history: dict[int, tuple | None] = {}
        self.active: _ActiveAlter | None = None
        self.last_rows_migrated = 0


class AlterHandle:
    """Progress handle returned by :meth:`Catalog.alter`."""

    def __init__(self, catalog: "Catalog", component: str, to_version: int):
        self._catalog = catalog
        self.component = component
        self.to_version = to_version

    @property
    def done(self) -> bool:
        """Whether the alter has committed."""
        return self._catalog.version_of(self.component) >= self.to_version

    @property
    def rows_migrated(self) -> int:
        """Rows backfilled so far (final count once committed)."""
        entry = self._catalog._entries[self.component]
        if entry.active is not None and entry.active.to_version == self.to_version:
            return entry.active.rows_migrated
        return entry.last_rows_migrated

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "committed" if self.done else "backfilling"
        return (
            f"AlterHandle({self.component} -> v{self.to_version}, {state}, "
            f"rows={self.rows_migrated})"
        )


class Catalog:
    """Versioned schema catalog of one :class:`~repro.core.world.GameWorld`.

    Not constructed directly — every world exposes one as
    ``world.catalog``.
    """

    def __init__(self, world: "GameWorld"):
        self._world = world
        self._entries: dict[str, _Entry] = {}
        self._hooks: list[CatalogHook] = []
        #: bumped on every define, alter begin, and alter commit
        self.catalog_version = 0
        obs = getattr(world, "obs", None)
        registry = obs.metrics if obs is not None else None

        def cell(name: str) -> Counter:
            if registry is not None:
                return registry.counter(f"schema.{name}")
            return Counter(f"schema.{name}", {})

        self._c_defines = cell("defines")
        self._c_alters_started = cell("alters_started")
        self._c_alters_committed = cell("alters_committed")
        self._c_rows_migrated = cell("rows_migrated")

    # -- hooks ---------------------------------------------------------------

    def add_hook(self, hook: CatalogHook) -> None:
        """Register a DDL observer (the replication journal uses this)."""
        self._hooks.append(hook)

    def remove_hook(self, hook: CatalogHook) -> None:
        """Unregister a previously-added hook."""
        self._hooks.remove(hook)

    def _emit(self, kind: str, record: Mapping[str, Any]) -> None:
        for hook in self._hooks:
            hook(kind, record)

    # -- DDL surface ---------------------------------------------------------

    def define(
        self,
        schema_or_name: ComponentSchema | str,
        /,
        **field_specs: str | tuple,
    ) -> "ComponentTable":
        """Register a component type; returns its table (version 1).

        Accepts a prebuilt :class:`ComponentSchema`, or a name plus the
        concise keyword field specs of :func:`repro.core.component.schema`::

            world.catalog.define("Health", hp=("int", 100))
        """
        if isinstance(schema_or_name, str):
            comp_schema = _make_schema(schema_or_name, **field_specs)
        else:
            if field_specs:
                raise SchemaError(
                    "define() takes field specs only with a component name, "
                    "not with a prebuilt ComponentSchema"
                )
            comp_schema = schema_or_name
        table = self._world._install_table(comp_schema)
        self._entries[comp_schema.name] = _Entry(comp_schema.name, comp_schema)
        self.catalog_version += 1
        self._c_defines.value += 1
        self._emit(
            "define",
            {"c": comp_schema.name, "schema": schema_to_record(comp_schema)},
        )
        return table

    def alter(
        self,
        component: str,
        steps: Iterable[Step],
        *,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        online: bool = True,
    ) -> AlterHandle:
        """Apply declarative schema steps to a live component.

        The logical schema switches to the target immediately: reads see
        target-schema rows (computed on the fly for unmigrated rows) and
        writes land at the target schema, never blocking.  Backfill then
        proceeds ``batch_rows`` rows per tick through :meth:`pump` until
        the alter commits.  ``online=False`` migrates everything before
        returning — the stop-the-world reference mode.

        Indexes over affected fields are dropped (recreate them after
        commit); aggregates over affected fields must likewise be
        recreated.
        """
        entry = self._require(component)
        if entry.active is not None:
            raise SchemaError(
                f"component {component!r} already has an alter in progress "
                f"(to v{entry.active.to_version})"
            )
        steps = tuple(steps)
        if not steps:
            raise SchemaError("alter requires at least one step")
        for step in steps:
            if isinstance(step, AddColumn):
                self._check_backfillable(step.name, step, component)
            elif isinstance(step, SplitColumn):
                for target in step.into:
                    self._check_backfillable(target, None, component)
        new_schema = apply_steps_to_schema(entry.schema, steps)
        try:
            records = steps_to_records(steps)
        except SchemaError:
            if self._hooks:
                raise  # replicated worlds must be able to journal the steps
            records = None
        table = self._world.table(component)
        self._world.index_manager(component).on_schema_alter(
            removed_fields(steps), affected_fields(steps)
        )
        table.begin_alter(new_schema, steps)
        to_version = entry.version + 1
        entry.history[entry.version] = records
        entry.active = _ActiveAlter(
            steps, records, to_version, batch_rows, new_schema
        )
        self.catalog_version += 1
        self._c_alters_started.value += 1
        self._emit(
            "alter_begin",
            {
                "c": component,
                "steps": records,
                "to": to_version,
                "batch": batch_rows,
            },
        )
        handle = AlterHandle(self, component, to_version)
        if not online:
            self._pump_entry(entry, limit=None)
        return handle

    def describe(
        self, component: str | None = None
    ) -> dict[str, Any] | dict[str, dict[str, Any]]:
        """Schema versions, field types, and backfill progress.

        One component's record with ``component`` given, else a mapping
        for every defined component.
        """
        if component is None:
            return {name: self.describe(name) for name in sorted(self._entries)}
        entry = self._require(component)
        table = self._world.table(component)
        return {
            "component": component,
            "version": entry.version,
            "target_version": (
                entry.active.to_version if entry.active is not None else None
            ),
            "fields": {
                f.name: f.type_name for f in entry.schema.fields.values()
            } if entry.active is None else {
                f.name: f.type_name
                for f in entry.active.new_schema.fields.values()
            },
            "rows": len(table),
            "unmigrated": table.unmigrated_count,
        }

    # -- version queries -----------------------------------------------------

    def components(self) -> tuple[str, ...]:
        """All defined component names (declaration order)."""
        return tuple(self._entries)

    def version_of(self, component: str) -> int:
        """The component's committed catalog version."""
        return self._require(component).version

    def effective_version(self, component: str) -> int:
        """The version reads and writes see: the alter target while one
        is backfilling, the committed version otherwise."""
        entry = self._require(component)
        if entry.active is not None:
            return entry.active.to_version
        return entry.version

    def alter_in_progress(self, component: str) -> bool:
        """Whether the component is mid-backfill."""
        return self._require(component).active is not None

    # -- backfill pump (called once per world tick) --------------------------

    def pump(self) -> int:
        """Advance every active alter one batch; returns rows migrated.

        Wired into :meth:`GameWorld.tick`; the no-active-alter case is a
        single attribute check, so steady-state frames pay nothing.
        """
        total = 0
        for entry in self._entries.values():
            if entry.active is not None:
                total += self._pump_entry(entry, entry.active.batch_rows)
        return total

    def _pump_entry(self, entry: _Entry, limit: int | None) -> int:
        table = self._world.table(entry.name)
        tracer = self._world.obs.tracer
        if tracer.enabled:
            with tracer.span(
                "schema.backfill", cat="schema", component=entry.name,
                to_version=entry.active.to_version,
            ) as sp:
                ids = table.migrate_batch(limit)
                sp.set(rows=len(ids), remaining=table.unmigrated_count)
        else:
            ids = table.migrate_batch(limit)
        if ids:
            entry.active.rows_migrated += len(ids)
            self._c_rows_migrated.value += len(ids)
            self._emit("alter_batch", {"c": entry.name, "ids": list(ids)})
        if table.unmigrated_count == 0:
            self._commit_entry(entry)
        return len(ids)

    def _commit_entry(self, entry: _Entry) -> None:
        table = self._world.table(entry.name)
        table.commit_alter()
        act = entry.active
        entry.version = act.to_version
        entry.schema = act.new_schema
        entry.last_rows_migrated = act.rows_migrated
        entry.active = None
        self.catalog_version += 1
        self._c_alters_committed.value += 1
        self._emit("alter_commit", {"c": entry.name, "to": entry.version})

    # -- cross-version payload upgrade (cluster handoffs) --------------------

    def upgrade_payload(
        self, component: str, row: Mapping[str, Any], from_version: int
    ) -> dict[str, Any]:
        """Replay recorded alter steps to lift a row shipped at an older
        catalog version up to this world's effective version."""
        entry = self._require(component)
        target = self.effective_version(component)
        out = dict(row)
        version = from_version
        while version < target:
            records = entry.history.get(version)
            if records is None:
                raise SchemaError(
                    f"component {component!r}: no recorded steps to upgrade "
                    f"a payload from v{version} to v{version + 1}"
                )
            out = apply_steps_to_row(steps_from_records(records), out)
            version += 1
        return out

    # -- replication / failover ---------------------------------------------

    def apply_journal_record(self, kind: str, record: Mapping[str, Any]) -> None:
        """Replay one journaled DDL record (replica and recovery path).

        ``alter_batch`` records carry the exact entity ids the primary
        migrated, so the replica's backfill order — and therefore every
        intermediate state — matches bit for bit.
        """
        if kind == "define":
            if record["c"] not in self._entries:
                self.define(schema_from_record(record["schema"]))
            return
        if kind == "alter_begin":
            if record["steps"] is None:
                raise SchemaError(
                    "journaled alter carries no serialized steps"
                )
            component = record["c"]
            entry = self._require(component)
            if entry.active is not None or entry.version >= record["to"]:
                return  # duplicate replay (e.g. WAL re-ship)
            self.alter(
                component,
                steps_from_records(record["steps"]),
                batch_rows=record.get("batch", DEFAULT_BATCH_ROWS),
            )
            return
        if kind == "alter_batch":
            component = record["c"]
            table = self._world.table(component)
            n = table.migrate_ids(record["ids"])
            entry = self._require(component)
            if entry.active is not None:
                entry.active.rows_migrated += n
            self._c_rows_migrated.value += n
            if table.unmigrated_count == 0 and entry.active is not None:
                self._commit_entry(entry)
            return
        if kind == "alter_commit":
            entry = self._require(record["c"])
            if entry.active is None:
                return  # already committed via the last batch record
            table = self._world.table(record["c"])
            if table.unmigrated_count:
                raise SchemaError(
                    f"journal commit for {record['c']!r} with "
                    f"{table.unmigrated_count} rows unmigrated"
                )
            self._commit_entry(entry)
            return
        raise SchemaError(f"unknown catalog journal record {kind!r}")

    def schema_state(self) -> dict[str, Any]:
        """Portable summary of versions + step history (failover catch-up)."""
        return {
            name: {
                "version": entry.version,
                "target": (
                    entry.active.to_version
                    if entry.active is not None
                    else None
                ),
                "history": {
                    str(v): None if recs is None else list(recs)
                    for v, recs in entry.history.items()
                },
            }
            for name, entry in self._entries.items()
        }

    def catch_up(self, state: Mapping[str, Any]) -> int:
        """Replay another catalog's committed *and in-flight* alters.

        Used at failover before restoring a replica snapshot onto a
        fresh world: the snapshot's rows already read at the donor's
        effective schema (dual-version reads), so the promoted world
        must reach that schema first.  The world is empty here, so each
        alter completes instantly.  Returns the number replayed.
        """
        replayed = 0
        for name in sorted(state):
            entry = self._entries.get(name)
            if entry is None:
                continue
            st = state[name]
            target = st["target"] if st["target"] is not None else st["version"]
            while entry.version < target:
                records = st["history"].get(str(entry.version))
                if records is None:
                    raise SchemaError(
                        f"component {name!r}: missing steps to catch up "
                        f"from v{entry.version}"
                    )
                self.alter(
                    name, steps_from_records(records), online=False
                )
                replayed += 1
        return replayed

    # -- stats ---------------------------------------------------------------

    def stats(self) -> CatalogStats:
        """Counter snapshot (a :class:`StatsRow`) for reports and benches."""
        return CatalogStats(
            components=len(self._entries),
            catalog_version=self.catalog_version,
            alters_started=self._c_alters_started.value,
            alters_committed=self._c_alters_committed.value,
            rows_migrated=self._c_rows_migrated.value,
            active_alters=sum(
                1 for e in self._entries.values() if e.active is not None
            ),
        )

    # -- internals -----------------------------------------------------------

    def _require(self, component: str) -> _Entry:
        try:
            return self._entries[component]
        except KeyError:
            raise UnknownComponentError(
                f"component {component!r} is not defined; "
                f"known: {sorted(self._entries)}"
            ) from None

    @staticmethod
    def _check_backfillable(name: str, step: Any, component: str) -> None:
        if step is not None and (
            step.derive is not None or step.default is not None or step.nullable
        ):
            return
        if step is None:
            return  # split targets always derive
        raise SchemaError(
            f"alter {component!r}: added field {name!r} needs a default, "
            "a derivation expression, or nullable=True to backfill "
            "existing rows"
        )
