"""Columnar component tables — the storage engine of the game database.

Each component type is stored as one :class:`ComponentTable`: a set of
parallel column lists plus an entity-id column, with a hash map from entity
id to row slot.  This is the classic "structure of arrays" layout game
engines use for cache efficiency, and simultaneously the heap-file layout a
column store would use.

Deletions swap the last row into the vacated slot (O(1)), so row order is
unstable; stable identity is the entity id.  Every mutation bumps a version
counter and notifies registered observers (indexes, aggregate views,
replication) with fine-grained deltas.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, KeysView, Mapping, Sequence

from repro.core.component import ComponentSchema
from repro.core.columns import scatter_cells
from repro.errors import ComponentMissingError, DuplicateComponentError, SchemaError

#: Observer callback signature: (kind, entity_id, field_values) where kind is
#: "insert" | "delete" | "update".  For updates, field_values maps each
#: changed field to (old, new); for insert/delete it maps field -> value.
TableObserver = Callable[[str, int, Mapping[str, Any]], None]


class _AlterState:
    """Bookkeeping for one in-progress online schema alter.

    While active, the table's logical schema is already the *target*
    schema; rows listed in ``unmigrated`` still hold placeholder values
    in the affected columns, and their true values are computed on read
    from the ``retained`` old columns (dual-version reads).  Backfill
    drains ``unmigrated`` a batch per tick; ``commit`` drops the retained
    columns.
    """

    __slots__ = (
        "steps", "old_schema", "new_schema", "affected", "retained",
        "renamed", "unmigrated",
    )

    def __init__(
        self,
        steps: tuple,
        old_schema: ComponentSchema,
        new_schema: ComponentSchema,
        affected: frozenset[str],
        retained: dict[str, list],
        renamed: dict[str, str],
        unmigrated: set[int],
    ):
        self.steps = steps
        self.old_schema = old_schema
        self.new_schema = new_schema
        #: target-schema fields whose values need backfill computation
        self.affected = affected
        #: old columns kept (as plain lists) for dual-version reads
        self.retained = retained
        #: old field name -> new field name for renames
        self.renamed = renamed
        #: entity ids whose affected columns still hold placeholders
        self.unmigrated = unmigrated


def _wants_update(obs: TableObserver, field: str) -> bool:
    """Whether an observer needs per-row "update" deltas for ``field``.

    Observers opt out by exposing ``wants_update(field) -> bool`` — on
    themselves, or on the owner when the observer is a bound method
    (e.g. ``IndexManager._on_delta``).  Absence means interested, so
    plain callables keep the exact-delta contract unchanged.
    """
    owner = getattr(obs, "__self__", obs)
    wants = getattr(owner, "wants_update", None)
    return True if wants is None else bool(wants(field))


class ComponentTable:
    """Columnar storage for all instances of one component type.

    The table behaves like a relation keyed by entity id.  All reads hand
    out copies or tuples; mutation goes through :meth:`insert`,
    :meth:`update`, and :meth:`delete` so observers always see every delta.
    """

    def __init__(self, schema: ComponentSchema):
        self.schema = schema
        # One plain list per field, slot-parallel to _entities (see
        # repro.core.columns).
        self._columns: dict[str, list] = {
            name: [] for name in schema.field_names
        }
        self._entities: list[int] = []
        self._slot_of: dict[int, int] = {}
        self._observers: list[TableObserver] = []
        self.version = 0
        #: Statistics epoch: bumped only when the row *set* changes
        #: (insert/delete), i.e. when the planner's cardinality estimates
        #: go stale.  Plain updates leave it alone, so steady-state frames
        #: that only mutate fields keep their cached plans.
        self.stats_epoch = 0
        #: Catalog version of this table's schema: bumped when an alter
        #: begins (logical schema switches to the target) and again when
        #: it commits.  Cached plans key on it, so a schema change
        #: invalidates every plan compiled against the old shape.
        self.schema_version = 1
        self._alter: _AlterState | None = None

    # -- observers ----------------------------------------------------------

    def add_observer(self, observer: TableObserver) -> None:
        """Register a delta observer (index, aggregate view, replicator)."""
        self._observers.append(observer)

    def remove_observer(self, observer: TableObserver) -> None:
        """Unregister a previously-added observer."""
        self._observers.remove(observer)

    def _notify(self, kind: str, entity_id: int, payload: Mapping[str, Any]) -> None:
        self.version += 1
        for obs in self._observers:
            obs(kind, entity_id, payload)

    # -- size / membership ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._entities)

    def __contains__(self, entity_id: int) -> bool:
        return entity_id in self._slot_of

    @property
    def entity_ids(self) -> tuple[int, ...]:
        """Snapshot of all entity ids currently in the table."""
        return tuple(self._entities)

    def members(self) -> KeysView[int]:
        """Live set view of the table's entity ids (C-speed membership)."""
        return self._slot_of.keys()

    # -- mutation -----------------------------------------------------------

    def insert(self, entity_id: int, values: Mapping[str, Any]) -> dict[str, Any]:
        """Insert a validated row for ``entity_id``; returns the stored row."""
        if entity_id in self._slot_of:
            raise DuplicateComponentError(
                f"entity {entity_id} already has component {self.schema.name}"
            )
        row = self.schema.validate(values)
        slot = len(self._entities)
        self._entities.append(entity_id)
        self._slot_of[entity_id] = slot
        for fname in self.schema.field_names:
            self._columns[fname].append(row[fname])
        if self._alter is not None:
            # Rows inserted mid-alter are validated against the target
            # schema and born migrated; the retained old columns grow a
            # filler cell to stay slot-parallel (never read for this row).
            for rc in self._alter.retained.values():
                rc.append(None)
        self.stats_epoch += 1
        self._notify("insert", entity_id, row)
        return row

    def update(self, entity_id: int, values: Mapping[str, Any]) -> dict[str, Any]:
        """Apply a partial update; returns mapping field -> (old, new).

        No-op fields (new value equals old) are dropped from the delta and
        do not wake observers, which keeps index maintenance proportional
        to *real* change — important when scripts write unchanged values
        every frame.
        """
        slot = self._require_slot(entity_id)
        updates = self.schema.validate_update(values)
        a = self._alter
        if (
            a is not None
            and entity_id in a.unmigrated
            and a.affected & updates.keys()
        ):
            # Writes never block on backfill: materialize the row's
            # migrated values first, then apply the update on top.
            self._materialize(entity_id)
        delta: dict[str, tuple[Any, Any]] = {}
        for fname, new in updates.items():
            old = self._columns[fname][slot]
            if old != new:
                delta[fname] = (old, new)
                self._columns[fname][slot] = new
        if delta:
            self._notify("update", entity_id, delta)
        return delta

    def update_column(
        self, field: str, entity_ids: Iterable[int], values: Iterable[Any]
    ) -> int:
        """Set-at-a-time update of one column; returns changed-row count.

        See :meth:`write_column`, which this counts.
        """
        return len(self.write_column(field, entity_ids, values)[0])

    def write_column(
        self, field: str, entity_ids: Iterable[int], values: Iterable[Any]
    ) -> tuple[Sequence[int], list[Any]]:
        """Set-at-a-time update of one column; returns the changed cells.

        The columnar write path behind
        :class:`~repro.core.systems.BatchSystem` and lowered scripts:
        resolve every slot, validate the whole column, materialise rows
        an online alter has not migrated yet, scatter (compare, then write
        only the changed cells), then tell observers.  Nothing is written unless
        every id exists and every value validates.  Pairs past the shorter
        of ``entity_ids`` / ``values`` are ignored.  Observers that opt in
        via ``wants_update(field)`` (on themselves or a bound method's
        owner; absence means interested) get one ``"update"`` delta per
        changed cell, in ids order, after the write.

        Returns ``(ids, values)`` of the changed cells, in ids order,
        holding the stored (validated) values: the column change event
        :meth:`~repro.core.world.GameWorld.set_column` hands its hooks.
        """
        fdef = self.schema.field(field)
        ids = entity_ids if isinstance(entity_ids, (list, tuple)) else list(
            entity_ids
        )
        vals = values if isinstance(values, (list, tuple)) else list(values)
        n = min(len(ids), len(vals))
        ids, vals = ids[:n], vals[:n]
        slot_of = self._slot_of
        try:
            slots = list(map(slot_of.__getitem__, ids))
        except KeyError as exc:
            raise ComponentMissingError(
                f"entity {exc.args[0]} has no component {self.schema.name}"
            ) from None
        new = fdef.validate_column(vals)
        a = self._alter
        if a is not None and field in a.affected and a.unmigrated:
            for eid in ids:
                if eid in a.unmigrated:
                    self._materialize(eid)
        col = self._columns[field]
        interested = [
            obs for obs in self._observers if _wants_update(obs, field)
        ]
        if len(set(slots)) < n:
            # Repeated ids: each write must see the one before it, so
            # this case alone stays a sequential loop.
            pos, old = [], []
            for i, slot in enumerate(slots):
                prev = col[slot]
                if prev != new[i]:
                    col[slot] = new[i]
                    pos.append(i)
                    old.append(prev)
        else:
            if interested:
                prev = list(map(col.__getitem__, slots))
            pos = scatter_cells(col, slots, new)
            old = [prev[i] for i in pos] if interested else ()
        self.version += len(pos)
        if len(pos) < n:
            ids = [ids[i] for i in pos]
            new = [new[i] for i in pos]
        if interested:
            for eid, before, after in zip(ids, old, new):
                payload = {field: (before, after)}
                for obs in interested:
                    obs("update", eid, payload)
        return ids, new

    def delete(self, entity_id: int) -> dict[str, Any]:
        """Remove the row for ``entity_id``; returns the removed values."""
        slot = self._require_slot(entity_id)
        a = self._alter
        if a is not None and entity_id in a.unmigrated:
            row = self.get(entity_id)
        else:
            row = {
                fname: self._columns[fname][slot]
                for fname in self.schema.field_names
            }
        last = len(self._entities) - 1
        moved_entity = self._entities[last]
        for fname in self.schema.field_names:
            col = self._columns[fname]
            col[slot] = col[last]
            col.pop()
        if a is not None:
            for rc in a.retained.values():
                rc[slot] = rc[last]
                rc.pop()
            a.unmigrated.discard(entity_id)
        self._entities[slot] = moved_entity
        self._entities.pop()
        self._slot_of[moved_entity] = slot
        del self._slot_of[entity_id]
        if entity_id == moved_entity and self._entities and slot < len(self._entities):
            # entity was the last row; nothing actually moved
            pass
        self.stats_epoch += 1
        self._notify("delete", entity_id, row)
        return row

    # -- reads --------------------------------------------------------------

    def get(self, entity_id: int) -> dict[str, Any]:
        """Return a copy of the row for ``entity_id``.

        During an online alter, unmigrated rows read at the *target*
        schema: affected values are computed from the retained old
        columns on the fly (dual-version reads).
        """
        slot = self._require_slot(entity_id)
        row = {
            fname: self._columns[fname][slot]
            for fname in self.schema.field_names
        }
        a = self._alter
        if a is not None and entity_id in a.unmigrated:
            row.update(self._new_values(slot))
        return row

    def get_field(self, entity_id: int, field: str) -> Any:
        """Return one field value for ``entity_id`` (O(1))."""
        slot = self._require_slot(entity_id)
        a = self._alter
        if a is not None and field in a.affected and entity_id in a.unmigrated:
            return self._new_values(slot)[field]
        try:
            return self._columns[field][slot]
        except KeyError:
            raise SchemaError(
                f"component {self.schema.name!r} has no field {field!r}"
            ) from None

    def gather(self, field: str, entity_ids: Iterable[int]) -> list[Any]:
        """Batch read of one field for many entities (columnar fast path)."""
        try:
            col = self._columns[field]
        except KeyError:
            raise SchemaError(
                f"component {self.schema.name!r} has no field {field!r}"
            ) from None
        slot_of = self._slot_of
        a = self._alter
        if a is not None and field in a.affected and a.unmigrated:
            try:
                return [
                    self._cell(field, slot_of[eid], eid) for eid in entity_ids
                ]
            except KeyError as exc:
                raise ComponentMissingError(
                    f"entity {exc.args[0]} has no component {self.schema.name}"
                ) from None
        try:
            return [col[slot_of[eid]] for eid in entity_ids]
        except KeyError as exc:
            raise ComponentMissingError(
                f"entity {exc.args[0]} has no component {self.schema.name}"
            ) from None

    def column(self, field: str) -> tuple[Any, ...]:
        """Snapshot of an entire column (row order parallel to entity_ids)."""
        try:
            col = self._columns[field]
        except KeyError:
            raise SchemaError(
                f"component {self.schema.name!r} has no field {field!r}"
            ) from None
        a = self._alter
        if a is not None and field in a.affected and a.unmigrated:
            return tuple(
                self._cell(field, slot, eid)
                for slot, eid in enumerate(self._entities)
            )
        return tuple(col)

    def columns(self, fields: Iterable[str]) -> dict[str, tuple[Any, ...]]:
        """Snapshot of several columns at once (a batch read for systems)."""
        return {f: self.column(f) for f in fields}

    def column_view(self, field: str) -> tuple[Any, ...]:
        """Read-only column in row order: the tuple snapshot :meth:`column` returns."""
        return self.column(field)

    def batch_rows(
        self,
        fields: Iterable[str],
        entity_ids: Iterable[int] | None = None,
    ) -> tuple[list[int], dict[str, list]]:
        """Gather parallel column slices for set-at-a-time execution.

        Returns ``(ids, columns)`` where ``columns[f][i]`` is field ``f``
        of entity ``ids[i]``.  With ``entity_ids=None`` the whole table is
        read in row order; otherwise values are gathered for exactly the
        ids given, in the given order.  This is the read half of the
        batch execution path: ``Plan.execute_batch`` filters these slices
        with compiled vector functions instead of building a dict per row.

        Every column is a private list: the caller may mutate it without
        touching the table, and later writes do not show through.  When
        the ids are the table's own row order (``entity_ids=None``, or an
        id sequence that matches it — the common all-entities case) each
        column is one C-level list copy instead of a per-row gather.
        """
        field_list = list(fields)
        for f in field_list:
            if f not in self._columns:
                raise SchemaError(
                    f"component {self.schema.name!r} has no field {f!r}"
                )
        ids = list(self._entities) if entity_ids is None else list(entity_ids)
        a = self._alter
        dual = a.affected if a is not None and a.unmigrated else ()
        if ids == self._entities and not any(f in dual for f in field_list):
            return ids, {f: list(self._columns[f]) for f in field_list}
        slot_of = self._slot_of
        try:
            slots = [slot_of[eid] for eid in ids]
        except KeyError as exc:
            raise ComponentMissingError(
                f"entity {exc.args[0]} has no component {self.schema.name}"
            ) from None
        out: dict[str, list] = {}
        for f in field_list:
            if f in dual:
                out[f] = [self._cell(f, s, e) for s, e in zip(slots, ids)]
            else:
                out[f] = list(map(self._columns[f].__getitem__, slots))
        return ids, out

    def rows(self) -> Iterator[tuple[int, dict[str, Any]]]:
        """Iterate ``(entity_id, row_copy)`` over a snapshot of the table.

        The snapshot is taken up front, so callers may mutate the table
        while iterating — the exact hazard naive per-frame scripts hit.
        During an online alter, rows come back at the target schema
        (dual-version reads), so snapshots taken mid-migration look
        exactly like post-migration state.
        """
        a = self._alter
        if a is not None and a.unmigrated:
            return iter([
                (eid, self.get(eid)) for eid in tuple(self._entities)
            ])
        return self._rows_fast()

    def _rows_fast(self) -> Iterator[tuple[int, dict[str, Any]]]:
        ids = tuple(self._entities)
        snap = {f: tuple(col) for f, col in self._columns.items()}
        for slot, entity_id in enumerate(ids):
            yield entity_id, {f: snap[f][slot] for f in snap}

    def scan(
        self, predicate: Callable[[dict[str, Any]], bool] | None = None
    ) -> list[int]:
        """Full scan returning entity ids whose rows satisfy ``predicate``.

        This is the O(n) fallback the planner uses when no index applies.
        """
        if predicate is None:
            return list(self._entities)
        out = []
        for entity_id, row in self.rows():
            if predicate(row):
                out.append(entity_id)
        return out

    # -- online schema alter -------------------------------------------------

    @property
    def alter_in_progress(self) -> bool:
        """Whether an online schema alter is mid-backfill."""
        return self._alter is not None

    @property
    def unmigrated_count(self) -> int:
        """Rows whose affected columns still hold placeholders."""
        return len(self._alter.unmigrated) if self._alter is not None else 0

    def is_field_in_transition(self, field: str) -> bool:
        """Whether ``field`` is being rewritten by an in-progress alter."""
        return self._alter is not None and field in self._alter.affected

    def begin_alter(self, new_schema: ComponentSchema, steps: tuple) -> frozenset[str]:
        """Switch the logical schema to ``new_schema`` and start backfill.

        Old columns that alters drop, retype, transform, or split away
        are moved aside (retained) for dual-version reads; new/changed
        columns are created placeholder-filled.  Renames move the column
        instantly — no backfill.  Every existing row starts unmigrated;
        :meth:`migrate_batch` drains them and :meth:`commit_alter` drops
        the retained columns.  Returns the affected-field set.
        """
        from repro.schema.steps import (
            AddColumn,
            DropColumn,
            RenameColumn,
            RetypeColumn,
            SplitColumn,
            TransformColumn,
            affected_fields,
            placeholder_for,
        )

        if self._alter is not None:
            raise SchemaError(
                f"component {self.schema.name!r} already has an alter in progress"
            )
        nrows = len(self._entities)
        retained: dict[str, list] = {}
        renamed: dict[str, str] = {}

        def _retain(name: str) -> None:
            retained[name] = list(self._columns[name])

        def _new_col(name: str) -> None:
            ph = placeholder_for(new_schema.field(name))
            self._columns[name] = [ph] * nrows

        for step in steps:
            if isinstance(step, AddColumn):
                _new_col(step.name)
            elif isinstance(step, DropColumn):
                _retain(step.name)
                del self._columns[step.name]
            elif isinstance(step, RenameColumn):
                self._columns[step.new] = self._columns.pop(step.old)
                renamed[step.old] = step.new
            elif isinstance(step, RetypeColumn):
                _retain(step.name)
                _new_col(step.name)
            elif isinstance(step, TransformColumn):
                _retain(step.name)
            elif isinstance(step, SplitColumn):
                if step.drop_source:
                    _retain(step.source)
                    del self._columns[step.source]
                for target in step.into:
                    _new_col(target)
            else:
                raise SchemaError(f"unknown migration step {step!r}")
        self._alter = _AlterState(
            steps=tuple(steps),
            old_schema=self.schema,
            new_schema=new_schema,
            affected=affected_fields(steps),
            retained=retained,
            renamed=renamed,
            unmigrated=set(self._entities),
        )
        self.schema = new_schema
        self.schema_version += 1
        return self._alter.affected

    def migrate_batch(self, limit: int | None = None) -> list[int]:
        """Backfill up to ``limit`` unmigrated rows (all when ``None``).

        Rows are taken in table row order, so with the same mutation
        history every replica picks identical batches.  Returns the
        entity ids migrated.
        """
        a = self._alter
        if a is None or not a.unmigrated:
            return []
        pending = a.unmigrated
        if limit is None:
            ids = [e for e in self._entities if e in pending]
        else:
            ids = []
            for e in self._entities:
                if e in pending:
                    ids.append(e)
                    if len(ids) >= limit:
                        break
        for e in ids:
            self._materialize(e)
        return ids

    def migrate_ids(self, entity_ids: Iterable[int]) -> int:
        """Backfill exactly the given rows (replica/WAL replay path).

        Ids already migrated (e.g. by a write racing the journal) or
        since deleted are skipped; returns the count actually migrated.
        """
        a = self._alter
        if a is None:
            raise SchemaError(
                f"component {self.schema.name!r} has no alter in progress"
            )
        n = 0
        for eid in entity_ids:
            if eid in a.unmigrated and eid in self._slot_of:
                self._materialize(eid)
                n += 1
        return n

    def commit_alter(self) -> None:
        """Finish the alter: drop retained columns, bump the version."""
        a = self._alter
        if a is None:
            raise SchemaError(
                f"component {self.schema.name!r} has no alter in progress"
            )
        if a.unmigrated:
            raise SchemaError(
                f"component {self.schema.name!r}: cannot commit alter with "
                f"{len(a.unmigrated)} rows unmigrated"
            )
        self._alter = None
        self.schema_version += 1

    def _old_row(self, slot: int) -> dict[str, Any]:
        """Reconstruct the old-schema row for an unmigrated slot."""
        a = self._alter
        row: dict[str, Any] = {}
        for fname in a.old_schema.field_names:
            if fname in a.retained:
                row[fname] = a.retained[fname][slot]
            else:
                row[fname] = self._columns[a.renamed.get(fname, fname)][slot]
        return row

    def _new_values(self, slot: int) -> dict[str, Any]:
        """Target-schema values of the affected fields for one slot."""
        from repro.schema.steps import apply_steps_to_row

        a = self._alter
        migrated = apply_steps_to_row(a.steps, self._old_row(slot))
        return {
            f: a.new_schema.fields[f].validate(migrated[f])
            for f in a.affected
        }

    def _materialize(self, entity_id: int) -> None:
        """Write one row's migrated values into the live columns.

        Observer-silent by design: indexes over affected fields are
        dropped when the alter begins and cannot be created while it is
        in transition, so there is nothing to maintain — and replicas
        replay the same batches from the journal instead of deltas.
        """
        a = self._alter
        slot = self._slot_of[entity_id]
        for fname, value in self._new_values(slot).items():
            self._columns[fname][slot] = value
        a.unmigrated.discard(entity_id)
        self.version += 1

    def _cell(self, field: str, slot: int, entity_id: int) -> Any:
        """One cell at the target schema (dual-read aware)."""
        a = self._alter
        if a is not None and field in a.affected and entity_id in a.unmigrated:
            return self._new_values(slot)[field]
        return self._columns[field][slot]

    # -- internals ----------------------------------------------------------

    def _require_slot(self, entity_id: int) -> int:
        try:
            return self._slot_of[entity_id]
        except KeyError:
            raise ComponentMissingError(
                f"entity {entity_id} has no component {self.schema.name}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ComponentTable({self.schema.name}, rows={len(self)})"
