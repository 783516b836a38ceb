"""WorldPersistence: wire a GameWorld to the persistence tier.

The glue the tutorial's Engineering section describes: the game runs
against the in-memory world; every logical change is journaled through
the WAL-backed :class:`~repro.persistence.memdb.InMemoryGameDB`; a
checkpoint policy decides when the world snapshot flows to the backing
store; after a crash, :meth:`recover_world` rebuilds a GameWorld equal to
the last durable state.

Importance plumbing: gameplay code marks the *next* change important
(``bridge.mark_importance(0.95)`` right before applying a boss-kill
reward), which is what lets the event-driven checkpointer fire at the
right moment.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.component import ComponentSchema, FieldDef
from repro.core.world import GameWorld
from repro.errors import RecoveryError
from repro.persistence.checkpoint import (
    BackingStore,
    CheckpointManager,
    CheckpointPolicy,
)
from repro.persistence.memdb import Action, InMemoryGameDB
from repro.persistence.recovery import recover
from repro.persistence.wal import WriteAheadLog

#: memdb table names used by the bridge.
_ENTITY_TABLE = "entities"
_COMPONENT_TABLE_PREFIX = "component:"
_META_TABLE = "meta"


class WorldPersistence:
    """Journals a live GameWorld and drives checkpointing.

    Parameters
    ----------
    world:
        The world to persist.  The bridge registers a change hook; call
        :meth:`close` to detach.
    store:
        Any :class:`BackingStore` (SQL bridge, snapshot store).
    policy:
        Checkpoint policy (interval / event-driven / hybrid).
    group_commit:
        WAL group-commit factor (1 = every action durable immediately).
    """

    def __init__(
        self,
        world: GameWorld,
        store: BackingStore,
        policy: CheckpointPolicy,
        group_commit: int = 1,
    ):
        self.world = world
        self.wal = WriteAheadLog(group_commit=group_commit)
        self.db = InMemoryGameDB(self.wal)
        self.db.create_table(_ENTITY_TABLE)
        self.db.create_table(_META_TABLE)
        for comp in world.component_names():
            self.db.create_table(_COMPONENT_TABLE_PREFIX + comp)
        self.manager = CheckpointManager(self.db, store, policy)
        self._pending_importance = 0.0
        self._schemas = {
            comp: world.table(comp).schema for comp in world.component_names()
        }
        self._record_schemas()
        world.add_change_hook(self._on_change)
        self._closed = False

    # -- public API ------------------------------------------------------------

    def mark_importance(self, importance: float) -> None:
        """Tag the *next* world change with designer importance.

        Call immediately before applying an important change (boss kill,
        epic loot); the event-driven checkpointer accumulates it.
        """
        self._pending_importance = max(self._pending_importance, importance)

    def checkpoint_now(self) -> None:
        """Force a checkpoint (zone transition, scheduled maintenance)."""
        self.manager.checkpoint(self.world.clock.tick)

    def close(self) -> None:
        """Detach from the world; idempotent."""
        if not self._closed:
            self.world.remove_change_hook(self._on_change)
            self._closed = True

    @property
    def checkpoints_taken(self) -> int:
        """Checkpoints written so far."""
        return self.manager.stats.checkpoints

    # -- change capture -----------------------------------------------------------

    def _on_change(
        self,
        op: str,
        entity_id: int,
        component: str | None,
        payload: Mapping[str, Any] | None,
    ) -> None:
        if op == "spawn":
            self._record("put", _ENTITY_TABLE, entity_id, {"alive": True})
        elif op == "destroy":
            self._record("delete", _ENTITY_TABLE, entity_id, None)
        elif op == "attach":
            self._record("set_row", _COMPONENT_TABLE_PREFIX + component,
                         entity_id, dict(payload or {}))
        elif op == "detach":
            self._record("delete", _COMPONENT_TABLE_PREFIX + component,
                         entity_id, None)
        elif op == "update":
            self._record("put", _COMPONENT_TABLE_PREFIX + component,
                         entity_id, dict(payload or {}))

    def on_column_change(
        self, component: str, field: str, ids: Any, values: Any
    ) -> None:
        """Column event from ``set_column``: one ``put`` per changed cell."""
        table = _COMPONENT_TABLE_PREFIX + component
        for entity_id, value in zip(ids, values):
            self._record("put", table, entity_id, {field: value})

    def _record(self, kind: str, table: str, entity_id: int, payload: Any) -> None:
        """Journal one Action; it consumes the pending importance."""
        importance = self._pending_importance
        self._pending_importance = 0.0
        self.manager.record(Action(
            kind, table, entity_id, payload, importance, self.world.clock.tick
        ))

    def _record_schemas(self) -> None:
        """Persist component schemas so recovery can rebuild the world."""
        for comp, schema in self._schemas.items():
            spec = {
                fdef.name: [
                    fdef.type_name,
                    fdef.default,
                    fdef.indexable,
                    fdef.nullable,
                ]
                for fdef in schema.fields.values()
            }
            self.db.put(_META_TABLE, f"schema:{comp}", {"fields": spec})


def recover_world(
    wal: WriteAheadLog, store: BackingStore
) -> tuple[GameWorld, Any]:
    """Rebuild a GameWorld from (checkpoint, WAL) after a crash.

    Returns ``(world, recovery_report)``.  Entity ids are preserved
    exactly, so references stored in component fields remain valid.
    """
    db, report = recover(wal, store)
    world = GameWorld()
    # 1. rebuild component schemas
    for key in db.keys(_META_TABLE) if _META_TABLE in db.tables() else []:
        if not str(key).startswith("schema:"):
            continue
        comp = str(key).split(":", 1)[1]
        spec = db.get(_META_TABLE, key)["fields"]
        fields = [
            FieldDef(name, type_name, default=default,
                     indexable=indexable, nullable=nullable)
            for name, (type_name, default, indexable, nullable) in spec.items()
        ]
        world.catalog.define(ComponentSchema(comp, fields))
    # 2. rebuild entities with their original ids
    if _ENTITY_TABLE not in db.tables():
        raise RecoveryError("persistence log contains no entity table")
    entity_rows = {eid: row for eid, row in db.rows(_ENTITY_TABLE)}
    snapshot = {
        "entities": {int(eid): [] for eid in entity_rows},
        "tables": {},
        "tick": report.recovered_tick,
    }
    world.restore(snapshot)
    # 3. reattach components
    for table_name in db.tables():
        if not table_name.startswith(_COMPONENT_TABLE_PREFIX):
            continue
        comp = table_name[len(_COMPONENT_TABLE_PREFIX):]
        for eid, row in db.rows(table_name):
            eid = int(eid)
            if world.exists(eid):
                world.attach(eid, comp, **row)
    return world, report
