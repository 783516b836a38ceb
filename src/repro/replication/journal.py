"""The primary's replication journal: logical change records over a WAL.

A :class:`ShardJournal` wraps a :class:`~repro.persistence.wal.WriteAheadLog`
and records every logical state change a primary shard makes — world
mutations (observed through the ``GameWorld`` change hook: one record
per row event, one per ``set_column`` column event), ownership
changes, transaction decisions, and a per-frame tick marker.  The
journal is flushed once per global tick (one simulated fsync per frame,
the group-commit boundary), and the durable tail is what log shipping
sends to replicas.

:func:`apply_record` is the other half of the contract: given one
journal payload it replays the change against a standby world.  A
replica that applies a primary's records in LSN order reconstructs the
primary's exact state — ``GameWorld.state_hash()`` equality is the
invariant the replication tests pin down.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.core.world import GameWorld
from repro.errors import ReplicationError
from repro.persistence.wal import WriteAheadLog


class ShardJournal:
    """Journals a primary shard's logical changes for log shipping.

    Built on :class:`~repro.persistence.wal.WriteAheadLog` with
    ``auto_flush`` off: the shard host calls :meth:`flush` exactly once
    per tick, so a crash loses at most the current frame's records —
    the tick-granular atomicity the failover protocol relies on.
    """

    def __init__(self, obs: Any = None, name: str = "") -> None:
        self.wal = WriteAheadLog(auto_flush=False)
        if obs is not None:
            self.wal.bind_obs(obs, wal=name or "journal")

    # -- writing ------------------------------------------------------------------

    def log_change(
        self,
        op: str,
        entity: int,
        component: str | None,
        payload: Mapping[str, Any] | None,
    ) -> int:
        """Record one world mutation (the ``GameWorld`` change-hook feed)."""
        record: dict[str, Any] = {"op": op, "e": entity}
        if component is not None:
            record["c"] = component
        if op in ("attach", "update") and payload is not None:
            record["v"] = dict(payload)
        return self.wal.append(record)

    def on_column_change(
        self, component: str, field: str, ids: Sequence[int], values: Sequence[Any]
    ) -> int:
        """Record one ``set_column`` write (the column-event feed).

        One record for the whole column: every cell in it changed at
        the primary, so replaying it through ``set_column`` changes the
        same cells, in the same order, at an identical replica.
        """
        return self.wal.append(
            {"op": "column", "c": component, "f": field,
             "e": list(ids), "v": list(values)}
        )

    def log_own(self, entity: int) -> int:
        """Record that this shard took ownership of an entity."""
        return self.wal.append({"op": "own", "e": entity})

    def log_disown(self, entity: int) -> int:
        """Record that this shard released ownership of an entity."""
        return self.wal.append({"op": "disown", "e": entity})

    def log_tick(self, tick: int) -> int:
        """Record the end of one world frame (the commit boundary)."""
        return self.wal.append({"op": "tick", "t": tick})

    def log_txn(self, txn_id: int, commit: bool) -> int:
        """Record a transaction decision applied at this shard.

        Replicas collect these markers into their ``applied_txns`` set,
        which is how failover knows whether a committed decision's
        writes survived or must be re-applied.
        """
        return self.wal.append({"op": "txn", "id": txn_id, "commit": commit})

    def log_schema(self, kind: str, record: Mapping[str, Any]) -> int:
        """Record one catalog event (alter begin/batch/commit).

        ``alter_batch`` records name the exact entity ids the primary
        backfilled that step, so a replica replaying the journal
        migrates the same rows in the same order — catalog state is
        part of the ``state_hash`` equality contract.
        """
        return self.wal.append({"op": "schema", "k": kind, "r": dict(record)})

    def flush(self) -> int:
        """Make this tick's records durable; returns records flushed."""
        return self.wal.flush()

    @property
    def flushed_lsn(self) -> int:
        """Highest durable LSN (0 when nothing is durable yet)."""
        return self.wal.flushed_lsn

    def stats(self) -> "StatsRow":
        """Durable/pending record counts as a :class:`StatsRow` snapshot."""
        from repro.obs.metrics import StatsRow

        return StatsRow(
            ("durable", "pending", "flushed_lsn"),
            durable=self.wal.durable_count(),
            pending=self.wal.pending_count(),
            flushed_lsn=self.flushed_lsn,
        )

    # -- shipping -----------------------------------------------------------------

    def ship_since(self, after_lsn: int) -> tuple[tuple[int, dict[str, Any]], ...]:
        """Durable ``(lsn, payload)`` pairs with LSN > ``after_lsn``."""
        return tuple(
            (rec.lsn, rec.payload)
            for rec in self.wal.records(from_lsn=after_lsn + 1)
        )


def apply_record(
    payload: Mapping[str, Any],
    world: GameWorld,
    owned: set[int],
    applied_txns: set[int],
) -> None:
    """Replay one journal payload against a standby world.

    Mutates ``world`` (the replica's state), ``owned`` (its view of the
    primary's ownership set), and ``applied_txns`` (decision markers).
    Raises :class:`~repro.errors.ReplicationError` on an unknown op —
    a record from a newer protocol version, which a standby must not
    silently skip.
    """
    op = payload["op"]
    if op == "spawn":
        world.restore_entity(payload["e"], {})
    elif op == "destroy":
        world.destroy(payload["e"])
    elif op == "attach":
        world.attach(payload["e"], payload["c"], **payload.get("v", {}))
    elif op == "detach":
        world.detach(payload["e"], payload["c"])
    elif op == "update":
        world.set(payload["e"], payload["c"], **payload.get("v", {}))
    elif op == "column":
        world.set_column(payload["c"], payload["f"], payload["e"], payload["v"])
    elif op == "own":
        owned.add(payload["e"])
    elif op == "disown":
        owned.discard(payload["e"])
    elif op == "tick":
        world.clock.rewind_to(payload["t"])
    elif op == "txn":
        applied_txns.add(payload["id"])
    elif op == "schema":
        world.catalog.apply_journal_record(payload["k"], payload["r"])
    else:
        raise ReplicationError(f"unknown journal op {op!r}")
