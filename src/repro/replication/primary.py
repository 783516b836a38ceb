"""Primary shard host: a `ShardHost` that journals and ships its log.

:class:`ReplicatedShardHost` extends the cluster's
:class:`~repro.cluster.shard.ShardHost` with a write-ahead
:class:`~repro.replication.journal.ShardJournal`.  Every world mutation
(via the ``GameWorld`` change hook), ownership change, and transaction
decision is journaled; once per global tick the journal is flushed (one
fsync per frame) and the durable tail is shipped to the shard's
replicas over the simulated network.

Two acknowledgement modes, chosen by the coordinator:

* **async** — ship every ``ship_interval`` ticks; a write is
  "acknowledged" as soon as it is locally durable.  Cheap, but a crash
  loses the unshipped window.
* **semi-sync** — ship every tick; :attr:`acknowledged_lsn` is the
  highest LSN some replica has applied *and made durable*.  Failover
  promotes the most-caught-up replica, so acknowledged writes survive
  a primary crash — the zero-loss guarantee the acceptance tests pin.

Re-shipping is ack-driven: a replica whose ack stagnates below what we
shipped (a dropped batch) gets the tail re-sent from its acked
watermark, and replicas apply idempotently.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Mapping

from repro.cluster.shard import COORD_ENDPOINT, ShardHost
from repro.net.protocol import Heartbeat, WalAck, WalShip
from repro.net.simnet import Message
from repro.obs import emit_context
from repro.replication.journal import ShardJournal

#: Ship-every-interval mode: acknowledged == locally durable.
ACK_ASYNC = "async"
#: Ship-every-tick mode: acknowledged == durable on some replica.
ACK_SEMISYNC = "semisync"

#: Ticks an ack may stagnate below the shipped watermark before the
#: primary assumes a dropped batch and re-ships from the acked LSN.
RESHIP_AFTER_TICKS = 3


class ReplicatedShardHost(ShardHost):
    """A shard primary that journals every change and ships its WAL."""

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.journal = ShardJournal(obs=self.obs, name=f"shard:{self.shard_id}")
        self.applied_txns: set[int] = set()
        self.crashed = False
        self.replica_endpoints: list[str] = []
        self._acked: dict[str, int] = {}
        self._shipped: dict[str, int] = {}
        self._ack_progress_tick: dict[str, int] = {}
        self.world.add_change_hook(self.journal.log_change)
        # Registered after construction on purpose: the constructor's
        # catalog defines are part of the shard's seed (replicas make
        # the same defines themselves), so only later catalog events —
        # alters and their backfill batches — are journaled.
        self.world.catalog.add_hook(self._journal_schema)

    # -- journaling hooks ---------------------------------------------------------

    def _journal_schema(self, kind: str, record: Mapping[str, Any]) -> None:
        if kind == "define":
            return  # seed schemas are replicated by construction, not log
        self.journal.log_schema(kind, record)

    def install_entity(
        self, entity: int, components: Mapping[str, Mapping[str, Any]]
    ) -> None:
        """Install an entity and journal the ownership change."""
        super().install_entity(entity, components)
        self.journal.log_own(entity)

    def evict_entity(self, entity: int, dst_shard: int) -> dict[str, dict[str, Any]]:
        """Evict an entity and journal the ownership release."""
        payload = super().evict_entity(entity, dst_shard)
        self.journal.log_disown(entity)
        return payload

    def _on_decision(self, decision: Any) -> None:
        super()._on_decision(decision)
        self.journal.log_txn(decision.txn_id, decision.commit)
        self.applied_txns.add(decision.txn_id)

    def _vote(
        self,
        prepare: Any,
        commit: bool,
        reads: Mapping[Hashable, Any],
        applied: bool = False,
        ctx: Any = None,
    ) -> None:
        # Single-shard fast path: the transaction executed inside
        # _on_prepare, so the marker goes down with this tick's records.
        if applied and commit:
            self.journal.log_txn(prepare.txn_id, True)
            self.applied_txns.add(prepare.txn_id)
        super()._vote(prepare, commit, reads, applied, ctx)

    def apply_recovered_writes(
        self, txn_id: int, writes: Mapping[Hashable, Any]
    ) -> None:
        """Failover repair: apply a committed decision that died in flight.

        The coordinator computed and sent these writes to the old
        primary, which crashed before applying (the replica has no
        ``txn`` marker for them).  Values are absolute, so applying them
        here — journaled like any other change — is idempotent.
        """
        for key in sorted(writes, key=repr):
            entity, component, fieldname = key
            self.world.set(entity, component, **{fieldname: writes[key]})
        self.journal.log_txn(txn_id, True)
        self.applied_txns.add(txn_id)

    # -- ack handling -------------------------------------------------------------

    def process_inbox(self, messages: Iterable[Message]) -> None:
        """Absorb replica acks, then handle cluster protocol as usual."""
        rest = []
        for msg in messages:
            if isinstance(msg.payload, WalAck):
                self._on_wal_ack(msg.payload)
            else:
                rest.append(msg)
        super().process_inbox(rest)

    def _on_wal_ack(self, ack: WalAck) -> None:
        endpoint = f"replica:{self.shard_id}:{ack.replica}"
        if ack.applied_lsn > self._acked.get(endpoint, 0):
            self._acked[endpoint] = ack.applied_lsn
            self._ack_progress_tick[endpoint] = self.net.now

    @property
    def acknowledged_lsn(self) -> int:
        """Highest LSN durable on at least one replica (semi-sync watermark)."""
        if not self.replica_endpoints:
            return 0
        return max(self._acked.get(ep, 0) for ep in self.replica_endpoints)

    def replica_lag(self) -> dict[str, int]:
        """Per-replica records between our flushed LSN and their ack."""
        flushed = self.journal.flushed_lsn
        return {
            ep: flushed - self._acked.get(ep, 0)
            for ep in self.replica_endpoints
        }

    # -- log shipping -------------------------------------------------------------

    def attach_replica(self, endpoint: str) -> None:
        """Register a replica endpoint as a shipping target."""
        self.replica_endpoints.append(endpoint)
        self._acked.setdefault(endpoint, 0)
        self._shipped.setdefault(endpoint, 0)
        self._ack_progress_tick.setdefault(endpoint, self.net.now)

    def replicate(self, ship_now: bool) -> None:
        """Close this tick's journal window and ship/heartbeat.

        Called by the coordinator after :meth:`tick`: journal the frame
        boundary, flush (the one fsync per frame), ship the durable tail
        to each replica when ``ship_now``, and heartbeat the coordinator.
        Shipping restarts from a replica's acked LSN when its acks have
        stagnated — the dropped-batch repair path.
        """
        self.journal.log_tick(self.world.clock.tick)
        self.journal.flush()
        if ship_now:
            tracer = self.obs.tracer
            if tracer.enabled and self.replica_endpoints:
                with tracer.span(
                    "repl.ship",
                    cat="replication",
                    shard=self.shard_id,
                    replicas=len(self.replica_endpoints),
                ):
                    for endpoint in self.replica_endpoints:
                        self._ship_to(endpoint)
            else:
                for endpoint in self.replica_endpoints:
                    self._ship_to(endpoint)
        heartbeat = Heartbeat(
            shard=self.shard_id,
            tick=self.net.now,
            flushed_lsn=self.journal.flushed_lsn,
        )
        tracer = self.obs.tracer
        ctx = emit_context(tracer, name="net.Heartbeat") if tracer.enabled else None
        self.net.send(
            self.endpoint, COORD_ENDPOINT, heartbeat, heartbeat.wire_size(),
            ctx,
        )

    def _ship_to(self, endpoint: str) -> None:
        acked = self._acked.get(endpoint, 0)
        shipped = self._shipped.get(endpoint, 0)
        start = shipped
        if acked < shipped and (
            self.net.now - self._ack_progress_tick.get(endpoint, 0)
            > RESHIP_AFTER_TICKS
        ):
            start = acked
            self._ack_progress_tick[endpoint] = self.net.now
        records = self.journal.ship_since(start)
        if not records:
            return
        ship = WalShip(shard=self.shard_id, records=records, tick=self.net.now)
        tracer = self.obs.tracer
        ctx = emit_context(tracer, name="net.WalShip") if tracer.enabled else None
        self.net.send(self.endpoint, endpoint, ship, ship.wire_size(), ctx)
        self._shipped[endpoint] = max(shipped, records[-1][0])

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ReplicatedShardHost(id={self.shard_id}, "
            f"owned={len(self.owned)}, flushed={self.journal.flushed_lsn}, "
            f"acked={self.acknowledged_lsn})"
        )
