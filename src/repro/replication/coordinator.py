"""Fault-tolerant cluster coordinator: heartbeats, failover, re-sync.

:class:`ReplicatedClusterCoordinator` extends the sharded-world
:class:`~repro.cluster.coordinator.ClusterCoordinator` so that every
shard is a **replication group**: a
:class:`~repro.replication.primary.ReplicatedShardHost` primary that
journals and ships its WAL, plus ``replication_factor`` standby
:class:`~repro.replication.replica.ReplicaHost` copies.

The global tick gains four phases: scheduled faults are applied (via an
optional :class:`~repro.net.faults.FaultInjector`), dead primaries are
detected by missed heartbeats, live primaries tick and ship their logs,
and replicas apply what arrived.  All ordering is fixed, so a run with
a fault plan replays tick-for-tick under the same seed.

**Failover** (single failure per group at a time): when a primary's
heartbeats go silent past ``heartbeat_timeout`` ticks, the coordinator
fences the old endpoint, promotes the most-caught-up surviving replica
(highest applied LSN; ties to the lowest index), rebuilds a fresh
primary from its standby state — re-journaling everything as a new
epoch — and repairs the cluster control plane: in-flight handoffs are
cancelled or re-driven from retained eviction payloads, transactions
interrupted mid-2PC are aborted (or their committed decisions
re-applied, guarded by the replica's ``txn`` markers), entities whose
records never shipped are declared lost (impossible in semi-sync), and
the replica group is reset and re-provisioned to full strength.  The
entity directory needs no rewrite — it names shard *ids*, and the
promoted host takes over the dead primary's id and endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.shard import ShardHost, shard_endpoint
from repro.core.component import ComponentSchema
from repro.errors import ReplicationError
from repro.net.faults import FaultInjector
from repro.net.protocol import HandoffResend, Heartbeat, TxnDecision
from repro.net.simnet import Message
from repro.obs import accept_context
from repro.replication.primary import (
    ACK_ASYNC,
    ACK_SEMISYNC,
    ReplicatedShardHost,
)
from repro.replication.replica import ReplicaHost


@dataclass(frozen=True)
class FailoverReport:
    """What one failover cost: detection latency, loss, and repairs."""

    shard: int
    last_heartbeat_tick: int
    detected_tick: int
    promoted_replica: int
    promoted_applied_lsn: int
    promoted_state_hash: str
    records_lost: int
    entities_lost: int
    stale_copies_dropped: int
    handoffs_cancelled: int
    handoffs_resent: int
    txns_aborted: int
    txns_recovered: int

    @property
    def unavailable_ticks(self) -> int:
        """Ticks the shard was dark: last heartbeat until promotion."""
        return self.detected_tick - self.last_heartbeat_tick


@dataclass
class GroupStatus:
    """Observability snapshot of one replication group."""

    shard: int
    flushed_lsn: int
    acknowledged_lsn: int
    replica_lsns: dict[str, int] = field(default_factory=dict)
    bytes_shipped: int = 0


class ReplicatedClusterCoordinator(ClusterCoordinator):
    """A sharded world where every shard survives its primary's crash."""

    def __init__(
        self,
        shards: int,
        placement: Any,
        schemas: Any,
        *,
        replication_factor: int = 1,
        ack_mode: str = ACK_SEMISYNC,
        ship_interval: int = 4,
        heartbeat_timeout: int = 4,
        injector: FaultInjector | None = None,
        **kwargs: Any,
    ):
        if replication_factor < 0:
            raise ReplicationError("replication_factor must be >= 0")
        if ack_mode not in (ACK_ASYNC, ACK_SEMISYNC):
            raise ReplicationError(f"unknown ack mode {ack_mode!r}")
        if ship_interval < 1:
            raise ReplicationError("ship_interval must be positive")
        if heartbeat_timeout < 2:
            raise ReplicationError("heartbeat_timeout must be >= 2")
        if ack_mode == ACK_SEMISYNC and replication_factor < 1:
            raise ReplicationError("semi-sync needs at least one replica")
        self.replication_factor = replication_factor
        self.ack_mode = ack_mode
        self.ship_interval = ship_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.injector = injector
        self.failovers: list[FailoverReport] = []
        #: Called with each FailoverReport right after promotion — the
        #: durable tier registers its promote-then-replay-outbox step
        #: here, so event redelivery rides the same control path as the
        #: world-state failover itself.
        self.failover_hooks: list[Any] = []
        self._last_heartbeat: dict[int, int] = {}
        self._last_flushed: dict[int, int] = {}
        super().__init__(shards, placement, schemas, **kwargs)
        self.replicas: dict[int, list[ReplicaHost]] = {}
        self._replica_counter: dict[int, int] = {}
        for host in self.shards:
            group: list[ReplicaHost] = []
            for idx in range(replication_factor):
                group.append(self._provision_replica(host, idx))
            self.replicas[host.shard_id] = group
            self._replica_counter[host.shard_id] = replication_factor - 1
            self._last_heartbeat[host.shard_id] = 0
            self._last_flushed[host.shard_id] = 0

    # -- topology -----------------------------------------------------------------

    def _make_shard(
        self, shard_id: int, schemas: list[ComponentSchema]
    ) -> ShardHost:
        return ReplicatedShardHost(
            shard_id, self.net, schemas, self.dt, obs=self.obs
        )

    def _provision_replica(
        self, host: ReplicatedShardHost, idx: int
    ) -> ReplicaHost:
        replica = ReplicaHost(
            host.shard_id, idx, self.net, self._schemas, self.dt
        )
        self.net.connect(host.endpoint, replica.endpoint, self._link)
        host.attach_replica(replica.endpoint)
        return replica

    def replica(self, shard_id: int, idx: int) -> ReplicaHost:
        """The replica with the given index in a shard's group."""
        for rep in self.replicas[shard_id]:
            if rep.idx == idx:
                return rep
        raise ReplicationError(f"shard {shard_id} has no replica {idx}")

    # -- the replicated tick ------------------------------------------------------

    def _on_coord_message(self, msg: Message) -> None:
        payload = msg.payload
        if isinstance(payload, Heartbeat):
            if msg.ctx is not None:
                accept_context(self.obs.tracer, msg.ctx, name="net.Heartbeat")
            self._last_heartbeat[payload.shard] = self.net.now
            self._last_flushed[payload.shard] = payload.flushed_lsn
        else:
            super()._on_coord_message(msg)

    def _step_shards(self) -> None:
        now = self.net.now
        if self.injector is not None:
            for endpoint in self.injector.apply(self.net, now):
                self._mark_crashed(endpoint)
        self._detect_failures()
        ship_now = (
            self.ack_mode == ACK_SEMISYNC or now % self.ship_interval == 0
        )
        for host in self.shards:
            if host.crashed:
                continue
            host.process_inbox(self.net.receive(host.endpoint))
            if self._may_tick(host.shard_id):
                host.tick()
            host.replicate(ship_now)
        for host in self.shards:
            for rep in self.replicas[host.shard_id]:
                if rep.crashed:
                    continue
                rep.process_inbox(self.net.receive(rep.endpoint))

    def _mark_crashed(self, endpoint: str) -> None:
        """Record an injected crash; the network side is already down."""
        for host in self.shards:
            if host.endpoint == endpoint:
                host.crashed = True
                self.net.receive(endpoint)  # discard undelivered inbox
                self._record_crash(endpoint)
                return
        for group in self.replicas.values():
            for rep in group:
                if rep.endpoint == endpoint:
                    rep.crashed = True
                    self.net.receive(endpoint)
                    self._record_crash(endpoint)
                    return
        raise ReplicationError(f"crash fault on unknown endpoint {endpoint!r}")

    def _record_crash(self, endpoint: str) -> None:
        """Flight-record an injected crash (event + automatic dump)."""
        if self.obs.tracer.enabled:
            self.obs.tracer.event(
                "fault.crash", cat="fault", endpoint=endpoint, tick=self.net.now
            )
        self.obs.flight_dump(f"crash:{endpoint}")

    def _maybe_repartition(self) -> None:
        # Rebalancing against a dead shard would strand handoffs; hold
        # still until failover restores the group.
        if any(host.crashed for host in self.shards):
            return
        super()._maybe_repartition()

    def _quiet(self) -> bool:
        # Steady-state replication keeps the wire busy forever, so the
        # empty-network condition of the base class can never hold here.
        return (
            not self._in_flight
            and not self._pending_specs
            and all(r.finished for r in self._txns.values())
            and not any(host.deferred_handoffs for host in self.shards)
            and not any(host.crashed for host in self.shards)
            and not self._schema_rollouts
        )

    # -- failure detection and failover -------------------------------------------

    def _detect_failures(self) -> None:
        for host in list(self.shards):
            silent = self.net.now - self._last_heartbeat[host.shard_id]
            if silent > self.heartbeat_timeout:
                self._failover(host.shard_id)

    def _failover(self, shard_id: int) -> FailoverReport:
        """Promote the most-caught-up replica over a silent primary.

        When tracing, the whole promotion runs under a ``failover`` span
        and the flight recorder dumps right after it closes — the span
        is in the dump, which is the artifact the E16 bench validates.
        """
        tracer = self.obs.tracer
        if not tracer.enabled:
            return self._failover_impl(shard_id)
        with tracer.span("failover", cat="replication", shard=shard_id) as sp:
            report = self._failover_impl(shard_id)
            sp.set(
                promoted_replica=report.promoted_replica,
                records_lost=report.records_lost,
                entities_lost=report.entities_lost,
                unavailable_ticks=report.unavailable_ticks,
            )
        self.obs.flight_dump(f"failover:shard{shard_id}")
        return report

    def _failover_impl(self, shard_id: int) -> FailoverReport:
        old = self.shards[shard_id]
        endpoint = old.endpoint
        detected_tick = self.net.now
        last_heartbeat = self._last_heartbeat[shard_id]
        # Fence: the old primary never takes another tick, even if it
        # was merely partitioned rather than dead.
        self.net.set_down(endpoint)
        old.crashed = True
        group = [r for r in self.replicas[shard_id] if not r.crashed]
        if not group:
            raise ReplicationError(
                f"shard {shard_id} lost its primary and every replica"
            )
        best = max(group, key=lambda r: (r.applied_lsn, -r.idx))
        snapshot = best.world.snapshot()
        # Rebuild a fresh primary on the dead shard's id and endpoint;
        # restoring the standby state re-journals it as a new epoch.
        self.net.set_up(endpoint)
        self.net.receive(endpoint)  # discard messages addressed to the dead
        host = self._make_shard(shard_id, self._schemas)
        assert isinstance(host, ReplicatedShardHost)
        # Catalog first, then state: the replica may have applied schema
        # alters (even be mid-backfill) that the fresh host's seed
        # schemas predate.  Catching up journals the alters into the new
        # epoch *before* the restored rows, so the re-journaled state is
        # replayable — and the restored snapshot, whose rows the standby
        # serialized at its catalog version, lands on matching shapes.
        host.world.catalog.catch_up(best.world.catalog.schema_state())
        # The cluster's systems and change hooks, before the state: the
        # hooks (e.g. a gateway's ClusterView) hear the restore, so the
        # promoted values — possibly rolled back — are streamed again.
        self._install_registrations(host)
        host.world.restore(snapshot)
        promoted_hash = host.world.state_hash()
        host.owned = set(best.owned)
        host.stats.entities_owned = len(host.owned)
        for entity in sorted(host.owned):
            host.journal.log_own(entity)
        host.applied_txns = set(best.applied_txns)
        self.shards[shard_id] = host
        cancelled, resent = self._reconcile_handoffs(shard_id, host)
        aborted, recovered = self._reconcile_txns(shard_id, host)
        lost, stale = self._reconcile_directory(shard_id, host)
        self._reconcile_schema(shard_id, host)
        self._rebuild_group(shard_id, host, best)
        self._last_heartbeat[shard_id] = self.net.now
        report = FailoverReport(
            shard=shard_id,
            last_heartbeat_tick=last_heartbeat,
            detected_tick=detected_tick,
            promoted_replica=best.idx,
            promoted_applied_lsn=best.applied_lsn,
            promoted_state_hash=promoted_hash,
            records_lost=max(
                0, self._last_flushed[shard_id] - best.applied_lsn
            ),
            entities_lost=lost,
            stale_copies_dropped=stale,
            handoffs_cancelled=cancelled,
            handoffs_resent=resent,
            txns_aborted=aborted,
            txns_recovered=recovered,
        )
        self._last_flushed[shard_id] = 0
        self.failovers.append(report)
        for hook in self.failover_hooks:
            hook(report)
        return report

    def _reconcile_handoffs(
        self, shard_id: int, host: ReplicatedShardHost
    ) -> tuple[int, int]:
        """Repair in-flight handoffs that touched the dead primary.

        Source died still owning the entity (per the replica): the
        eviction never happened, so the handoff simply never started —
        cancel it.  Destination died before the install survived: the
        source still retains the eviction payload (it drops it only on
        ``HandoffComplete``), so ask it to re-send to the promoted host.
        """
        cancelled = resent = 0
        for entity in sorted(self._in_flight):
            rec = self._in_flight[entity]
            if rec.src_shard == shard_id and entity in host.owned:
                del self._in_flight[entity]
                cancelled += 1
            elif rec.dst_shard == shard_id and entity not in host.owned:
                self._send(
                    shard_endpoint(rec.src_shard),
                    HandoffResend(
                        entity=entity, dst_shard=shard_id, tick=self.net.now
                    ),
                )
                resent += 1
        return cancelled, resent

    def _reconcile_txns(
        self, shard_id: int, host: ReplicatedShardHost
    ) -> tuple[int, int]:
        """Resolve transactions interrupted by the primary's crash.

        Unfinished transactions involving the dead shard abort (other
        participants get an abort decision to release their prepare
        locks), except a single-shard fast path whose execution provably
        survived (its ``txn`` marker reached the replica).  Committed
        decisions that died on the wire are re-applied at the promoted
        host — the marker's absence is the proof they never landed, and
        decision writes are absolute values, so this is idempotent.
        """
        aborted = recovered = 0
        for txn_id in sorted(self._txns):
            record = self._txns[txn_id]
            if record.finished:
                if (
                    record.committed
                    and shard_id in record.writes_by_shard
                    and txn_id not in host.applied_txns
                ):
                    host.apply_recovered_writes(
                        txn_id, record.writes_by_shard[shard_id]
                    )
                    recovered += 1
                continue
            if shard_id not in record.shard_keys:
                continue
            if record.local and txn_id in host.applied_txns:
                self._finish(record, committed=True)
                continue
            for other in sorted(record.shard_keys):
                if other != shard_id:
                    self._send(
                        shard_endpoint(other),
                        TxnDecision(
                            txn_id=txn_id,
                            commit=False,
                            writes={},
                            tick=self.net.now,
                        ),
                    )
            self._finish(record, committed=False)
            aborted += 1
        return aborted, recovered

    def _reconcile_directory(
        self, shard_id: int, host: ReplicatedShardHost
    ) -> tuple[int, int]:
        """Settle ownership against what actually survived the crash.

        Entities the directory placed at the dead shard but whose
        records never reached the replica are lost (async's loss
        window; semi-sync keeps this at zero).  Conversely a stale
        surviving copy of an entity the directory has already moved
        elsewhere is dropped — otherwise two shards would own it.
        """
        lost = 0
        for entity in sorted(self.directory):
            if self.directory[entity] != shard_id or entity in self._in_flight:
                continue
            if entity not in host.owned:
                del self.directory[entity]
                lost += 1
        stale = 0
        for entity in sorted(host.owned):
            owner = self.directory.get(entity)
            in_flight = entity in self._in_flight
            if owner is not None and owner != shard_id and not in_flight:
                host.world.destroy(entity)
                host.owned.discard(entity)
                host.journal.log_disown(entity)
                stale += 1
        host.stats.entities_owned = len(host.owned)
        return lost, stale

    def _rebuild_group(
        self, shard_id: int, host: ReplicatedShardHost, promoted: ReplicaHost
    ) -> None:
        """Reset survivors to the new epoch and restore the group size."""
        survivors = [
            r
            for r in self.replicas[shard_id]
            if r is not promoted and not r.crashed
        ]
        for rep in survivors:
            rep.reset()
            host.attach_replica(rep.endpoint)
        self._replica_counter[shard_id] += 1
        fresh = self._provision_replica(host, self._replica_counter[shard_id])
        self.replicas[shard_id] = survivors + [fresh]

    # -- observability ------------------------------------------------------------

    def replication_stats(self) -> dict[int, GroupStatus]:
        """Per-group progress: flushed/acked LSNs and bytes shipped."""
        out: dict[int, GroupStatus] = {}
        for host in self.shards:
            assert isinstance(host, ReplicatedShardHost)
            status = GroupStatus(
                shard=host.shard_id,
                flushed_lsn=host.journal.flushed_lsn,
                acknowledged_lsn=host.acknowledged_lsn,
            )
            for rep in self.replicas[host.shard_id]:
                status.replica_lsns[rep.endpoint] = rep.applied_lsn
                link = self.net.link_stats.get((host.endpoint, rep.endpoint))
                if link is not None:
                    status.bytes_shipped += link.bytes_sent
            out[host.shard_id] = status
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ReplicatedClusterCoordinator(shards={len(self.shards)}, "
            f"k={self.replication_factor}, mode={self.ack_mode}, "
            f"failovers={len(self.failovers)})"
        )
