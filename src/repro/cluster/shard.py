"""One shard of a sharded world: a `GameWorld` slice plus protocol glue.

A :class:`ShardHost` owns a subset of the cluster's entities inside its
own :class:`~repro.core.world.GameWorld`, runs that world's systems on
every global tick, and speaks the cluster protocol over the simulated
network: it evicts/installs entities for the handoff protocol, forwards
messages addressed to entities it handed away, and acts as a two-phase
commit participant by exposing its component tables as the keyed store
behind :class:`~repro.consistency.transactions.TwoPhaseParticipant`.

Transaction keys are ``(entity_id, component, field)`` tuples, the same
grain the lock-manager docs name, so a distributed transaction locks
exactly the fields it touches inside each shard's world.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Mapping

from repro.cluster.migration import ForwardingTable
from repro.cluster.stats import ShardStats
from repro.consistency.transactions import TwoPhaseParticipant
from repro.core.component import ComponentSchema
from repro.core.world import GameWorld
from repro.errors import ClusterError
from repro.net.protocol import (
    HandoffAck,
    HandoffCommand,
    HandoffComplete,
    HandoffRequest,
    HandoffResend,
    SchemaAlter,
    SchemaAlterAck,
    TxnDecision,
    TxnPrepare,
    TxnVote,
)
from repro.schema.steps import steps_from_records
from repro.net.simnet import Message, SimNetwork
from repro.obs import (
    Observability,
    TraceContext,
    accept_context,
    emit_context,
    resolve_obs,
)

#: Network endpoint name of a shard / the coordinator.
COORD_ENDPOINT = "coord"


def shard_endpoint(shard_id: int) -> str:
    """Network endpoint name for a shard id."""
    return f"shard:{shard_id}"


class _WorldStore:
    """Adapter exposing world component fields as a keyed store.

    Keys are ``(entity_id, component, field)``; this is the store the
    2PC participant reads and writes, so commit lands directly in the
    shard's columnar tables (and through them, indexes, aggregates, and
    persistence hooks).
    """

    def __init__(self, world: GameWorld):
        self.world = world

    def get(self, key: Hashable) -> Any:
        entity, component, fieldname = key
        return self.world.get_field(entity, component, fieldname)

    def put(self, key: Hashable, value: Any) -> None:
        entity, component, fieldname = key
        self.world.set(entity, component, **{fieldname: value})


class ShardHost:
    """Hosts one shard's world slice and speaks the cluster protocol."""

    def __init__(
        self,
        shard_id: int,
        net: SimNetwork,
        schemas: Iterable[ComponentSchema],
        dt: float = 1.0 / 30.0,
        *,
        obs: Observability | None = None,
    ):
        self.shard_id = shard_id
        self.endpoint = shard_endpoint(shard_id)
        self.net = net
        # Each shard traces in its own (node, shard) timestamp lane so
        # merged cluster traces keep per-host timelines apart.
        self.obs = resolve_obs(obs).lane(self.endpoint)
        self.world = GameWorld(dt, obs=self.obs)
        for schema in schemas:
            self.world.catalog.define(schema)
        self.owned: set[int] = set()
        self.forwarding = ForwardingTable()
        self.participant = TwoPhaseParticipant(_WorldStore(self.world))
        self.stats = ShardStats(shard_id, registry=net.metrics)
        self._deferred_handoffs: list[tuple[HandoffCommand, TraceContext | None]] = []
        self._retained_evictions: dict[int, HandoffRequest] = {}
        #: (component, to_version) alters begun but not yet acked to the
        #: coordinator; acked once the local backfill commits.
        self._pending_schema_acks: list[tuple[str, int]] = []
        #: handoff payloads stamped with a catalog version this shard has
        #: not reached yet — installed once the local alter catches up.
        self._deferred_installs: list[tuple[HandoffRequest, TraceContext | None]] = []
        net.add_endpoint(self.endpoint)

    # -- ownership ----------------------------------------------------------------

    def owns(self, entity: int) -> bool:
        """Whether this shard currently owns the entity."""
        return entity in self.owned

    def install_entity(
        self, entity: int, components: Mapping[str, Mapping[str, Any]]
    ) -> None:
        """Install an entity (spawn-time placement or inbound handoff)."""
        if entity in self.owned:
            raise ClusterError(
                f"shard {self.shard_id} already owns entity {entity}"
            )
        self.world.restore_entity(entity, components)
        self.owned.add(entity)
        self.forwarding.clear(entity)
        self.stats.entities_owned = len(self.owned)

    def evict_entity(self, entity: int, dst_shard: int) -> dict[str, dict[str, Any]]:
        """Serialize an entity out of this shard's tables and drop it."""
        if entity not in self.owned:
            raise ClusterError(
                f"shard {self.shard_id} does not own entity {entity}"
            )
        payload = self.world.snapshot_entity(entity)
        self.world.destroy(entity)
        self.owned.discard(entity)
        self.forwarding.record_eviction(entity, dst_shard)
        self.stats.entities_owned = len(self.owned)
        return payload

    # -- message plane ------------------------------------------------------------

    def send(
        self, dst: str, payload: Any, size: int | None = None,
        ctx: TraceContext | None = None,
    ) -> None:
        """Send one protocol message, billing wire size and counters.

        ``ctx`` continues a causal trace across the hop (a fresh flow
        arrow is opened in this shard's lane; the carried trace_id
        propagates even with tracing off).
        """
        size = size if size is not None else payload.wire_size()
        tracer = self.obs.tracer
        if tracer.enabled or ctx is not None:
            ctx = emit_context(
                tracer, carry=ctx, name=f"net.{type(payload).__name__}"
            )
        self.net.send(self.endpoint, dst, payload, size, ctx)
        self.stats.cross_shard_messages += 1

    def process_inbox(self, messages: Iterable[Message]) -> None:
        """Handle this tick's delivered protocol messages in order."""
        for msg in messages:
            payload = msg.payload
            ctx = msg.ctx
            if ctx is not None:
                accept_context(
                    self.obs.tracer, ctx,
                    name=f"net.{type(payload).__name__}",
                )
            if isinstance(payload, HandoffCommand):
                self._on_handoff_command(payload, ctx)
            elif isinstance(payload, HandoffRequest):
                self._on_handoff_request(payload, ctx)
            elif isinstance(payload, HandoffComplete):
                self._retained_evictions.pop(payload.entity, None)
            elif isinstance(payload, HandoffResend):
                self._on_handoff_resend(payload, ctx)
            elif isinstance(payload, TxnPrepare):
                self._on_prepare(payload, ctx)
            elif isinstance(payload, TxnDecision):
                self._on_decision(payload)
            elif isinstance(payload, SchemaAlter):
                self._on_schema_alter(payload)
            else:
                raise ClusterError(
                    f"shard {self.shard_id}: unexpected message {msg!r}"
                )

    def tick(self) -> None:
        """Advance this shard's world one frame."""
        self._retry_deferred_handoffs()
        self._retry_deferred_installs()
        self.world.tick()
        self.stats.ticks += 1
        self._flush_schema_acks()

    @property
    def deferred_handoffs(self) -> int:
        """Handoffs waiting for prepared transactions to release locks."""
        return len(self._deferred_handoffs)

    # -- handoff protocol -------------------------------------------------------

    def _entity_lock_held(self, entity: int) -> bool:
        """Whether a prepared transaction has locks on the entity."""
        return any(key[0] == entity for key in self.participant.prepared_keys())

    def _retry_deferred_handoffs(self) -> None:
        deferred, self._deferred_handoffs = self._deferred_handoffs, []
        for cmd, ctx in deferred:
            self._on_handoff_command(cmd, ctx)

    def _on_handoff_command(
        self, cmd: HandoffCommand, ctx: TraceContext | None = None
    ) -> None:
        """Coordinator told us to hand an entity to another shard.

        Eviction waits while a prepared transaction holds locks on the
        entity — shipping the state away would orphan the commit — and
        retries on the next tick, after decisions have been processed.
        The causal context survives the deferral and rides the request.
        """
        if self._entity_lock_held(cmd.entity):
            self._deferred_handoffs.append((cmd, ctx))
            return
        components = self.evict_entity(cmd.entity, cmd.dst_shard)
        self.stats.migrations_out += 1
        request = HandoffRequest(
            entity=cmd.entity,
            components=components,
            src_shard=self.shard_id,
            dst_shard=cmd.dst_shard,
            tick=self.net.now,
            schema_versions=self._stamp_versions(components),
        )
        # Retain the payload until the coordinator confirms the handoff
        # is durable (HandoffComplete); a crash of the destination while
        # the request is in flight can then be repaired by re-sending.
        self._retained_evictions[cmd.entity] = request
        self.send(shard_endpoint(cmd.dst_shard), request, ctx=ctx)

    def _on_handoff_resend(
        self, cmd: HandoffResend, ctx: TraceContext | None = None
    ) -> None:
        """Failover repair: re-ship a retained eviction to the new owner."""
        retained = self._retained_evictions.get(cmd.entity)
        if retained is None:
            raise ClusterError(
                f"shard {self.shard_id}: no retained eviction for "
                f"entity {cmd.entity}"
            )
        request = HandoffRequest(
            entity=retained.entity,
            components=retained.components,
            src_shard=self.shard_id,
            dst_shard=cmd.dst_shard,
            tick=self.net.now,
            # Keep the original stamp: the retained rows were serialized
            # at the versions of the original eviction, not at whatever
            # this shard's catalog has advanced to since.
            schema_versions=retained.schema_versions,
        )
        self._retained_evictions[cmd.entity] = request
        self.send(shard_endpoint(cmd.dst_shard), request, ctx=ctx)

    @property
    def retained_evictions(self) -> int:
        """Eviction payloads held until the coordinator confirms them."""
        return len(self._retained_evictions)

    def _on_handoff_request(
        self, req: HandoffRequest, ctx: TraceContext | None = None
    ) -> None:
        """A peer shipped us an entity: install it and tell the coordinator.

        Version-stamped payloads make mixed-version ticks safe: rows
        shipped at an older catalog version are upgraded through the
        recorded alter steps before install, and rows from a *newer*
        version than this shard has reached are deferred until its own
        backfill catches up (at most the rollout window, ~1 tick).
        """
        stamps = dict(req.schema_versions)
        if stamps:
            catalog = self.world.catalog
            behind = [
                comp
                for comp, version in stamps.items()
                if version > catalog.effective_version(comp)
            ]
            if behind:
                self._deferred_installs.append((req, ctx))
                return
            upgraded = {}
            for comp, row in req.components.items():
                from_v = stamps.get(comp, catalog.effective_version(comp))
                upgraded[comp] = catalog.upgrade_payload(comp, row, from_v)
            req = HandoffRequest(
                entity=req.entity,
                components=upgraded,
                src_shard=req.src_shard,
                dst_shard=req.dst_shard,
                tick=req.tick,
                schema_versions=req.schema_versions,
            )
        tracer = self.obs.tracer
        if tracer.enabled:
            with tracer.span(
                "handoff.install", cat="cluster",
                entity=req.entity, src=req.src_shard,
            ):
                self.install_entity(req.entity, req.components)
        else:
            self.install_entity(req.entity, req.components)
        self.stats.migrations_in += 1
        self.send(
            COORD_ENDPOINT,
            HandoffAck(
                entity=req.entity,
                src_shard=req.src_shard,
                dst_shard=self.shard_id,
                tick=self.net.now,
            ),
            ctx=ctx,
        )

    def _retry_deferred_installs(self) -> None:
        deferred, self._deferred_installs = self._deferred_installs, []
        for req, ctx in deferred:
            self._on_handoff_request(req, ctx)

    @property
    def deferred_installs(self) -> int:
        """Handoff installs waiting for the local catalog to catch up."""
        return len(self._deferred_installs)

    # -- schema rollout -----------------------------------------------------------

    def _stamp_versions(self, components: Iterable[str]) -> tuple:
        """((component, effective_version), ...) for a wire payload."""
        catalog = self.world.catalog
        return tuple(
            (comp, catalog.effective_version(comp))
            for comp in sorted(components)
        )

    def _on_schema_alter(self, msg: SchemaAlter) -> None:
        """Coordinator broadcast: begin the alter on this shard's world."""
        catalog = self.world.catalog
        if catalog.effective_version(msg.component) >= msg.to_version:
            # Duplicate delivery (e.g. a failover re-broadcast): just
            # make sure an ack goes out once the version is committed.
            self._pending_schema_acks.append((msg.component, msg.to_version))
            return
        catalog.alter(
            msg.component,
            steps_from_records(msg.steps),
            batch_rows=msg.batch_rows,
        )
        self._pending_schema_acks.append((msg.component, msg.to_version))

    def _flush_schema_acks(self) -> None:
        """Ack every rollout whose local backfill has committed."""
        if not self._pending_schema_acks:
            return
        catalog = self.world.catalog
        still_pending = []
        for comp, to_version in self._pending_schema_acks:
            if catalog.version_of(comp) >= to_version:
                self.send(
                    COORD_ENDPOINT,
                    SchemaAlterAck(
                        shard=self.shard_id,
                        component=comp,
                        to_version=to_version,
                        tick=self.net.now,
                    ),
                )
            else:
                still_pending.append((comp, to_version))
        self._pending_schema_acks = still_pending

    # -- two-phase commit participant ---------------------------------------------

    def _entities_of(self, keyed_ops: Iterable[tuple[str, Hashable]]) -> set[int]:
        return {key[0] for _kind, key in keyed_ops}

    def _forward_prepare(
        self, prepare: TxnPrepare, next_hop: int,
        ctx: TraceContext | None = None,
    ) -> None:
        """In-flight forwarding: the entity moved, chase it."""
        self.forwarding.count_forward()
        self.stats.forwarded_messages += 1
        self.send(shard_endpoint(next_hop), prepare, ctx=ctx)

    def _on_prepare(
        self, prepare: TxnPrepare, ctx: TraceContext | None = None
    ) -> None:
        """Phase one: vote, execute locally, or forward to the new owner."""
        tracer = self.obs.tracer
        if not tracer.enabled:
            self._handle_prepare(prepare, ctx)
            return
        with tracer.span(
            "2pc.prepare", cat="cluster", txn=prepare.txn_id, shard=self.shard_id
        ):
            self._handle_prepare(prepare, ctx)

    def _handle_prepare(
        self, prepare: TxnPrepare, ctx: TraceContext | None = None
    ) -> None:
        self.stats.txn_prepares += 1
        catalog = self.world.catalog
        for comp, version in prepare.schema_versions:
            if catalog.effective_version(comp) != version:
                # Mixed-version window of a rolling alter: the shard's
                # schema disagrees with the version the coordinator
                # planned the transaction against.  Abort — no-wait 2PC
                # makes this safe, and the window closes within a tick.
                self.stats.txn_aborts_2pc += 1
                self._vote(prepare, commit=False, reads={}, ctx=ctx)
                return
        entities = self._entities_of(prepare.keyed_ops)
        missing = [e for e in sorted(entities) if e not in self.owned]
        if missing:
            hops = {self.forwarding.next_hop(e) for e in missing}
            # Forward only a slice that moved away whole.  One that split
            # (some entities still here) would be forwarded straight back
            # by the peer's breadcrumb for the part it is missing.
            if len(missing) == len(entities) and len(hops) == 1 and None not in hops:
                self._forward_prepare(prepare, hops.pop(), ctx)
                return
            # Split, scattered, or no breadcrumb: refuse safely.
            self.stats.txn_aborts_2pc += 1
            self._vote(prepare, commit=False, reads={}, ctx=ctx)
            return
        if prepare.local:
            ok = self.participant.execute_local(prepare.txn_id, prepare.ops)
            if not ok:
                self.stats.txn_aborts_2pc += 1
            self._vote(prepare, commit=ok, reads={}, applied=True, ctx=ctx)
            return
        reads = self.participant.prepare(prepare.txn_id, prepare.keyed_ops)
        if reads is None:
            self.stats.txn_aborts_2pc += 1
            self._vote(prepare, commit=False, reads={}, ctx=ctx)
        else:
            self._vote(prepare, commit=True, reads=reads, ctx=ctx)

    def _vote(
        self,
        prepare: TxnPrepare,
        commit: bool,
        reads: Mapping[Hashable, Any],
        applied: bool = False,
        ctx: TraceContext | None = None,
    ) -> None:
        self.send(
            COORD_ENDPOINT,
            TxnVote(
                txn_id=prepare.txn_id,
                shard=self.shard_id,
                commit=commit,
                keys=tuple(key for _kind, key in prepare.keyed_ops),
                reads=dict(reads),
                applied=applied,
            ),
            ctx=ctx,
        )

    def _on_decision(self, decision: TxnDecision) -> None:
        """Phase two: apply the coordinator's outcome."""
        if decision.commit:
            self.participant.commit(decision.txn_id, decision.writes)
        else:
            self.participant.abort(decision.txn_id)
            self.stats.txn_aborts_2pc += 1

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ShardHost(id={self.shard_id}, owned={len(self.owned)}, "
            f"tick={self.world.clock.tick})"
        )

