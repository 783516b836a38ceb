"""The cluster coordinator: tick barrier, directory, 2PC, rebalancing.

:class:`ClusterCoordinator` turns N :class:`~repro.cluster.shard.ShardHost`
slices into one logical `GameWorld`:

* **Tick barrier** — :meth:`tick` advances the network one tick, lets
  the coordinator react to delivered votes/acks, then steps every shard
  (inbox processing + one world frame) in shard-id order.  All ordering
  is fixed and all randomness is seeded, so same-seed runs replay to an
  identical :meth:`state_hash`.
* **Directory** — the authoritative entity→shard ownership map.  It may
  briefly lag reality while a handoff is in flight; the shards'
  forwarding tables cover the gap.
* **Cross-shard transactions** — presumed-nothing two-phase commit over
  the simulated network, layered on the shards'
  :class:`~repro.consistency.transactions.TwoPhaseParticipant` hooks.
  Wholly-local transactions take a one-round fast path; cross-shard
  ones pay the extra round trip and hold locks across it — the
  tutorial's "expensive case", now executed rather than estimated.
* **Placement & rebalancing** — every ``repartition_interval`` ticks the
  placement policy proposes a desired assignment (optionally adjusted by
  the :class:`~repro.cluster.placement.DynamicRebalancer`), and the
  coordinator issues handoffs for the diff.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Hashable, Iterable, Mapping

from repro.cluster.migration import InFlightHandoff
from repro.cluster.placement import DynamicRebalancer, PlacementPolicy
from repro.cluster.shard import COORD_ENDPOINT, ShardHost, shard_endpoint
from repro.cluster.stats import ClusterStats
from repro.consistency.transactions import TxnSpec, compute_writes
from repro.core.component import ComponentSchema
from repro.core.entity import EntityAllocator
from repro.errors import ClusterError
from repro.net.protocol import (
    HandoffAck,
    HandoffCommand,
    HandoffComplete,
    SchemaAlter,
    SchemaAlterAck,
    TxnDecision,
    TxnPrepare,
    TxnVote,
)
from repro.net.simnet import LinkConfig, Message, SimNetwork
from repro.obs import (
    MetricsRegistry,
    Observability,
    TraceContext,
    accept_context,
    emit_context,
    resolve_obs,
)


class _TxnRecord:
    """Coordinator-side state of one distributed transaction.

    ``shard_keys`` (participant shard -> its key slice, from dispatch)
    and ``writes_by_shard`` (filled at decision time) exist so a
    failover coordinator can re-derive exactly what each participant
    was told — the raw material for re-applying or aborting a
    transaction interrupted by a primary crash.
    """

    __slots__ = (
        "txn_id", "spec", "all_keys", "covered", "votes", "local",
        "participants", "finished", "committed", "shard_keys",
        "writes_by_shard", "ctx",
    )

    def __init__(
        self, txn_id: int, spec: TxnSpec, all_keys: set, participants: int,
        local: bool, ctx: TraceContext | None = None,
    ):
        self.txn_id = txn_id
        self.spec = spec
        self.all_keys = all_keys
        self.covered: set = set()
        self.votes: list[TxnVote] = []
        self.local = local
        self.participants = participants
        self.finished = False
        self.committed = False
        self.shard_keys: dict[int, tuple] = {}
        self.writes_by_shard: dict[int, dict] = {}
        self.ctx = ctx


class ClusterCoordinator:
    """Runs one `GameWorld` split across deterministic shard hosts."""

    def __init__(
        self,
        shards: int,
        placement: PlacementPolicy,
        schemas: Iterable[ComponentSchema],
        *,
        dt: float = 1.0 / 30.0,
        seed: int = 0,
        link: LinkConfig | None = None,
        rebalancer: DynamicRebalancer | None = None,
        repartition_interval: int = 20,
        obs: Observability | None = None,
    ):
        if shards < 1:
            raise ClusterError("cluster needs at least one shard")
        if repartition_interval < 1:
            raise ClusterError("repartition_interval must be positive")
        self.placement = placement
        self.rebalancer = rebalancer
        self.repartition_interval = repartition_interval
        self.dt = dt
        # Explicit obs wins, then the session default, then disabled; a
        # cluster without a shared registry gets a private one so that
        # sequentially-built clusters never merge counters.  The
        # coordinator traces in its own "coord" lane; each shard host
        # forks a further lane from it.
        self.obs = resolve_obs(obs).lane("coord")
        self.metrics = (
            self.obs.metrics if self.obs.metrics is not None else MetricsRegistry()
        )
        self.net = SimNetwork(seed, registry=self.metrics)
        self.net.add_endpoint(COORD_ENDPOINT)
        schemas = list(schemas)
        self._schemas = schemas
        #: Per-shard registrations, re-applied to any host built later.
        self._registrations: list[Callable[[ShardHost], None]] = []
        self._change_hooks: list[Callable[..., None]] = []
        self.shards: list[ShardHost] = [
            self._make_shard(i, schemas) for i in range(shards)
        ]
        link = link or LinkConfig(latency_ticks=1)
        self._link = link
        for host in self.shards:
            self.net.connect(COORD_ENDPOINT, host.endpoint, link)
        for a in self.shards:
            for b in self.shards:
                if a.shard_id < b.shard_id:
                    self.net.connect(a.endpoint, b.endpoint, link)
        self.directory: dict[int, int] = {}
        self._allocator = EntityAllocator()
        self._in_flight: dict[int, InFlightHandoff] = {}
        self._handoff_ctx: dict[int, TraceContext] = {}
        self._txns: dict[int, _TxnRecord] = {}
        self._txn_counter = 0
        self._pending_specs: list[tuple[int, TxnSpec, TraceContext | None]] = []
        self._recent_pairs: set[tuple[int, int]] = set()
        self._prev_positions: dict[int, tuple[float, float]] = {}
        self._prev_tick = 0
        self.tick_count = 0
        # Coordinator tallies live in the registry; the properties below
        # keep the historical attribute API (`coordinator.local_committed`).
        self._c_local_committed = self.metrics.counter("cluster.txn.local_committed")
        self._c_local_aborted = self.metrics.counter("cluster.txn.local_aborted")
        self._c_cross_committed = self.metrics.counter("cluster.txn.cross_committed")
        self._c_cross_aborted = self.metrics.counter("cluster.txn.cross_aborted")
        self._c_migrations = self.metrics.counter("cluster.migrations_done")
        self._c_rebalance_moves = self.metrics.counter("cluster.rebalance_moves")
        # Lease-guarded tick ownership (attach_tick_leases): when a
        # durable lease table governs `tick:<shard>` keys, the
        # coordinator only ticks shards whose lease it holds.
        self._tick_leases: Any = None
        self._tick_lease_ttl = 0
        self._tick_lease_owner = ""
        self.tick_deferrals: dict[int, int] = {}
        # Schema rollout plane: the committed cluster-wide catalog
        # version per component, plus in-flight rollouts awaiting acks.
        self._schema_versions: dict[str, int] = {s.name: 1 for s in schemas}
        self._schema_rollouts: dict[str, dict[str, Any]] = {}
        self._c_schema_rollouts = self.metrics.counter("cluster.schema.rollouts")
        self.obs.register_stats("cluster.migration", self.migration_stats)

    # -- coordinator tallies (registry-backed) ------------------------------------

    @property
    def local_committed(self) -> int:
        """Single-shard transactions that committed."""
        return self._c_local_committed.value

    @local_committed.setter
    def local_committed(self, value: int) -> None:
        self._c_local_committed.value = value

    @property
    def local_aborted(self) -> int:
        """Single-shard transactions that aborted."""
        return self._c_local_aborted.value

    @local_aborted.setter
    def local_aborted(self, value: int) -> None:
        self._c_local_aborted.value = value

    @property
    def cross_committed(self) -> int:
        """Cross-shard transactions that committed."""
        return self._c_cross_committed.value

    @cross_committed.setter
    def cross_committed(self, value: int) -> None:
        self._c_cross_committed.value = value

    @property
    def cross_aborted(self) -> int:
        """Cross-shard transactions that aborted."""
        return self._c_cross_aborted.value

    @cross_aborted.setter
    def cross_aborted(self, value: int) -> None:
        self._c_cross_aborted.value = value

    @property
    def migrations_done(self) -> int:
        """Handoffs fully acknowledged by the directory."""
        return self._c_migrations.value

    @migrations_done.setter
    def migrations_done(self, value: int) -> None:
        self._c_migrations.value = value

    @property
    def rebalance_moves(self) -> int:
        """Entities the rebalancer relocated beyond the base placement."""
        return self._c_rebalance_moves.value

    @rebalance_moves.setter
    def rebalance_moves(self, value: int) -> None:
        self._c_rebalance_moves.value = value

    # -- topology / setup ---------------------------------------------------------

    def _make_shard(self, shard_id: int, schemas: list[ComponentSchema]) -> ShardHost:
        """Shard factory; the replicated coordinator overrides this."""
        return ShardHost(shard_id, self.net, schemas, self.dt, obs=self.obs)

    def shard(self, shard_id: int) -> ShardHost:
        """The shard host with the given id."""
        return self.shards[shard_id]

    @property
    def shard_count(self) -> int:
        """Number of shards in the cluster."""
        return len(self.shards)

    def _register(self, install: Callable[[ShardHost], None]) -> None:
        """Apply a per-shard registration to every host, and keep it for
        any host built later (a replica promoted by failover)."""
        self._registrations.append(install)
        for host in self.shards:
            install(host)

    def _install_registrations(self, host: ShardHost) -> None:
        """Apply every kept registration (systems, change hooks) to ``host``."""
        for install in self._registrations:
            install(host)
        for hook in self._change_hooks:
            host.world.add_change_hook(hook)

    def add_change_hook(self, hook: Callable[..., None]) -> None:
        """:meth:`GameWorld.add_change_hook` on every shard, promoted ones too."""
        for host in self.shards:
            host.world.add_change_hook(hook)
        self._change_hooks.append(hook)

    def remove_change_hook(self, hook: Callable[..., None]) -> None:
        """Unregister a hook added with :meth:`add_change_hook`."""
        self._change_hooks.remove(hook)
        for host in self.shards:
            host.world.remove_change_hook(hook)

    def add_per_entity_system(
        self,
        name: str,
        components: Iterable[str],
        fn: Callable[[Any, int, float], None],
        priority: int = 100,
        interval: int = 1,
    ) -> None:
        """Register the same tuple-at-a-time system on every shard world."""
        components = tuple(components)
        self._register(lambda host: host.world.add_per_entity_system(
            name, components, fn, priority, interval
        ))

    def add_system(self, system: Any, priority: int | None = None) -> None:
        """Register a system on every shard world.

        Accepts a ``@system``-decorated function (shared across shards —
        it must be stateless) or a zero-argument factory returning a
        fresh :class:`~repro.core.systems.System` per shard.
        """
        from repro.core.systems import System

        if isinstance(system, System):
            raise ClusterError(
                "pass a decorated function or a factory, not a System "
                "instance — each shard world needs its own"
            )
        decorated = hasattr(system, "__system_name__")
        self._register(lambda host: host.world.add_system(
            system if decorated else system(), priority=priority
        ))

    def add_batch_system(
        self,
        name: str,
        reads: Iterable[str],
        fn: Callable[..., Any],
        priority: int = 100,
        interval: int = 1,
        writes: Iterable[str] | None = None,
        elementwise: bool = False,
    ) -> None:
        """Register the same set-at-a-time system on every shard world.

        ``fn(world, entity_ids, columns, dt)`` runs once per shard frame
        over that shard's whole entity set — the columnar formulation of
        what :meth:`add_per_entity_system` does tuple-at-a-time.
        ``elementwise`` is accepted and ignored: it was a hint to the
        retired chunking executor and callers still pass it.
        """
        reads = tuple(reads)
        writes = tuple(writes) if writes is not None else None
        self._register(lambda host: host.world.add_batch_system(
            name, reads, fn, priority=priority, interval=interval,
            writes=writes,
        ))

    def add_script_system(self, name: str, source: str, **kwargs: Any) -> None:
        """Compile and register the same GSL script on every shard world."""
        from repro.scripting.script_system import add_script_system

        self._register(
            lambda host: add_script_system(host.world, name, source, **kwargs)
        )

    # -- entity plane -------------------------------------------------------------

    def spawn(self, components: Mapping[str, Mapping[str, Any]]) -> int:
        """Spawn an entity, placed by the policy (control plane, no wire)."""
        entity = self._allocator.allocate()
        pos = components.get("Position", {})
        x, y = float(pos.get("x", 0.0)), float(pos.get("y", 0.0))
        shard_id = self.placement.initial_shard(entity, x, y)
        if not 0 <= shard_id < len(self.shards):
            raise ClusterError(f"placement returned bad shard {shard_id}")
        self.shards[shard_id].install_entity(entity, components)
        self.directory[entity] = shard_id
        return entity

    def owner_of(self, entity: int) -> int:
        """Directory lookup: which shard owns the entity."""
        try:
            return self.directory[entity]
        except KeyError:
            raise ClusterError(f"entity {entity} is not in the directory") from None

    @property
    def entity_count(self) -> int:
        """Entities tracked by the directory."""
        return len(self.directory)

    def positions(self) -> dict[int, tuple[float, float]]:
        """Global Position snapshot gathered from every shard."""
        out: dict[int, tuple[float, float]] = {}
        for host in self.shards:
            if "Position" not in host.world.component_names():
                continue
            table = host.world.table("Position")
            out.update(
                zip(table.entity_ids,
                    zip(table.column_view("x"), table.column_view("y")))
            )
        return out

    def migrate(
        self, entity: int, dst_shard: int,
        ctx: TraceContext | None = None,
    ) -> bool:
        """Begin a handoff; returns False when one is already in flight.

        ``ctx`` is the causal context of whatever requested the move; it
        rides the whole command → request → ack → complete chain.
        """
        if not 0 <= dst_shard < len(self.shards):
            raise ClusterError(f"bad destination shard {dst_shard}")
        if entity in self._in_flight:
            return False
        src = self.owner_of(entity)
        if src == dst_shard:
            return False
        self._in_flight[entity] = InFlightHandoff(
            entity, src, dst_shard, self.net.now
        )
        if ctx is not None:
            self._handoff_ctx[entity] = ctx
        self._send(
            shard_endpoint(src),
            HandoffCommand(entity=entity, dst_shard=dst_shard, tick=self.net.now),
            ctx=ctx,
        )
        return True

    # -- transaction plane --------------------------------------------------------

    def submit(self, spec: TxnSpec, ctx: TraceContext | None = None) -> int:
        """Queue a transaction; it is dispatched on the next tick.

        ``ctx`` (optional) is the causal context of the request that
        produced the transaction — it rides the prepare and decision
        messages so the 2PC rounds join the request's trace.
        """
        self._txn_counter += 1
        txn_id = self._txn_counter
        self._pending_specs.append((txn_id, spec, ctx))
        return txn_id

    def txn_outcome(self, txn_id: int) -> bool | None:
        """True/False once committed/aborted, None while undecided."""
        record = self._txns.get(txn_id)
        if record is None or not record.finished:
            return None
        return record.committed

    def _dispatch_pending(self) -> None:
        for txn_id, spec, ctx in self._pending_specs:
            self._dispatch(txn_id, spec, ctx)
        self._pending_specs.clear()

    def _dispatch(
        self, txn_id: int, spec: TxnSpec, ctx: TraceContext | None = None
    ) -> None:
        by_shard: dict[int, list[tuple[str, Hashable]]] = {}
        for op in spec.ops:
            entity = op.key[0]
            shard_id = self.owner_of(entity)
            by_shard.setdefault(shard_id, []).append((op.kind, op.key))
        all_keys = {op.key for op in spec.ops}
        local = len(by_shard) == 1
        record = _TxnRecord(txn_id, spec, all_keys, len(by_shard), local, ctx)
        self._txns[txn_id] = record
        # Stamp the prepare with the coordinator's expected catalog
        # version for every component it touches: a participant that has
        # already applied (or not yet applied) a rolling alter votes
        # abort rather than prepare writes against a different shape.
        touched = sorted({
            op.key[1] for op in spec.ops
            if len(op.key) >= 2 and isinstance(op.key[1], str)
        })
        stamp = tuple(
            (c, self._effective_schema_version(c))
            for c in touched
            if c in self._schema_versions
        )
        for shard_id in sorted(by_shard):
            keyed_ops = tuple(by_shard[shard_id])
            record.shard_keys[shard_id] = keyed_ops
            prepare = TxnPrepare(
                txn_id=txn_id,
                keyed_ops=keyed_ops,
                tick=self.net.now,
                local=local,
                ops=tuple(spec.ops) if local else (),
                schema_versions=stamp,
            )
            self._send(shard_endpoint(shard_id), prepare, ctx=ctx)

    def _on_vote(self, vote: TxnVote) -> None:
        record = self._txns.get(vote.txn_id)
        if record is None or record.finished:
            # A commit-vote arriving after the record finished aborted
            # (failover can abort a txn whose votes are still on the
            # wire) would leave that participant's locks held forever;
            # answer it with an abort decision so they release.
            if (
                record is not None
                and not record.committed
                and vote.commit
                and not vote.applied
            ):
                self._send(
                    shard_endpoint(vote.shard),
                    TxnDecision(
                        txn_id=vote.txn_id,
                        commit=False,
                        writes={},
                        tick=self.net.now,
                    ),
                    ctx=record.ctx,
                )
            return
        record.votes.append(vote)
        record.covered |= set(vote.keys)
        if vote.applied:
            # Single-shard fast path: already executed (or refused) there.
            self._finish(record, committed=vote.commit)
            return
        if record.covered >= record.all_keys:
            self._decide(record)

    def _decide(self, record: _TxnRecord) -> None:
        commit = all(v.commit for v in record.votes)
        writes: dict[Hashable, Any] = {}
        if commit:
            merged: dict[Hashable, Any] = {}
            for v in record.votes:
                merged.update(v.reads)
            writes = compute_writes(record.spec.ops, merged)
        # One decision per shard: forwarding can make a shard vote twice
        # (two key-slices of the same txn), and a duplicate commit would
        # find no prepared state the second time.
        keys_by_shard: dict[int, set] = {}
        for v in record.votes:
            if not v.commit:
                continue  # refusing shards released their locks already
            keys_by_shard.setdefault(v.shard, set()).update(v.keys)
        for shard_id in sorted(keys_by_shard):
            slice_writes = {
                k: writes[k] for k in keys_by_shard[shard_id] if k in writes
            }
            if commit:
                record.writes_by_shard[shard_id] = slice_writes
            self._send(
                shard_endpoint(shard_id),
                TxnDecision(
                    txn_id=record.txn_id,
                    commit=commit,
                    writes=slice_writes if commit else {},
                    tick=self.net.now,
                ),
                ctx=record.ctx,
            )
        self._finish(record, committed=commit)

    def _finish(self, record: _TxnRecord, committed: bool) -> None:
        record.finished = True
        record.committed = committed
        if record.local:
            if committed:
                self.local_committed += 1
            else:
                self.local_aborted += 1
        elif committed:
            self.cross_committed += 1
        else:
            self.cross_aborted += 1

    # -- schema rollout plane -----------------------------------------------------

    def alter(
        self,
        component: str,
        steps: Iterable[Any],
        *,
        batch_rows: int | None = None,
    ) -> int:
        """Roll a schema alter across every shard; returns the target version.

        The coordinator serialises the steps (callable
        ``TransformColumn`` steps are rejected — a rollout must be
        replayable from records), broadcasts a
        :class:`~repro.net.protocol.SchemaAlter` to all shards, and
        tracks acks.  Each shard begins its own incremental backfill on
        receipt; the cluster-wide version is considered committed once
        every shard has acked, which :meth:`quiesce` waits for.
        """
        from repro.schema.catalog import DEFAULT_BATCH_ROWS
        from repro.schema.steps import steps_to_records

        if component not in self._schema_versions:
            raise ClusterError(f"unknown component {component!r}")
        if component in self._schema_rollouts:
            raise ClusterError(f"{component}: a schema rollout is already in flight")
        steps = tuple(steps)
        if not steps:
            raise ClusterError("alter needs at least one step")
        records = steps_to_records(steps)  # raises SchemaError on Transform
        batch = DEFAULT_BATCH_ROWS if batch_rows is None else int(batch_rows)
        to_version = self._schema_versions[component] + 1
        self._schema_rollouts[component] = {
            "to": to_version,
            "pending": {host.shard_id for host in self.shards},
            "records": records,
            "batch": batch,
        }
        msg = SchemaAlter(
            component=component,
            steps=records,
            to_version=to_version,
            batch_rows=batch,
            tick=self.net.now,
        )
        for host in self.shards:
            self._send(host.endpoint, msg)
        return to_version

    def schema_version_of(self, component: str) -> int:
        """The committed (fully-acked) cluster-wide catalog version."""
        try:
            return self._schema_versions[component]
        except KeyError:
            raise ClusterError(f"unknown component {component!r}") from None

    def _effective_schema_version(self, component: str) -> int:
        """Committed version, or the rollout target while one is in flight."""
        rollout = self._schema_rollouts.get(component)
        if rollout is not None:
            return rollout["to"]
        return self._schema_versions.get(component, 1)

    @property
    def schema_rollouts_in_flight(self) -> int:
        """Alters broadcast but not yet acked by every shard."""
        return len(self._schema_rollouts)

    def _on_schema_ack(self, ack: SchemaAlterAck) -> None:
        rollout = self._schema_rollouts.get(ack.component)
        if rollout is None or ack.to_version != rollout["to"]:
            return  # stale ack from a finished or superseded rollout
        rollout["pending"].discard(ack.shard)
        if not rollout["pending"]:
            del self._schema_rollouts[ack.component]
            self._schema_versions[ack.component] = rollout["to"]
            self._c_schema_rollouts.inc()

    def _reconcile_schema(self, shard_id: int, host: ShardHost) -> None:
        """Re-drive in-flight rollouts at a freshly promoted shard.

        The promoted replica's catalog was caught up from the failed
        primary's journal, so it usually already holds the target
        version — treat that as the ack the dead primary never sent.
        Otherwise re-send the stored :class:`SchemaAlter`; the handler
        is idempotent.
        """
        for component, rollout in list(self._schema_rollouts.items()):
            if shard_id not in rollout["pending"]:
                continue
            if host.world.catalog.version_of(component) >= rollout["to"]:
                self._on_schema_ack(SchemaAlterAck(
                    shard=shard_id,
                    component=component,
                    to_version=rollout["to"],
                    tick=self.net.now,
                ))
            else:
                self._send(host.endpoint, SchemaAlter(
                    component=component,
                    steps=rollout["records"],
                    to_version=rollout["to"],
                    batch_rows=rollout["batch"],
                    tick=self.net.now,
                ))

    # -- interaction feed ---------------------------------------------------------

    def report_interactions(self, pairs: Iterable[tuple[int, int]]) -> None:
        """Feed observed interaction pairs (drives rebalancer metrics)."""
        self._recent_pairs.update(pairs)

    # -- the global tick ----------------------------------------------------------

    def tick(self) -> int:
        """One global barrier tick; returns the new tick number."""
        tracer = self.obs.tracer
        if not tracer.enabled:
            return self._tick_impl()
        tracer.begin_tick(self.tick_count + 1)
        with tracer.span("cluster.tick", cat="cluster", tick=self.tick_count + 1):
            return self._tick_impl()

    def _tick_impl(self) -> int:
        self.net.advance(1)
        for msg in self.net.receive(COORD_ENDPOINT):
            self._on_coord_message(msg)
        self._dispatch_pending()
        self._step_shards()
        self.tick_count += 1
        self._maybe_repartition()
        return self.tick_count

    def _on_coord_message(self, msg: Message) -> None:
        """Handle one message delivered to the coordinator endpoint."""
        payload = msg.payload
        if msg.ctx is not None:
            accept_context(
                self.obs.tracer, msg.ctx,
                name=f"net.{type(payload).__name__}",
            )
        if isinstance(payload, TxnVote):
            self._on_vote(payload)
        elif isinstance(payload, HandoffAck):
            self._on_handoff_ack(payload)
        elif isinstance(payload, SchemaAlterAck):
            self._on_schema_ack(payload)
        else:
            raise ClusterError(f"coordinator: unexpected message {msg!r}")

    def _step_shards(self) -> None:
        """Step every shard host (inbox + one world frame) in id order.

        The replicated coordinator overrides this to weave in fault
        injection, log shipping, replica apply, and failure detection.
        """
        for host in self.shards:
            host.process_inbox(self.net.receive(host.endpoint))
            if self._may_tick(host.shard_id):
                host.tick()

    # -- lease-guarded tick ownership ---------------------------------------------

    def attach_tick_leases(
        self, leases: Any, ttl: int = 8, owner: str = "coordinator"
    ) -> None:
        """Guard each shard's tick behind a durable ``tick:<shard>`` lease.

        ``leases`` is a :class:`~repro.durable.leases.LeaseTable` (duck
        typed; the cluster layer never imports the durable package).
        Before ticking shard *s* the coordinator acquires ``tick:s`` for
        ``owner``: a live lease held by a *worker* defers the shard's
        tick (the worker owns that turn — deferrals are counted in
        :attr:`tick_deferrals`), while an expired one is reclaimed under
        a fresh fencing token — so a crashed worker's in-flight tick is
        detected and taken over within ``ttl`` ticks, and the token
        fences the worker out if it was merely paused: no double-applied
        tick.
        """
        if ttl < 1:
            raise ClusterError("tick-lease ttl must be positive")
        self._tick_leases = leases
        self._tick_lease_ttl = ttl
        self._tick_lease_owner = owner
        self.tick_deferrals = {host.shard_id: 0 for host in self.shards}

    def _may_tick(self, shard_id: int) -> bool:
        """Whether this coordinator owns shard's tick for this round."""
        if self._tick_leases is None:
            return True
        from repro.errors import LeaseHeldError

        try:
            self._tick_leases.acquire(
                f"tick:{shard_id}",
                self._tick_lease_owner,
                self._tick_lease_ttl,
                self.tick_count + 1,
            )
        except LeaseHeldError:
            self.tick_deferrals[shard_id] += 1
            return False
        return True

    def _maybe_repartition(self) -> None:
        """Repartition when the interval elapses (hook for subclasses)."""
        if self.tick_count % self.repartition_interval == 0:
            self._repartition()

    def run(self, ticks: int) -> None:
        """Advance the whole cluster ``ticks`` global ticks."""
        for _ in range(ticks):
            self.tick()

    def _on_handoff_ack(self, ack: HandoffAck) -> None:
        self.directory[ack.entity] = ack.dst_shard
        self._in_flight.pop(ack.entity, None)
        self.migrations_done += 1
        # The directory now names the new owner: tell the source it may
        # drop its retained copy of the evicted entity.
        self._send(
            shard_endpoint(ack.src_shard),
            HandoffComplete(entity=ack.entity, tick=self.net.now),
            ctx=self._handoff_ctx.pop(ack.entity, None),
        )

    # -- repartitioning -----------------------------------------------------------

    def _estimate_velocities(
        self, positions: Mapping[int, tuple[float, float]]
    ) -> dict[int, tuple[float, float]]:
        elapsed = (self.tick_count - self._prev_tick) * self.dt
        if not self._prev_positions or elapsed <= 0:
            return {}
        out = {}
        for eid, (x, y) in positions.items():
            prev = self._prev_positions.get(eid)
            if prev is not None:
                out[eid] = ((x - prev[0]) / elapsed, (y - prev[1]) / elapsed)
        return out

    def _repartition(self) -> None:
        positions = self.positions()
        velocities = self._estimate_velocities(positions)
        desired = self.placement.desired_assignment(
            positions, velocities, dict(self.directory)
        )
        if self.rebalancer is not None:
            desired, moves = self.rebalancer.rebalance(
                desired, range(len(self.shards)), self._recent_pairs
            )
            self.rebalance_moves += moves
        for entity in sorted(desired):
            target = desired[entity]
            if entity in self._in_flight:
                continue
            if self.directory.get(entity) != target:
                self.migrate(entity, target)
        self._prev_positions = positions
        self._prev_tick = self.tick_count
        self._recent_pairs.clear()

    # -- observability ------------------------------------------------------------

    def _send(
        self, dst: str, payload: Any, ctx: TraceContext | None = None
    ) -> None:
        tracer = self.obs.tracer
        if tracer.enabled or ctx is not None:
            ctx = emit_context(
                tracer, carry=ctx, name=f"net.{type(payload).__name__}"
            )
        self.net.send(COORD_ENDPOINT, dst, payload, payload.wire_size(), ctx)

    def migration_stats(self) -> "StatsRow":
        """Handoff/rebalance counters as a :class:`StatsRow` snapshot."""
        from repro.obs.metrics import StatsRow

        return StatsRow(
            ("migrations_done", "in_flight", "rebalance_moves",
             "deferred", "retained"),
            migrations_done=self.migrations_done,
            in_flight=len(self._in_flight),
            rebalance_moves=self.rebalance_moves,
            deferred=sum(host.deferred_handoffs for host in self.shards),
            retained=sum(host.retained_evictions for host in self.shards),
        )

    def stats(self) -> ClusterStats:
        """Assemble the cluster-wide observability record."""
        return ClusterStats(
            ticks=self.tick_count,
            shards=[host.stats for host in self.shards],
            local_committed=self.local_committed,
            local_aborted=self.local_aborted,
            cross_committed=self.cross_committed,
            cross_aborted=self.cross_aborted,
            migrations=self.migrations_done,
            rebalance_moves=self.rebalance_moves,
        )

    def state_hash(self) -> str:
        """Deterministic digest of every shard's world plus the directory.

        Two same-seed runs of the same workload must produce identical
        digests — the cluster's replay guarantee.
        """
        digest = hashlib.sha256()
        for host in self.shards:
            digest.update(f"shard:{host.shard_id}\n".encode())
            digest.update(host.world.state_hash().encode())
        for entity in sorted(self.directory):
            digest.update(f"\nd:{entity}->{self.directory[entity]}".encode())
        return digest.hexdigest()

    def check_invariants(self) -> None:
        """Assert cluster ownership invariants (used heavily by tests).

        Every entity is owned by at most one shard; entities not in
        flight are owned by exactly the shard the directory names.
        """
        seen: dict[int, int] = {}
        for host in self.shards:
            for entity in host.owned:
                if entity in seen:
                    raise ClusterError(
                        f"entity {entity} owned by shards {seen[entity]} "
                        f"and {host.shard_id}"
                    )
                seen[entity] = host.shard_id
        for entity, shard_id in self.directory.items():
            if entity in self._in_flight:
                continue
            owner = seen.get(entity)
            if owner is None:
                raise ClusterError(
                    f"entity {entity} (directory: shard {shard_id}) "
                    f"is owned by no shard and not in flight"
                )
        extras = set(seen) - set(self.directory)
        if extras:
            raise ClusterError(f"shards own undirectoried entities: {extras}")

    @property
    def in_flight_handoffs(self) -> int:
        """Handoffs currently between eviction and directory update."""
        return len(self._in_flight)

    def _quiet(self) -> bool:
        """Whether the control plane has fully settled.

        The replicated coordinator overrides this: steady-state log
        shipping keeps the network permanently busy, so it cannot wait
        for an empty wire.
        """
        return (
            not self._in_flight
            and not self._pending_specs
            and not self.net.in_flight_count()
            and all(r.finished for r in self._txns.values())
            and not any(host.deferred_handoffs for host in self.shards)
            and not self._schema_rollouts
        )

    def quiesce(self, max_ticks: int = 64) -> None:
        """Tick until no handoffs or undecided transactions remain."""
        for _ in range(max_ticks):
            if self._quiet():
                return
            self.tick()
        raise ClusterError("cluster failed to quiesce")

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ClusterCoordinator(shards={len(self.shards)}, "
            f"entities={len(self.directory)}, tick={self.tick_count})"
        )
