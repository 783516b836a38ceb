"""Interest-managed delta streams: the gateway's subscription engine.

Each connected client's subscription is an *interest query* — "entities
within my AOI radius" — evaluated set-at-a-time by the same
:class:`~repro.consistency.interest.InterestManager` the E12 experiment
characterised, with :class:`~repro.net.deadreckon.DeadReckoningSender`
suppression deciding, per client and per entity, whether a position
change is worth a wire update.  The output per client per tick is one
:class:`~repro.gateway.messages.Delta`.

Two source adapters feed the stream: :class:`WorldView` over a single
:class:`~repro.core.world.GameWorld` and :class:`ClusterView` over a
sharded :class:`~repro.cluster.coordinator.ClusterCoordinator`.  Both
capture dirtiness through change hooks, so the gateway never diffs
whole snapshots: a set-at-a-time write arrives as one column event
(``on_column_change``) and lands in per-field ``{eid: value}`` maps that
``collect`` merges once per tick.

**Exactly-once membership.**  Enter/exit events are guarded by a
per-client *known set*: an enter is emitted only for an entity the
client does not already see, an exit only for one it does.  Cluster
handoffs re-install an entity on its destination shard (firing attach
and update hooks) on the same tick the entity may cross an AOI
boundary; the known-set guard is what collapses that coincidence to
exactly one enter or leave on the wire — the invariant
``tests/consistency/test_interest_churn.py`` pins down.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.consistency.interest import InterestManager
from repro.errors import GatewayError
from repro.gateway.messages import Delta
from repro.net.deadreckon import DeadReckoningSender
from repro.net.protocol import encode_value


class Snapshot:
    """One tick's view of the authoritative state, as the stream needs it."""

    __slots__ = ("tick", "positions", "velocities", "dirty")

    def __init__(
        self,
        tick: int,
        positions: dict[int, tuple[float, float]],
        velocities: dict[int, tuple[float, float]],
        dirty: dict[int, dict[str, Any]],
    ):
        self.tick = tick
        self.positions = positions
        self.velocities = velocities
        self.dirty = dirty


def _pairs(table: Any, fields: tuple[str, str]) -> dict[int, tuple[Any, Any]]:
    """``{eid: (a, b)}`` for two fields of a table, read off its column views."""
    fa, fb = fields
    return dict(
        zip(table.entity_ids, zip(table.column_view(fa), table.column_view(fb)))
    )


class _DirtyFields:
    """Dirtiness of the replicated components, kept per field.

    Each field maps entity id -> latest value.  A row event (``set``,
    ``attach``) marks its fields one entity at a time; a ``set_column``
    write arrives whole as a column event.  :meth:`_drain` folds the
    maps into the ``{eid: {field: value}}`` a :class:`Snapshot` carries,
    once per tick.
    """

    def __init__(self, replicated: tuple[str, ...]):
        self.replicated = tuple(replicated)
        self._dirty: dict[str, dict[int, Any]] = {}

    def _mark_row(self, entity_id: int, component: str | None, payload: Any) -> None:
        if component not in self.replicated:
            return
        dirty = self._dirty
        for field, value in (payload or {}).items():
            cells = dirty.get(field)
            if cells is None:
                cells = dirty[field] = {}
            cells[entity_id] = value

    def on_column_change(
        self, component: str, field: str, ids: Any, values: Any
    ) -> None:
        """Column event from ``set_column``: mark the changed cells dirty."""
        if component in self.replicated:
            self._dirty.setdefault(field, {}).update(zip(ids, values))

    def _drain(self, live: Any = None) -> dict[int, dict[str, Any]]:
        """Merged dirtiness since the last drain; entities not in ``live`` drop."""
        merged: dict[int, dict[str, Any]] = {}
        for field, cells in self._dirty.items():
            for eid, value in cells.items():
                fields = merged.get(eid)
                if fields is not None:
                    fields[field] = value
                elif live is None or eid in live:
                    merged[eid] = {field: value}
        self._dirty = {}
        return merged


class WorldView(_DirtyFields):
    """Source adapter over a single :class:`GameWorld`.

    ``replicated`` names the components whose fields go to clients;
    dirtiness is captured via the world's change hooks from the moment
    the view is constructed.
    """

    def __init__(
        self,
        world: Any,
        replicated: tuple[str, ...] = ("Position",),
        velocity_component: str = "Velocity",
        velocity_fields: tuple[str, str] = ("vx", "vy"),
    ):
        super().__init__(replicated)
        self.world = world
        self.velocity_component = velocity_component
        self.velocity_fields = velocity_fields
        self.dt = world.clock.dt
        self._hook = self._on_change
        world.add_change_hook(self._hook)

    def _on_change(
        self, op: str, entity_id: int, component: str | None, payload: Any
    ) -> None:
        if op in ("update", "attach"):
            self._mark_row(entity_id, component, payload)
        elif op == "destroy":
            for cells in self._dirty.values():
                cells.pop(entity_id, None)

    def tick_count(self) -> int:
        """The source's current tick."""
        return self.world.clock.tick

    def collect(self) -> Snapshot:
        """Drain dirtiness and snapshot positions/velocities for one tick."""
        positions = _pairs(self.world.table("Position"), ("x", "y"))
        velocities: dict[int, tuple[float, float]] = {}
        if self.velocity_component in self.world.component_names():
            velocities = _pairs(
                self.world.table(self.velocity_component), self.velocity_fields
            )
        return Snapshot(self.tick_count(), positions, velocities, self._drain())

    def fields_of(self, entity_id: int) -> dict[str, Any]:
        """Full replicated state of one entity (enter payloads)."""
        fields: dict[str, Any] = {}
        for comp in self.replicated:
            if self.world.has(entity_id, comp):
                fields.update(self.world.get(entity_id, comp))
        return fields

    def close(self) -> None:
        """Detach the change hook."""
        self.world.remove_change_hook(self._hook)


class ClusterView(_DirtyFields):
    """Source adapter over a sharded :class:`ClusterCoordinator`.

    The change hook is registered through the coordinator, which puts it
    on every shard's world slice — including a host promoted by failover
    later; positions come from the coordinator's global snapshot, so an
    entity mid-handoff is reported exactly once by whichever side owns
    it at the barrier.
    """

    def __init__(
        self,
        coordinator: Any,
        replicated: tuple[str, ...] = ("Position",),
        velocity_component: str = "Velocity",
        velocity_fields: tuple[str, str] = ("vx", "vy"),
    ):
        super().__init__(replicated)
        self.coordinator = coordinator
        self.velocity_component = velocity_component
        self.velocity_fields = velocity_fields
        self.dt = coordinator.shards[0].world.clock.dt
        self._hook = self._on_change
        coordinator.add_change_hook(self._hook)

    def _on_change(
        self, op: str, entity_id: int, component: str | None, payload: Any
    ) -> None:
        if op in ("update", "attach"):
            self._mark_row(entity_id, component, payload)
        # "destroy" fires on the source shard of every handoff, but the
        # entity lives on; ownership is the directory's business, so a
        # destroy never clears dirtiness here.

    def tick_count(self) -> int:
        """The cluster's global tick."""
        return self.coordinator.tick_count

    def collect(self) -> Snapshot:
        """Drain dirtiness and snapshot the whole cluster's positions."""
        positions = self.coordinator.positions()
        velocities: dict[int, tuple[float, float]] = {}
        for host in self.coordinator.shards:
            world = host.world
            if self.velocity_component not in world.component_names():
                continue
            shard_velocities = _pairs(
                world.table(self.velocity_component), self.velocity_fields
            )
            for eid in shard_velocities.keys() - host.owned:
                del shard_velocities[eid]
            velocities.update(shard_velocities)
        # Handoff re-installs mark entities dirty on the destination
        # shard; restrict to entities that still exist somewhere.
        return Snapshot(
            self.tick_count(), positions, velocities, self._drain(positions)
        )

    def fields_of(self, entity_id: int) -> dict[str, Any]:
        """Full replicated state, read from the owning shard."""
        shard = self.coordinator.shard(self.coordinator.owner_of(entity_id))
        fields: dict[str, Any] = {}
        for comp in self.replicated:
            if shard.world.has(entity_id, comp):
                fields.update(shard.world.get(entity_id, comp))
        return fields

    def close(self) -> None:
        """Detach every shard hook."""
        self.coordinator.remove_change_hook(self._hook)


class ClientStreamState:
    """Per-session stream memory: what the client sees, and its DR models."""

    __slots__ = ("known", "dr", "enters", "exits", "updates_suppressed")

    def __init__(self) -> None:
        self.known: set[int] = set()
        self.dr: dict[int, DeadReckoningSender] = {}
        self.enters = 0
        self.exits = 0
        self.updates_suppressed = 0


class InterestStream:
    """Evaluates every client's interest query for one tick, set-at-a-time.

    Clients requesting the same radius share one
    :class:`InterestManager`, so each radius group costs one bulk grid
    build over the tick's positions plus one pass per observer over its
    exit-radius cell window: O(radius-groups × entities + clients ×
    AOI density) — not O(clients × entities).

    **Encode once, fan out many.**  Every client that is sent an entity's
    update this tick is sent one of two field sets: the full sample
    (non-positional fields plus ``x, y, vx, vy``) or the non-positional
    remainder.  Both are built once per (entity, variant) per tick and
    shared by every delta that carries them, and each is encoded once
    into :attr:`entry_texts` (``{id(fields): (fields, text)}``), which the
    send queues splice.  Both maps are reset by :meth:`begin_tick`, so
    nothing in them outlives the tick; shared field dicts are read-only.
    """

    def __init__(
        self,
        source: Any,
        default_radius: float,
        hysteresis: float = 0.15,
        dr_threshold: float = 0.5,
    ):
        if default_radius <= 0:
            raise GatewayError("default AOI radius must be positive")
        self.source = source
        self.default_radius = default_radius
        self.hysteresis = hysteresis
        self.dr_threshold = dr_threshold
        self._managers: dict[float, InterestManager] = {}
        self._events_by_observer: dict[int, list] = {}
        self.snapshot: Snapshot | None = None
        #: (entity, full sample?) -> this tick's shared update fields.
        self._shared: dict[tuple[int, bool], dict[str, Any]] = {}
        #: id(shared fields) -> (fields, their wire text), this tick only.
        self.entry_texts: dict[int, tuple[dict[str, Any], str]] = {}

    def manager_for(self, radius: float) -> InterestManager:
        """The shared interest manager for one radius group."""
        mgr = self._managers.get(radius)
        if mgr is None:
            mgr = InterestManager(radius, hysteresis=self.hysteresis)
            self._managers[radius] = mgr
        return mgr

    def begin_tick(self, observers_by_radius: dict[float, list[int]]) -> None:
        """Run every radius group's interest query over a fresh snapshot."""
        self.snapshot = self.source.collect()
        self._events_by_observer = {}
        self._shared = {}
        self.entry_texts = {}
        for radius, observers in sorted(observers_by_radius.items()):
            if not observers:
                continue
            events = self.manager_for(radius).update(
                observers, self.snapshot.positions
            )
            for event in events:
                self._events_by_observer.setdefault(event.observer, []).append(
                    event
                )

    def delta_for(
        self, state: ClientStreamState, avatar: int, extra_known: Iterable[int] = ()
    ) -> Delta:
        """Build one client's delta from the current tick's snapshot.

        ``extra_known`` entities (normally just the client's own avatar)
        are streamed as if always in the AOI, without enter/exit events.
        """
        snap = self.snapshot
        if snap is None:
            raise GatewayError("delta_for called before begin_tick")
        enters: list[tuple[int, dict]] = []
        exits: list[int] = []
        known = state.known
        for event in self._events_by_observer.get(avatar, ()):
            subject = event.subject
            if event.kind == "enter":
                if subject in known:
                    continue
                known.add(subject)
                state.enters += 1
                enters.append((subject, self.source.fields_of(subject)))
            else:
                if subject not in known:
                    continue
                known.discard(subject)
                state.dr.pop(subject, None)
                state.exits += 1
                exits.append(subject)
        entered_now = {eid for eid, _f in enters}
        updates: list[tuple[int, dict]] = []
        dirty = snap.dirty
        for eid in sorted(known.union(extra_known) & dirty.keys()):
            if eid in entered_now:
                continue
            fields = dirty[eid]
            if not fields:
                continue
            out = self._filter_update(state, eid, fields, snap, force=eid == avatar)
            if out:
                updates.append((eid, out))
        return Delta(
            tick=snap.tick,
            seq=0,  # stamped by the send queue
            enters=tuple(enters),
            updates=tuple(updates),
            exits=tuple(exits),
        )

    def _filter_update(
        self,
        state: ClientStreamState,
        eid: int,
        fields: dict[str, Any],
        snap: Snapshot,
        force: bool,
    ) -> dict[str, Any]:
        """Apply dead-reckoning suppression to one entity's dirty fields.

        A positional update returns the tick's shared dict for its
        variant (see the class docstring); anything else a private copy.
        """
        positional = "x" in fields or "y" in fields
        if not positional or eid not in snap.positions:
            return dict(fields)
        x, y = snap.positions[eid]
        vx, vy = snap.velocities.get(eid, (0.0, 0.0))
        sender = state.dr.get(eid)
        if sender is None:
            sender = DeadReckoningSender(self.dr_threshold, dt=self.source.dt)
            state.dr[eid] = sender
        full = sender.update(snap.tick, x, y, vx, vy) is not None or force
        out = self._shared.get((eid, full))
        if out is None:
            out = {k: v for k, v in fields.items() if k not in ("x", "y")}
            if full:
                out["x"] = x
                out["y"] = y
                out["vx"] = vx
                out["vy"] = vy
            self._shared[(eid, full)] = out
            if out:
                self.entry_texts[id(out)] = (out, encode_value(out))
        if not out:
            state.updates_suppressed += 1
        return out

    def drop_client(self, state: ClientStreamState, avatar: int, radius: float) -> None:
        """Forget a departing client's AOI (frees the manager's set)."""
        mgr = self._managers.get(radius)
        if mgr is not None:
            mgr.drop_observer(avatar)
        state.known.clear()
        state.dr.clear()
