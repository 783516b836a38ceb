"""The sans-IO gateway core: sessions, deltas, backpressure, metrics.

:class:`GatewayCore` contains every piece of gateway behaviour —
handshake dispatch, per-tick interest evaluation, queue flushing,
eviction — with **no sockets and no event loop**.  Bytes come in
through :meth:`GatewayCore.on_bytes`, frames go out through whatever
transport each connection was registered with, and time advances only
when the host calls :meth:`GatewayCore.tick`.  That makes the whole
edge deterministic under test (memory transports + a fake clock) while
:class:`~repro.gateway.server.GatewayServer` runs the identical logic
over real ``asyncio`` sockets.

The per-tick pipeline, instrumented as ``gateway.tick > gateway.flush``
tracer spans::

    collect snapshot ── interest per radius group ── delta per session
        ── offer to send queue (coalesce if behind) ── flush ── evict
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import GatewayError, NetError
from repro.gateway.backpressure import BackpressureConfig
from repro.gateway.framing import FrameDecoder, frame
from repro.gateway.messages import (
    Delta,
    EventMsg,
    Goodbye,
    Hello,
    Ping,
    Pong,
    TelemetryMsg,
    TelemetrySub,
)
from repro.gateway.session import ACTIVE, Session, SessionManager
from repro.gateway.streams import InterestStream
from repro.net.protocol import InputCommand
from repro.obs.causal import RequestTracker
from repro.obs.hub import Observability, resolve_obs
from repro.obs.slo import SLOPlane

#: Dedup keys each session remembers before the oldest fall off; a
#: bound on memory, not on correctness — outbox redelivery bursts are
#: recent by construction (a failover replays, then the set re-fills).
EVENT_DEDUP_CAP = 4096

#: The telemetry auth stub's accepted token.  Ops access is a separate
#: privilege from playing, so it gets its own (pluggable) check.
DEFAULT_TELEMETRY_TOKEN = "ops"


def _sanitize(value: Any) -> Any:
    """Coerce a stats tree to JSON-safe values for the wire codec.

    Telemetry payloads aggregate arbitrary subsystem stats; anything
    the codec cannot serialise becomes its ``repr`` instead of taking
    the ops channel down.
    """
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


@dataclass(frozen=True)
class GatewayConfig:
    """Gateway-wide tuning: interest, suppression, and backpressure."""

    default_radius: float = 16.0
    max_radius: float = 128.0
    hysteresis: float = 0.15
    dr_threshold: float = 0.5
    stream_self: bool = True
    backpressure: BackpressureConfig = field(default_factory=BackpressureConfig)
    seed: int = 0
    #: Ticks a detached (disconnected, unresumed) session survives
    #: before it is reaped; ``None`` keeps sessions resumable forever.
    detach_ttl_ticks: int | None = 600

    def __post_init__(self) -> None:
        if self.default_radius <= 0 or self.max_radius < self.default_radius:
            raise GatewayError(
                "radii must satisfy 0 < default_radius <= max_radius"
            )
        if self.detach_ttl_ticks is not None and self.detach_ttl_ticks < 1:
            raise GatewayError("detach_ttl_ticks must be >= 1 or None")


class _Connection:
    """One accepted transport and the session bound to it (if any).

    The frame decoder lives on the *connection*, not the session: a
    resumed session gets a new connection and therefore a fresh decoder,
    and a partial frame can never straddle the handshake.
    """

    __slots__ = ("cid", "transport", "session", "decoder")

    def __init__(self, cid: int, transport: Any):
        self.cid = cid
        self.transport = transport
        self.session: Session | None = None
        self.decoder = FrameDecoder()


class GatewayCore:
    """The gateway's entire behaviour, free of I/O.

    Parameters
    ----------
    source:
        A :class:`~repro.gateway.streams.WorldView` or ``ClusterView``
        (anything with ``collect``/``fields_of``/``tick_count``/``dt``).
    avatar_of:
        Maps a client name to its avatar entity id; defaults to the
        bindings registered via :meth:`bind_avatar`.
    on_input:
        Called with ``(session, InputCommand)`` for each client input;
        a returned message (e.g. an ack) is queued back to the client.
    clock:
        Wall-clock source for tick timing (injectable for determinism).
    """

    def __init__(
        self,
        source: Any,
        config: GatewayConfig | None = None,
        obs: Observability | None = None,
        avatar_of: Callable[[str], int | None] | None = None,
        on_input: Callable[[Session, InputCommand], Any] | None = None,
        clock: Callable[[], float] | None = None,
        slo: SLOPlane | None = None,
        track_requests: bool | None = None,
        telemetry_auth: Callable[[str], bool] | None = None,
    ):
        self.source = source
        self.config = config or GatewayConfig()
        self.obs = resolve_obs(obs).lane("gw")
        self.clock = clock or time.perf_counter
        self.on_input = on_input
        self._avatars: dict[str, int] = {}
        self.avatar_of = avatar_of or self._avatars.get
        self.sessions = SessionManager(
            backpressure=self.config.backpressure,
            default_radius=self.config.default_radius,
            max_radius=self.config.max_radius,
            seed=self.config.seed,
            on_close=self._on_session_closed,
            detach_ttl_ticks=self.config.detach_ttl_ticks,
        )
        self.stream = InterestStream(
            source,
            self.config.default_radius,
            hysteresis=self.config.hysteresis,
            dr_threshold=self.config.dr_threshold,
        )
        self._conns: dict[int, _Connection] = {}
        self._cid_by_sid: dict[str, int] = {}
        self._next_cid = 0
        self.ticks = 0
        self.bytes_sent = 0
        # Totals folded in from closed sessions, so stats() survives churn.
        self._closed_totals = {
            "deltas_sent": 0,
            "deltas_coalesced": 0,
            "updates_suppressed": 0,
        }
        self.inputs = 0
        self.pings = 0
        self.events_published = 0
        self.events_deduped = 0
        self.events_dropped = 0
        self._event_seq = 0
        self.disconnects = 0
        self.protocol_errors = 0
        self.expired = 0
        self.evictions: dict[str, int] = {}
        self._stats_name = self.obs.register_stats("gateway", self.stats)
        # Causal request tracking: on when tracing is live or an SLO
        # plane is attached (both need per-request accounting); forced
        # either way with ``track_requests``.
        self.slo = slo
        if track_requests is None:
            track_requests = slo is not None or self.obs.tracer.enabled
        self.requests: RequestTracker | None = (
            RequestTracker(self.obs.tracer, slo=slo) if track_requests else None
        )
        self.telemetry_auth = telemetry_auth or (
            lambda token: token == DEFAULT_TELEMETRY_TOKEN
        )
        self._telemetry_seq = 0
        self._extra_stats: list[str] = []
        if self.requests is not None:
            self._extra_stats.append(
                self.obs.register_stats("gateway.requests", self.requests.stats)
            )
        if slo is not None:
            self._extra_stats.append(
                self.obs.register_stats("gateway.slo", slo.state)
            )

    # -- connection plane ------------------------------------------------------------

    def connect(self, transport: Any) -> int:
        """Register a new connection; returns its connection id."""
        self._next_cid += 1
        conn = _Connection(self._next_cid, transport)
        self._conns[conn.cid] = conn
        return conn.cid

    def on_bytes(self, cid: int, data: bytes) -> None:
        """Feed raw received bytes from a connection into the gateway.

        Corrupt framing (a protocol violation, not a partial read) closes
        the connection; a session it carried stays resumable.
        """
        conn = self._conns.get(cid)
        if conn is None:
            return
        try:
            messages = conn.decoder.feed(data)
        except (GatewayError, NetError):
            self.protocol_errors += 1
            self.disconnect(cid)
            return
        for msg in messages:
            self.on_message(cid, msg)
            if cid not in self._conns:
                break  # the message closed the connection

    def on_message(self, cid: int, msg: Any) -> None:
        """Dispatch one decoded client message."""
        conn = self._conns.get(cid)
        if conn is None:
            return
        if isinstance(msg, Hello):
            self._on_hello(conn, msg)
        elif conn.session is None or conn.session.state != ACTIVE:
            # Anything before a successful hello is a protocol violation.
            self.protocol_errors += 1
            self.disconnect(cid)
        elif isinstance(msg, Ping):
            self.pings += 1
            conn.session.queue.offer(
                Pong(msg.nonce, msg.client_time, self.source.tick_count())
            )
            conn.session.queue.flush()
        elif isinstance(msg, InputCommand):
            self.inputs += 1
            session = conn.session
            if self.requests is not None:
                # The request enters the causal plane here: one trace id
                # per input, parked on the session so the host's
                # on_input hook can thread it into cluster/durable work.
                session.last_ctx = self.requests.ingress(
                    session.sid, self.source.tick_count()
                )
            if self.on_input is not None:
                reply = self.on_input(session, msg)
                if reply is not None:
                    session.queue.offer(reply)
        elif isinstance(msg, TelemetrySub):
            self._on_telemetry_sub(conn.session, msg)
        elif isinstance(msg, Goodbye):
            self._close_session(conn.session, "client bye")
        else:
            self.protocol_errors += 1
            self.disconnect(cid)

    def _on_hello(self, conn: _Connection, msg: Hello) -> None:
        if conn.session is not None:
            self.protocol_errors += 1
            self.disconnect(conn.cid)
            return
        session, reply = self.sessions.hello(
            msg, conn.transport, self.avatar_of, self.source.tick_count()
        )
        if session is None:
            # Rejects bypass the queue: there is no session to queue on.
            conn.transport.send(frame(reply))
            self.disconnect(conn.cid)
            return
        old_cid = self._cid_by_sid.get(session.sid)
        if old_cid is not None and old_cid in self._conns:
            self._conns[old_cid].session = None
            self.disconnect(old_cid)
        conn.session = session
        self._cid_by_sid[session.sid] = conn.cid
        session.queue.offer(reply)
        session.queue.flush()

    def bind_avatar(self, client: str, entity_id: int) -> None:
        """Register the avatar entity a client name maps to."""
        self._avatars[client] = entity_id

    # -- telemetry plane (ops channel) -------------------------------------------------

    def _on_telemetry_sub(self, session: Session, msg: TelemetrySub) -> None:
        """Handle an ops-channel subscription on an active session."""
        if not self.telemetry_auth(msg.token):
            session.queue.offer(Goodbye("telemetry:denied"))
            session.queue.flush()
            self._close_session(session, "telemetry:denied")
            return
        session.telemetry_interval = max(1, int(msg.interval))
        # First sample immediately, so the subscriber never waits a
        # full interval to learn the channel is live.
        self._push_telemetry(session)
        session.queue.flush()

    def _telemetry_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"stats": self.obs.collect_stats()}
        if self.slo is not None:
            payload["slo"] = self.slo.state()
        return _sanitize(payload)

    def _push_telemetry(self, session: Session,
                        payload: dict[str, Any] | None = None) -> None:
        self._telemetry_seq += 1
        session.queue.offer(TelemetryMsg(
            tick=self.source.tick_count(),
            seq=self._telemetry_seq,
            payload=payload if payload is not None else self._telemetry_payload(),
        ))

    # -- event plane (durable outbox feed) --------------------------------------------

    def publish_event(
        self,
        entity: int,
        event: str,
        key: str = "",
        payload: dict[str, Any] | None = None,
        broadcast: bool = False,
    ) -> int:
        """Deliver one durable-tier event; returns sessions it reached.

        This is the outbox dispatcher's sink: delivery is at-least-once
        upstream (drain retries, failover replays the whole outbox), so
        each session keeps a seen-set of dedup keys and silently drops
        repeats — at-least-once in, exactly-once observed per session.
        Targeted events go to the sessions whose avatar *is* ``entity``;
        ``broadcast`` fans out to every active session.  Events for
        entities nobody is watching count as dropped (an event is a
        fact, not a subscription — nothing queues for later).
        """
        dedup = f"{entity}:{event}:{key}"
        now = self.source.tick_count()
        active = self.sessions.active()
        targets = (
            active if broadcast
            else [s for s in active if s.avatar == entity]
        )
        if not targets:
            self.events_dropped += 1
            return 0
        delivered = 0
        for session in targets:
            if dedup in session.seen_events:
                self.events_deduped += 1
                continue
            offered = session.queue.offer(
                EventMsg(
                    tick=now,
                    seq=self._event_seq + 1,
                    entity=entity,
                    event=event,
                    key=key,
                    payload=dict(payload or {}),
                )
            )
            if not offered:
                # Unframeable: the queue marked the session for eviction.
                # The key stays unseen, so this is not a delivery and a
                # redelivery is not mistaken for a duplicate.
                continue
            self._event_seq += 1
            session.seen_events[dedup] = None
            if len(session.seen_events) > EVENT_DEDUP_CAP:
                session.seen_events.pop(next(iter(session.seen_events)))
            delivered += 1
            self.events_published += 1
            if self.requests is not None:
                # The event observably answers the request whose unit of
                # work emitted it: stamp the outbox segment and complete
                # it (note_event pops the bind, so an outbox redelivery
                # of the same dedup key cannot complete it twice).
                self.requests.mark_dedup(dedup, "outbox", now)
                self.requests.note_event(dedup, now)
        return delivered

    def disconnect(self, cid: int) -> None:
        """A connection went away (EOF, error, or server-side close).

        The session, if any, is detached — it stays resumable until it
        is closed explicitly (client bye, eviction, shutdown).
        """
        conn = self._conns.pop(cid, None)
        if conn is None:
            return
        self.disconnects += 1
        conn.transport.close()
        if conn.session is not None:
            self._cid_by_sid.pop(conn.session.sid, None)
            self.sessions.detach(conn.session, self.source.tick_count())

    def _on_session_closed(self, session: Session, reason: str) -> None:
        """SessionManager close hook: release stream state + connection.

        Runs for *every* terminal close, including a detached session
        superseded by a fresh hello inside the manager's handshake.
        """
        self._closed_totals["deltas_sent"] += session.queue.deltas_sent
        self._closed_totals["deltas_coalesced"] += session.queue.deltas_coalesced
        self._closed_totals["updates_suppressed"] += session.stream.updates_suppressed
        if self.requests is not None:
            self.requests.drop_session(session.sid, self.source.tick_count())
        self.stream.drop_client(session.stream, session.avatar, session.aoi_radius)
        cid = self._cid_by_sid.pop(session.sid, None)
        if cid is not None:
            conn = self._conns.pop(cid, None)
            if conn is not None:
                self.disconnects += 1
                conn.transport.close()

    def _close_session(self, session: Session, reason: str) -> None:
        self.sessions.close(session, reason)

    def evict(self, session: Session, reason: str) -> None:
        """Forcibly close a slow session: goodbye, flush, drop."""
        self.evictions[reason] = self.evictions.get(reason, 0) + 1
        session.queue.offer(Goodbye(reason))
        session.queue.flush()
        self._close_session(session, reason)

    def shutdown(self) -> None:
        """Orderly teardown: goodbye every session, close every connection."""
        for session in self.sessions.active():
            session.queue.offer(Goodbye("shutdown"))
            session.queue.flush()
        for session in list(self.sessions.sessions.values()):
            self._close_session(session, "shutdown")
        for cid in list(self._conns):
            self.disconnect(cid)
        self.obs.unregister_stats(self._stats_name)
        for name in self._extra_stats:
            self.obs.unregister_stats(name)
        self.source.close()

    # -- tick plane ------------------------------------------------------------------

    def tick(self) -> dict[str, Any]:
        """Run one gateway tick: interest, deltas, flush, eviction.

        Call after the world/cluster has ticked.  Returns a small
        per-tick summary (also folded into metrics).
        """
        t0 = self.clock()
        tracer = self.obs.tracer
        evicted: list[tuple[Session, str]] = []
        flushed = 0
        now = self.source.tick_count()
        with tracer.span("gateway.tick", cat="gateway") as span:
            if self.requests is not None:
                self.requests.on_tick(now)
            expired = self.sessions.reap_detached(now)
            self.expired += len(expired)
            active = self.sessions.active()
            by_radius: dict[float, list[int]] = {}
            for s in active:
                by_radius.setdefault(s.aoi_radius, []).append(s.avatar)
            self.stream.begin_tick(by_radius)
            # One misbehaving session must never take the shared tick
            # loop down: any per-session GatewayError becomes that
            # session's eviction (note_tick reports evicted_reason).
            texts = self.stream.entry_texts
            for s in active:
                extra = (s.avatar,) if self.config.stream_self else ()
                try:
                    s.queue.offer_delta(
                        self.stream.delta_for(
                            s.stream, s.avatar, extra_known=extra
                        ),
                        texts,
                    )
                except GatewayError:
                    s.queue.evicted_reason = "evicted:error"
            with tracer.span("gateway.flush", cat="gateway"):
                for s in active:
                    try:
                        flushed += s.queue.flush()
                    except GatewayError:
                        s.queue.evicted_reason = "evicted:error"
                    if self.requests is not None:
                        delta_tick = s.queue.take_flushed_delta_tick()
                        if delta_tick is not None:
                            self.requests.deliver(s.sid, delta_tick, now)
                    reason = s.queue.note_tick()
                    if reason is not None:
                        evicted.append((s, reason))
            for s, reason in evicted:
                self.evict(s, reason)
            self._stream_telemetry(active)
            span.set(clients=len(active), bytes=flushed, evicted=len(evicted))
        self.ticks += 1
        self.bytes_sent += flushed
        elapsed_ms = (self.clock() - t0) * 1e3
        self._record_metrics(active, flushed, elapsed_ms)
        return {
            "clients": len(active),
            "bytes": flushed,
            "evicted": len(evicted),
            "ms": elapsed_ms,
        }

    def _stream_telemetry(self, active: list[Session]) -> None:
        """Push a telemetry sample to every subscriber whose interval is due.

        The payload is built once per tick (stats collection is not
        free) and only when at least one subscriber is actually due.
        """
        due = [
            s for s in active
            if s.state == ACTIVE and s.telemetry_interval > 0
            and self.ticks % s.telemetry_interval == 0
        ]
        if not due:
            return
        payload = self._telemetry_payload()
        for s in due:
            self._push_telemetry(s, payload)
            s.queue.flush()

    def _record_metrics(
        self, active: list[Session], flushed: int, elapsed_ms: float
    ) -> None:
        metrics = self.obs.metrics
        if metrics is None:
            return
        metrics.gauge("gateway.clients").set(len(active))
        metrics.gauge("gateway.sessions").set(len(self.sessions))
        metrics.counter("gateway.bytes_sent").inc(flushed)
        metrics.histogram("gateway.tick_ms").observe(elapsed_ms)
        depth = metrics.histogram("gateway.queue_depth_bytes")
        for s in active:
            if s.state == ACTIVE:
                depth.observe(s.queue.backlog_bytes())
        for reason, count in self.evictions.items():
            metrics.gauge("gateway.evictions", reason=reason).set(count)

    # -- stats -----------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Aggregate gateway counters (the hub's ``collect_stats`` row)."""
        sessions = list(self.sessions.sessions.values())
        return {
            "connections": len(self._conns),
            "sessions": len(sessions),
            "active": sum(1 for s in sessions if s.state == ACTIVE),
            "accepted": self.sessions.accepted,
            "resumed": self.sessions.resumed,
            "rejected": self.sessions.rejected,
            "ticks": self.ticks,
            "bytes_sent": self.bytes_sent,
            "deltas_sent": self._closed_totals["deltas_sent"]
            + sum(s.queue.deltas_sent for s in sessions),
            "deltas_coalesced": self._closed_totals["deltas_coalesced"]
            + sum(s.queue.deltas_coalesced for s in sessions),
            "updates_suppressed": self._closed_totals["updates_suppressed"]
            + sum(s.stream.updates_suppressed for s in sessions),
            "inputs": self.inputs,
            "pings": self.pings,
            "events_published": self.events_published,
            "events_deduped": self.events_deduped,
            "events_dropped": self.events_dropped,
            "disconnects": self.disconnects,
            "protocol_errors": self.protocol_errors,
            "expired": self.expired,
            "evictions": sum(self.evictions.values()),
        }
