"""Session lifecycle: hello, auth stub, resume, eviction bookkeeping.

A *session* outlives its connection: the gateway hands every accepted
client a resume token, and a client that reconnects with it reattaches
to its session — keeping its avatar binding and interest subscription —
instead of re-entering the world cold.  This is the standard MMO edge
trick for surviving flaky links without re-running login or replaying a
full state snapshot.

Authentication is deliberately a stub (a pluggable predicate over the
``Hello`` token): the interesting engineering is everything *after*
auth, and a real credential check slots in without touching the rest.
"""

from __future__ import annotations

import secrets
from operator import attrgetter
from typing import Any, Callable

from repro.errors import GatewayError
from repro.gateway.backpressure import BackpressureConfig, SendQueue
from repro.gateway.messages import Hello, Reject, Welcome
from repro.gateway.streams import ClientStreamState
from repro.net.protocol import WIRE_VERSION

#: States a session moves through, in order.
HANDSHAKE, ACTIVE, DETACHED, CLOSED = "handshake", "active", "detached", "closed"

_sid_of = attrgetter("sid")


def default_auth(client: str, token: str) -> bool:
    """The auth stub: any token except the literal ``"invalid"`` passes."""
    return token != "invalid"


class Session:
    """One client's server-side state, across reconnects."""

    __slots__ = (
        "sid", "client", "resume_token", "avatar", "aoi_radius", "state",
        "transport", "queue", "stream", "connected_tick", "detached_tick",
        "resumes", "close_reason", "seen_events", "last_ctx",
        "telemetry_interval",
    )

    def __init__(
        self,
        sid: str,
        client: str,
        resume_token: str,
        avatar: int,
        aoi_radius: float,
        transport: Any,
        backpressure: BackpressureConfig,
        tick: int,
    ):
        self.sid = sid
        self.client = client
        self.resume_token = resume_token
        self.avatar = avatar
        self.aoi_radius = aoi_radius
        self.state = ACTIVE
        self.transport = transport
        self.queue = SendQueue(transport, backpressure)
        self.stream = ClientStreamState()
        self.connected_tick = tick
        self.detached_tick: int | None = None
        self.resumes = 0
        self.close_reason: str | None = None
        # Dedup keys of durable-tier events already delivered on this
        # session (insertion-ordered so the cap evicts oldest-first).
        # Survives resume — a reattached client must not re-see events
        # the outbox redelivers after a failover.
        self.seen_events: dict[str, None] = {}
        # Causal context of the most recent input this session sent —
        # the host's on_input hook reads it to thread the request's
        # trace into cluster/durable work it kicks off.
        self.last_ctx: Any = None
        # Ops-channel subscription (0 = not subscribed).  Survives
        # resume, like the rest of the session.
        self.telemetry_interval = 0

    def attach(self, transport: Any, backpressure: BackpressureConfig) -> None:
        """Reattach a resumed session to a fresh connection.

        The send queue restarts empty (the old connection's unsent
        frames died with it) but the stream state — known set, DR
        models, sequence counter — carries over, so the client receives
        a continuation, not a second copy of the world.
        """
        next_seq = self.queue.next_seq
        self.transport = transport
        self.queue = SendQueue(transport, backpressure)
        self.queue.next_seq = next_seq
        self.state = ACTIVE
        self.detached_tick = None
        self.resumes += 1
        self.close_reason = None


def random_resume_token(sid: str, client: str) -> str:
    """The default resume-token factory: 96 bits from the CSPRNG.

    The resume path in :meth:`SessionManager.hello` bypasses auth — the
    token *is* the credential — so it must be unguessable.  Anything
    derived deterministically from public inputs (serial sids, client
    names, a config seed) would let an attacker compute another
    client's token offline and steal its session.  Tests that need
    reproducible tokens inject their own ``token_factory`` instead.
    """
    return secrets.token_hex(12)


class SessionManager:
    """Owns every session and runs the handshake state machine."""

    def __init__(
        self,
        backpressure: BackpressureConfig | None = None,
        auth: Callable[[str, str], bool] | None = None,
        default_radius: float = 16.0,
        max_radius: float = 128.0,
        seed: int = 0,
        on_close: Callable[[Session, str], None] | None = None,
        token_factory: Callable[[str, str], str] | None = None,
        detach_ttl_ticks: int | None = None,
    ):
        self.backpressure = backpressure or BackpressureConfig()
        self.auth = auth or default_auth
        self.on_close = on_close
        self.default_radius = default_radius
        self.max_radius = max_radius
        # ``seed`` steers non-secret determinism knobs only; resume
        # tokens come from ``token_factory`` (CSPRNG by default).
        self._seed = seed
        self.token_factory = token_factory or random_resume_token
        self.detach_ttl_ticks = detach_ttl_ticks
        self._serial = 0
        self.sessions: dict[str, Session] = {}
        self._by_resume: dict[str, Session] = {}
        self._by_client: dict[str, Session] = {}
        self.accepted = 0
        self.resumed = 0
        self.rejected = 0

    # -- handshake -----------------------------------------------------------------

    def hello(
        self,
        msg: Hello,
        transport: Any,
        avatar_of: Callable[[str], int | None],
        tick: int,
    ) -> tuple[Session | None, Welcome | Reject]:
        """Run the handshake for one ``Hello``; returns (session, reply).

        ``avatar_of`` maps a client name to its avatar entity (the
        gateway's binding hook); returning ``None`` rejects the hello.
        A valid ``resume`` token reattaches the existing session.
        """
        if msg.version != WIRE_VERSION:
            self.rejected += 1
            return None, Reject(f"version {msg.version} unsupported")
        if msg.resume:
            session = self._by_resume.get(msg.resume)
            if session is None or session.state == CLOSED:
                self.rejected += 1
                return None, Reject("unknown or expired resume token")
            session.attach(transport, self.backpressure)
            self.resumed += 1
            return session, Welcome(
                session.sid, session.resume_token, tick,
                session.aoi_radius, resumed=True,
            )
        if not self.auth(msg.client, msg.token):
            self.rejected += 1
            return None, Reject("authentication failed")
        if msg.client in self._by_client:
            existing = self._by_client[msg.client]
            if existing.state == ACTIVE:
                self.rejected += 1
                return None, Reject(f"client {msg.client!r} already connected")
            # A fresh hello supersedes a detached session the client
            # chose not to resume; keeping it would leak under churn.
            self.close(existing, "superseded")
        avatar = avatar_of(msg.client)
        if avatar is None:
            self.rejected += 1
            return None, Reject(f"no avatar for client {msg.client!r}")
        radius = msg.aoi_radius or self.default_radius
        radius = min(max(radius, 1e-6), self.max_radius)
        self._serial += 1
        sid = f"s{self._serial:08d}"
        resume_token = self.token_factory(sid, msg.client)
        session = Session(
            sid, msg.client, resume_token, avatar, radius, transport,
            self.backpressure, tick,
        )
        self.sessions[sid] = session
        self._by_resume[resume_token] = session
        self._by_client[msg.client] = session
        self.accepted += 1
        return session, Welcome(sid, resume_token, tick, radius)

    # -- lifecycle -----------------------------------------------------------------

    def detach(self, session: Session, tick: int = 0) -> None:
        """Connection dropped without a goodbye: keep the session resumable.

        ``tick`` stamps when the session went quiet, so a configured
        ``detach_ttl_ticks`` can expire it via :meth:`reap_detached`.
        """
        if session.state == ACTIVE:
            session.state = DETACHED
            session.detached_tick = tick

    def reap_detached(self, tick: int) -> list[Session]:
        """Close sessions detached longer than ``detach_ttl_ticks``.

        Without a TTL a client that disconnects and never resumes would
        pin its session — stream state, interest subscription, queue —
        forever; under churn with unique client names that is unbounded
        growth.  Returns the sessions closed (reason ``"expired"``).
        """
        if self.detach_ttl_ticks is None:
            return []
        expired = [
            s for s in list(self.sessions.values())
            if s.state == DETACHED
            and s.detached_tick is not None
            and tick - s.detached_tick >= self.detach_ttl_ticks
        ]
        for session in expired:
            self.close(session, "expired")
        return expired

    def close(self, session: Session, reason: str) -> None:
        """Terminally close a session (client bye, eviction, shutdown).

        The ``on_close`` callback fires exactly once per session, after
        it has left every index — the gateway core uses it to release
        the session's interest subscription and connection.
        """
        if session.state == CLOSED:
            return
        session.state = CLOSED
        session.close_reason = reason
        self._by_resume.pop(session.resume_token, None)
        if self._by_client.get(session.client) is session:
            del self._by_client[session.client]
        del self.sessions[session.sid]
        if self.on_close is not None:
            self.on_close(session, reason)

    def get(self, sid: str) -> Session:
        """Look up a live session by id."""
        try:
            return self.sessions[sid]
        except KeyError:
            raise GatewayError(f"unknown session {sid!r}") from None

    def active(self, avatar: int | None = None) -> list[Session]:
        """Sessions currently attached to a connection, in sid order.

        With ``avatar``, only the sessions playing that entity: they are
        picked before the sort, so a targeted event sorts a handful of
        sessions, not all of them.
        """
        chosen = [
            s for s in self.sessions.values()
            if s.state == ACTIVE and (avatar is None or s.avatar == avatar)
        ]
        chosen.sort(key=_sid_of)
        return chosen

    def __len__(self) -> int:
        return len(self.sessions)
