"""Gateway session-plane messages.

These ride the same codec as the replication protocol
(:func:`repro.net.protocol.encode` / ``decode``), registered in the
type-id block starting at 32.  Everything a client and the gateway say
to each other is one of these frozen dataclasses, so the socket path,
the in-memory test transport, and the simulator all speak bytes that
round-trip exactly.

Session lifecycle::

    client                     gateway
      | -- Hello ------------->  |   (version check, auth stub, resume)
      | <------------ Welcome -- |   (or Reject + close)
      | <-------------- Delta -- |   (one per tick: enters/updates/exits)
      | -- InputCommand ------>  |   (forwarded to the world source)
      | -- Ping -------------->  |
      | <--------------- Pong -- |   (client-visible latency probe)
      | <------------ Goodbye -- |   (server-initiated close, e.g. eviction)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.net.protocol import (
    ENVELOPE_BYTES,
    VALUE_BYTES,
    WIRE_VERSION,
    encode_value,
    register_message,
    wire_header,
)

#: An :class:`~repro.gateway.streams.InterestStream`'s per-tick entry
#: memo: ``{id(fields): (fields, fields_text)}``.
EntryTexts = Mapping[int, tuple[dict, str]]


@dataclass(frozen=True)
class Hello:
    """Client -> gateway: open (or resume) a session.

    ``token`` is the auth-stub credential; ``resume`` carries a prior
    session's resume token to reattach after a disconnect.  A non-zero
    ``aoi_radius`` asks for a specific interest radius (clamped to the
    gateway's configured maximum).
    """

    client: str
    version: int = WIRE_VERSION
    token: str = ""
    resume: str = ""
    aoi_radius: float = 0.0

    def wire_size(self) -> int:
        return ENVELOPE_BYTES + len(self.client) + len(self.token) + 16


@dataclass(frozen=True)
class Welcome:
    """Gateway -> client: the session is live.

    ``resume_token`` lets the client reattach after a drop;
    ``aoi_radius`` is the radius actually granted.
    """

    session: str
    resume_token: str
    tick: int
    aoi_radius: float
    resumed: bool = False

    def wire_size(self) -> int:
        return ENVELOPE_BYTES + len(self.session) + len(self.resume_token) + 16


@dataclass(frozen=True)
class Reject:
    """Gateway -> client: handshake refused (bad version, auth, …)."""

    reason: str

    def wire_size(self) -> int:
        return ENVELOPE_BYTES + len(self.reason)


@dataclass(frozen=True)
class Goodbye:
    """Gateway -> client: server-initiated close with a reason.

    ``reason`` is machine-readable: ``"evicted:slow"`` for backpressure
    eviction, ``"shutdown"`` for orderly teardown.
    """

    reason: str

    def wire_size(self) -> int:
        return ENVELOPE_BYTES + len(self.reason)


@dataclass(frozen=True)
class Ping:
    """Client -> gateway: latency probe; echoed back as :class:`Pong`."""

    nonce: int
    client_time: float = 0.0

    def wire_size(self) -> int:
        return ENVELOPE_BYTES + 16


@dataclass(frozen=True)
class Pong:
    """Gateway -> client: echo of a :class:`Ping` plus the server tick."""

    nonce: int
    client_time: float
    tick: int

    def wire_size(self) -> int:
        return ENVELOPE_BYTES + 24


@dataclass(frozen=True)
class Delta:
    """Gateway -> client: one tick's interest-scoped state changes.

    ``enters`` and ``updates`` are ``((entity, {field: value}), …)``
    tuples; ``exits`` is a tuple of entity ids.  ``seq`` increments per
    delta actually sent on the session, and ``coalesced`` counts how
    many per-tick deltas were merged into this one while the client was
    behind — a client can detect it missed intermediate states without
    any gap in ``seq``.
    """

    tick: int
    seq: int
    enters: tuple = ()
    updates: tuple = ()
    exits: tuple = ()
    coalesced: int = 0

    def wire_size(self) -> int:
        size = ENVELOPE_BYTES + 16 + 8 * len(self.exits)
        for _eid, fields in self.enters:
            size += 8 + len(fields) * (VALUE_BYTES + 4)
        for _eid, fields in self.updates:
            size += 8 + len(fields) * (VALUE_BYTES + 4)
        return size

    def change_count(self) -> int:
        """Total entity-level changes carried (enters + updates + exits)."""
        return len(self.enters) + len(self.updates) + len(self.exits)

    def wire_body(
        self, seq: int | None = None, texts: EntryTexts | None = None
    ) -> str:
        """The codec's JSON body for this delta, written field by field.

        Byte-identical to the generic lowering (the codec calls this for
        every ``Delta``).  ``seq`` replaces the stored sequence number,
        so the send queue stamps a delta without copying it.  With the
        stream's entry memo ``texts``, an update whose fields dict *is* a
        memo entry's splices that entry's text instead of encoding the
        dict again.  Every other entry, and every
        delta written without a memo, is encoded plainly.
        """
        return (
            '{"coalesced":' + _int_text(self.coalesced)
            + ',"enters":' + _tuple_text(self.enters)
            + ',"exits":' + _tuple_text(self.exits)
            + ',"seq":' + _int_text(self.seq if seq is None else seq)
            + ',"tick":' + _int_text(self.tick)
            + ',"updates":' + _updates_text(self.updates, texts)
            + "}"
        )

    def encode_as(self, seq: int, texts: EntryTexts | None = None) -> bytes:
        """Wire bytes of this delta stamped with ``seq`` (see ``wire_body``)."""
        return _DELTA_HEADER + self.wire_body(seq, texts).encode("utf-8")


def _int_text(value: Any) -> str:
    return str(value) if type(value) is int else encode_value(value)


def _tuple_text(value: Any) -> str:
    # Most deltas carry no enters and no exits.
    if type(value) is tuple and not value:
        return '{"__t":[]}'
    return encode_value(value)


def _updates_text(updates: Any, texts: EntryTexts | None) -> str:
    """``Delta.updates`` as the codec writes it, splicing memoised entries."""
    if not texts or type(updates) is not tuple:
        return encode_value(updates)
    parts = []
    for entry in updates:
        hit = None
        if type(entry) is tuple and len(entry) == 2:
            eid, fields = entry
            hit = texts.get(id(fields))
        if hit is not None and hit[0] is fields:
            parts.append('{"__t":[' + _int_text(eid) + "," + hit[1] + "]}")
        else:
            parts.append(encode_value(entry))
    return '{"__t":[' + ",".join(parts) + "]}"


@dataclass(frozen=True)
class EventMsg:
    """Gateway -> client: one durable outbox event.

    Unlike a :class:`Delta` (a snapshot diff the stream recomputes each
    tick), an event is a *fact* drained from the durable tier's outbox:
    it happened exactly once, survives failover, and may legitimately be
    redelivered after a promotion.  ``dedup`` (``entity:event:key``) is
    the identity clients — and the gateway's own per-session seen-set —
    use to collapse redelivery into exactly-once observation.
    """

    tick: int
    seq: int
    entity: int
    event: str
    key: str
    payload: dict[str, Any] = field(default_factory=dict)

    @property
    def dedup(self) -> str:
        """The idempotency identity this event carries."""
        return f"{self.entity}:{self.event}:{self.key}"

    def wire_size(self) -> int:
        return (
            ENVELOPE_BYTES + 24 + len(self.event) + len(self.key)
            + len(self.payload) * (VALUE_BYTES + 4)
        )


@dataclass(frozen=True)
class TelemetrySub:
    """Client -> gateway: subscribe this session to the ops channel.

    ``token`` is the telemetry credential (separate from session auth —
    ops access is a different privilege than playing); a denied token
    closes the session with ``Goodbye("telemetry:denied")``.
    ``interval`` is how many gateway ticks between :class:`TelemetryMsg`
    pushes (clamped to >= 1).
    """

    token: str = ""
    interval: int = 10

    def wire_size(self) -> int:
        return ENVELOPE_BYTES + len(self.token) + 8


@dataclass(frozen=True)
class TelemetryMsg:
    """Gateway -> client: one ops-channel sample.

    ``payload`` carries ``Observability.collect_stats()`` plus the SLO
    plane's state, sanitised to JSON-safe values.  Streamed every
    ``interval`` ticks to each subscribed session — the live feed
    ``examples/ops_console.py`` renders.
    """

    tick: int
    seq: int
    payload: dict[str, Any] = field(default_factory=dict)

    def wire_size(self) -> int:
        return ENVELOPE_BYTES + 16 + len(self.payload) * (VALUE_BYTES + 4)


register_message(32, Hello)
register_message(33, Welcome)
register_message(34, Reject)
register_message(35, Goodbye)
register_message(36, Ping)
register_message(37, Pong)
register_message(38, Delta)
register_message(39, EventMsg)
register_message(40, TelemetrySub)
register_message(41, TelemetryMsg)

_DELTA_HEADER = wire_header(Delta)
