"""Wire protocol: client, cluster and replication messages.

Plain dataclasses with explicit size accounting — the simulator bills
bandwidth from ``wire_size()``, so the E7/E12 bandwidth numbers reflect
message content rather than python object overhead.

Messages also carry a real encoding: :func:`encode` renders any
registered message as versioned bytes and :func:`decode` round-trips
them exactly (``decode(encode(m)) == m``).  The gateway's socket path
and :class:`~repro.net.simnet.SimNetwork` share this one codec, so a
message costs the same whether it crosses a real TCP connection or the
in-process simulator — the property the E19 bytes/client comparison
rests on.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import NetError
from repro.obs.causal import TraceContext

#: Fixed per-message envelope cost (headers, framing) in bytes.
ENVELOPE_BYTES = 16
#: Approximate encoded size of one field value.
VALUE_BYTES = 8
#: Codec version written as the first byte of every encoded message.
WIRE_VERSION = 1
#: Reserved type id marking a trace-context wrapper around a message.
CTX_TYPE_ID = 255


@dataclass(frozen=True)
class StateUpdate:
    """Server -> client: replicated field values for one entity."""

    entity: int
    fields: dict[str, Any]
    tick: int
    tier: str = "strong"  # consistency tier that scheduled this update

    def wire_size(self) -> int:
        """Simulated encoded size in bytes."""
        return ENVELOPE_BYTES + 8 + len(self.fields) * (VALUE_BYTES + 4)


@dataclass(frozen=True)
class EntityEnter:
    """Server -> client: an entity entered the client's area of interest."""

    entity: int
    fields: dict[str, Any]
    tick: int

    def wire_size(self) -> int:
        return ENVELOPE_BYTES + 8 + len(self.fields) * (VALUE_BYTES + 4)


@dataclass(frozen=True)
class EntityExit:
    """Server -> client: an entity left the client's area of interest."""

    entity: int
    tick: int

    def wire_size(self) -> int:
        return ENVELOPE_BYTES + 8


@dataclass(frozen=True)
class InputCommand:
    """Client -> server: one player input.

    ``seq`` pairs the command with the :class:`InputAck` that carries
    its authoritative result back.
    """

    client: str
    seq: int
    action: str
    args: dict[str, Any] = field(default_factory=dict)
    tick: int = 0

    def wire_size(self) -> int:
        return ENVELOPE_BYTES + 8 + len(self.args) * (VALUE_BYTES + 4)


@dataclass(frozen=True)
class InputAck:
    """Server -> client: authoritative result of an input command."""

    seq: int
    accepted: bool
    authoritative: dict[str, Any]
    tick: int

    def wire_size(self) -> int:
        return ENVELOPE_BYTES + 8 + len(self.authoritative) * (VALUE_BYTES + 4)


# ---------------------------------------------------------------------------
# Cluster control plane: entity handoff and two-phase commit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HandoffCommand:
    """Coordinator -> source shard: evict and hand off an entity."""

    entity: int
    dst_shard: int
    tick: int

    def wire_size(self) -> int:
        return ENVELOPE_BYTES + 16


@dataclass(frozen=True)
class HandoffRequest:
    """Source shard -> destination shard: the serialized entity.

    ``components`` maps component name to its full row, produced by
    ``GameWorld.snapshot_entity`` — the entity's entire database record
    crossing the wire.
    """

    entity: int
    components: dict[str, dict[str, Any]]
    src_shard: int
    dst_shard: int
    tick: int
    #: ((component, catalog_version), ...) — the schema versions the rows
    #: were serialized at.  During a rolling schema alter the receiver
    #: upgrades payloads from older versions (or defers installs from
    #: newer ones).  Empty = pre-schema-plane peers: install as-is.
    schema_versions: tuple = ()

    def wire_size(self) -> int:
        fields = sum(len(row) for row in self.components.values())
        return (
            ENVELOPE_BYTES + 16 + fields * (VALUE_BYTES + 4)
            + len(self.schema_versions) * (VALUE_BYTES + 4)
        )


@dataclass(frozen=True)
class HandoffAck:
    """Destination shard -> coordinator: entity installed, update the directory."""

    entity: int
    src_shard: int
    dst_shard: int
    tick: int

    def wire_size(self) -> int:
        return ENVELOPE_BYTES + 24


@dataclass(frozen=True)
class HandoffComplete:
    """Coordinator -> source shard: the handoff is durable, drop the copy.

    Until this arrives the source retains the evicted entity's payload,
    so a handoff whose destination dies mid-flight can be re-sent to the
    promoted replacement (see ``HandoffResend``).
    """

    entity: int
    tick: int

    def wire_size(self) -> int:
        return ENVELOPE_BYTES + 16


@dataclass(frozen=True)
class HandoffResend:
    """Coordinator -> source shard: re-ship a retained eviction payload.

    Issued during failover when an in-flight handoff's destination
    crashed before installing the entity; the source re-sends its
    retained ``HandoffRequest`` to the (now promoted) destination.
    """

    entity: int
    dst_shard: int
    tick: int

    def wire_size(self) -> int:
        return ENVELOPE_BYTES + 16


@dataclass(frozen=True)
class TxnPrepare:
    """Coordinator -> participant shard: phase-one vote request.

    ``keyed_ops`` is the shard's slice of the transaction as ``(kind,
    key)`` pairs.  When ``local`` is true the shard owns *every* key and
    ``ops`` carries the full op objects so the shard can execute the
    transaction in one round trip (the single-shard fast path; op
    callables never cross a real wire, but this simulator's payloads are
    in-process).
    """

    txn_id: int
    keyed_ops: tuple
    tick: int
    local: bool = False
    ops: tuple = ()
    #: ((component, catalog_version), ...) stamped by the coordinator for
    #: every component the transaction touches; a participant whose
    #: effective version disagrees votes abort (mixed-version window of a
    #: rolling alter).  Empty = unchecked, the pre-schema-plane contract.
    schema_versions: tuple = ()

    def wire_size(self) -> int:
        return (
            ENVELOPE_BYTES + 8 + len(self.keyed_ops) * (VALUE_BYTES + 4)
            + len(self.schema_versions) * (VALUE_BYTES + 4)
        )


@dataclass(frozen=True)
class TxnVote:
    """Participant -> coordinator: phase-one vote.

    ``reads`` carries the values under lock for the keys this vote
    covers; ``applied`` marks the single-shard fast path where the
    participant already executed and no decision round is needed.
    """

    txn_id: int
    shard: int
    commit: bool
    keys: tuple
    reads: dict[Any, Any]
    applied: bool = False

    def wire_size(self) -> int:
        return ENVELOPE_BYTES + 8 + len(self.reads) * (VALUE_BYTES + 4)


@dataclass(frozen=True)
class TxnDecision:
    """Coordinator -> participant: phase-two outcome.

    On commit, ``writes`` holds the coordinator-computed values for the
    keys this participant prepared; on abort it is empty and the
    participant's tables stay untouched.
    """

    txn_id: int
    commit: bool
    writes: dict[Any, Any]
    tick: int

    def wire_size(self) -> int:
        return ENVELOPE_BYTES + 8 + len(self.writes) * (VALUE_BYTES + 4)


@dataclass(frozen=True)
class SchemaAlter:
    """Coordinator -> every shard: begin an online schema alter.

    ``steps`` is the serialized step-record tuple (see
    :func:`repro.schema.steps.steps_to_records`); each shard applies it
    through its world's catalog and backfills ``batch_rows`` rows per
    tick, acking with :class:`SchemaAlterAck` once committed.
    """

    component: str
    steps: tuple
    to_version: int
    batch_rows: int
    tick: int

    def wire_size(self) -> int:
        return ENVELOPE_BYTES + 16 + len(self.steps) * 4 * (VALUE_BYTES + 4)


@dataclass(frozen=True)
class SchemaAlterAck:
    """Shard -> coordinator: the alter committed at this shard.

    When every shard has acked, the rollout is complete and the
    coordinator's cluster-wide catalog version advances.
    """

    shard: int
    component: str
    to_version: int
    tick: int

    def wire_size(self) -> int:
        return ENVELOPE_BYTES + 24


# ---------------------------------------------------------------------------
# Primary/replica shard replication: WAL shipping, acks, heartbeats
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WalShip:
    """Primary shard -> replica: a batch of journal records.

    ``records`` is a tuple of ``(lsn, payload)`` pairs with contiguous,
    ascending LSNs — the primary's durable journal tail past what it
    believes the replica has.  The wire size bills the encoded payloads,
    so the E15 bytes-shipped numbers reflect what log shipping actually
    costs at each replication factor.
    """

    shard: int
    records: tuple
    tick: int

    def wire_size(self) -> int:
        size = ENVELOPE_BYTES + 8
        for _lsn, payload in self.records:
            size += 8 + len(repr(payload))
        return size


@dataclass(frozen=True)
class WalAck:
    """Replica -> primary shard: journal applied through ``applied_lsn``.

    The primary uses acks both as the semi-sync durability watermark and
    as the gap detector: a replica whose ack stagnates below the shipped
    watermark gets the missing tail re-shipped.
    """

    shard: int
    replica: int
    applied_lsn: int
    tick: int

    def wire_size(self) -> int:
        return ENVELOPE_BYTES + 24


@dataclass(frozen=True)
class Heartbeat:
    """Primary shard -> coordinator: still alive at this tick barrier.

    Carries the journal's flushed LSN so the coordinator's view of each
    replication group's progress rides on the liveness signal itself.
    Missed heartbeats past the timeout trigger failover.
    """

    shard: int
    tick: int
    flushed_lsn: int

    def wire_size(self) -> int:
        return ENVELOPE_BYTES + 24


# ---------------------------------------------------------------------------
# Stable wire codec: encode()/decode() with a version byte
# ---------------------------------------------------------------------------
#
# Header layout: byte 0 = WIRE_VERSION, byte 1 = message type id, then a
# canonical JSON body (sorted keys, no whitespace).  Tuples and
# non-string dict keys — both load-bearing in the protocol dataclasses —
# are tagged so the decode restores the exact python types and
# ``decode(encode(m)) == m`` holds for every registered message.
#
# Each direction is one pass per message.  ``register_message`` compiles
# a class's field spec once; lowering dispatches on exact type, so
# scalars cost nothing and an already JSON-safe dict is handed to the
# encoder uncopied; decode restores the tags inside the parse (an
# ``object_hook``) instead of walking the parsed tree a second time.

# Scalar annotations the decoder type-checks on the way in.  JSON has a
# single number type, so ``float`` fields accept ints; ``int`` fields
# reject bools (a json ``true`` is not a sequence number).  Container
# annotations are left to the message's own consumers.
_SCALAR_CHECKS: dict[str, Callable[[Any], bool]] = {
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: (
        isinstance(v, (int, float)) and not isinstance(v, bool)
    ),
}

#: Exact types the JSON encoder writes as they are.
_SCALARS = frozenset((str, int, float, bool, type(None)))

# One encoder for the process (the decoder sits below, beside its hook).
# ``check_circular`` is off: lowering recursed through every container
# it copied, and the ones it hands over uncopied hold only scalars.
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), check_circular=False
)


class _Spec:
    """One registered message class, compiled once at registration."""

    __slots__ = ("cls", "header", "names", "checks", "writer")

    def __init__(self, cls: type, type_id: int):
        fields = dataclasses.fields(cls)
        self.cls = cls
        self.header = bytes((WIRE_VERSION, type_id))
        self.names = tuple(f.name for f in fields)
        #: ``(name, annotation, check)`` for every scalar-annotated field.
        self.checks = tuple(
            (f.name, f.type, _SCALAR_CHECKS[f.type])
            for f in fields if f.type in _SCALAR_CHECKS
        )
        #: A class may write its own body (``msg.wire_body() -> str``);
        #: it must be byte-identical to the generic lowering.
        self.writer: Callable[[Any], str] | None = getattr(
            cls, "wire_body", None
        )


_BY_ID: dict[int, _Spec] = {}
_BY_TYPE: dict[type, _Spec] = {}


def register_message(type_id: int, cls: type | None = None):
    """Register a frozen-dataclass message under a stable wire type id.

    Usable as a plain call (``register_message(3, EntityExit)``) or a
    decorator (``@register_message(32)``).  Ids are part of the wire
    contract: never renumber a released message, only append.
    """
    def _register(target: type) -> type:
        if not (0 <= type_id <= 255):
            raise NetError(f"message type id {type_id} outside one byte")
        existing = _BY_ID.get(type_id)
        if existing is not None and existing.cls is not target:
            raise NetError(
                f"wire type id {type_id} already taken by "
                f"{existing.cls.__name__}"
            )
        if not dataclasses.is_dataclass(target):
            raise NetError(f"{target.__name__} must be a dataclass message")
        spec = _Spec(target, type_id)
        _BY_ID[type_id] = spec
        _BY_TYPE[target] = spec
        return target

    return _register if cls is None else _register(cls)


def _lower(value: Any) -> Any:
    """Lower a message field value to tagged, JSON-safe form."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is tuple:
        return {"__t": [v if type(v) in _SCALARS else _lower(v) for v in value]}
    if kind is dict:
        for k in value:
            if not (isinstance(k, str) and not k.startswith("__")):
                return {"__d": [[_lower(k), _lower(v)] for k, v in value.items()]}
        for v in value.values():
            if type(v) not in _SCALARS:
                return {k: _lower(v) for k, v in value.items()}
        return value
    if kind is list:
        return [_lower(v) for v in value]
    # Subclasses: numpy.float64, namedtuples, OrderedDict, IntEnum, ...
    if isinstance(value, (bool, int, float, str)):
        return value
    for base in (tuple, list, dict):
        if isinstance(value, base):
            return _lower(base(value))
    raise NetError(
        f"unencodable value of type {type(value).__name__} "
        f"(in-process-only payloads cannot cross a real wire)"
    )


def encode_value(value: Any) -> str:
    """The canonical JSON text :func:`encode` writes for one field value.

    Message body writers splice these texts; see ``Delta.wire_body``.
    """
    return _ENCODER.encode(_lower(value))


def wire_header(cls: type) -> bytes:
    """The two codec header bytes (version, type id) of a message class."""
    return _BY_TYPE[cls].header


def encode(msg: Any, ctx: TraceContext | None = None) -> bytes:
    """Render a registered message as versioned wire bytes.

    With a :class:`~repro.obs.causal.TraceContext` the message is
    wrapped in a context header — type id :data:`CTX_TYPE_ID`, the
    compact context JSON, a NUL terminator, then the inner encoding.
    :func:`decode` unwraps transparently; :func:`decode_with_context`
    hands the context back.
    """
    spec = _BY_TYPE.get(type(msg))
    if spec is None:
        raise NetError(
            f"{type(msg).__name__} is not a registered wire message"
        )
    if spec.writer is not None:
        body = spec.writer(msg)
    else:
        body = _ENCODER.encode(
            {name: _lower(getattr(msg, name)) for name in spec.names}
        )
    encoded = spec.header + body.encode("utf-8")
    if ctx is None:
        return encoded
    header = _ENCODER.encode(ctx.to_wire()).encode("utf-8")
    return bytes((WIRE_VERSION, CTX_TYPE_ID)) + header + b"\x00" + encoded


def _unwrap_context(data: bytes) -> tuple[bytes, TraceContext | None]:
    """Split a context wrapper from wire bytes (pass-through when bare)."""
    if len(data) < 2 or data[0] != WIRE_VERSION or data[1] != CTX_TYPE_ID:
        return data, None
    end = data.find(b"\x00", 2)
    if end < 0:
        raise NetError("context wrapper missing its terminator")
    try:
        wire = json.loads(data[2:end].decode("utf-8"))
        if not isinstance(wire, dict):
            raise ValueError("context header is not an object")
        ctx = TraceContext.from_wire(wire)
    except (UnicodeDecodeError, json.JSONDecodeError, ValueError,
            TypeError) as exc:
        raise NetError(f"corrupt context header: {exc}") from None
    inner = data[end + 1:]
    if len(inner) >= 2 and inner[0] == WIRE_VERSION and inner[1] == CTX_TYPE_ID:
        raise NetError("nested context wrappers are not allowed")
    return inner, ctx


def _hashable(key: Any) -> Any:
    if isinstance(key, list):
        return tuple(_hashable(k) for k in key)
    return key


def _restore_tags(obj: dict) -> Any:
    """``object_hook``: undo the tuple / keyed-dict tags as the parse goes.

    Only the canonical tag forms :func:`encode` writes are accepted: a
    ``__t`` array, and a ``__d`` array of ``[key, value]`` pairs with at
    least one key the encoder could not have written untagged.  Anything
    else under a tag is a :class:`NetError` (which also keeps a tagged
    top-level body from posing as a message's fields).
    """
    if len(obj) != 1:
        return obj
    if "__t" in obj:
        items = obj["__t"]
        if type(items) is list:
            return tuple(items)
        raise NetError("corrupt tuple tag: payload is not an array")
    if "__d" in obj:
        pairs = obj["__d"]
        if type(pairs) is not list:
            raise NetError("corrupt dict tag: payload is not an array")
        out = {}
        for pair in pairs:
            if type(pair) is not list or len(pair) != 2:
                raise NetError("corrupt dict tag: entry is not a key/value pair")
            out[_hashable(pair[0])] = pair[1]
        if all(isinstance(k, str) and not k.startswith("__") for k in out):
            raise NetError("corrupt dict tag: its keys need no tag")
        return out
    return obj


_DECODER = json.JSONDecoder(object_hook=_restore_tags)


def decode(data: bytes) -> Any:
    """Parse wire bytes back into the original message object.

    Hostile input degrades to :class:`NetError`, never an unhandled
    exception: the body must be a JSON object whose keys exactly fill
    the message's fields, and scalar fields are type-checked against
    the dataclass annotations.  Callers (the gateway's byte path, the
    cluster transports) treat ``NetError`` as a protocol violation and
    close the offending connection.  Context-wrapped messages decode
    transparently (the context is dropped; use
    :func:`decode_with_context` to keep it).
    """
    if len(data) < 2:
        raise NetError("message truncated before the codec header")
    data, _ = _unwrap_context(data)
    if len(data) < 2:
        raise NetError("message truncated before the codec header")
    if data[0] != WIRE_VERSION:
        raise NetError(
            f"wire version {data[0]} unsupported (speaking {WIRE_VERSION})"
        )
    spec = _BY_ID.get(data[1])
    if spec is None:
        raise NetError(f"unknown wire message type id {data[1]}")
    cls = spec.cls
    try:
        body = _DECODER.decode(data[2:].decode("utf-8"))
    except (ValueError, TypeError) as exc:
        # ValueError covers bad UTF-8 and malformed JSON; TypeError an
        # unhashable keyed-dict key.
        raise NetError(f"corrupt {cls.__name__} body: {exc}") from None
    if type(body) is not dict:
        raise NetError(
            f"corrupt {cls.__name__} body: expected an object, "
            f"got {type(body).__name__}"
        )
    try:
        msg = cls(**body)
    except (TypeError, ValueError, AttributeError) as exc:
        raise NetError(f"corrupt {cls.__name__} body: {exc}") from None
    for name, annotation, check in spec.checks:
        if not check(getattr(msg, name)):
            raise NetError(
                f"corrupt {cls.__name__} body: field {name!r} "
                f"is not {annotation}"
            )
    return msg


def decode_with_context(data: bytes) -> tuple[Any, TraceContext | None]:
    """Like :func:`decode`, but also return the trace context (or None)."""
    inner, ctx = _unwrap_context(data)
    return decode(inner), ctx


def encoded_size(msg: Any) -> int:
    """Exact byte length of :func:`encode`'s output for ``msg``."""
    return len(encode(msg))


def default_size_of(payload: Any, fallback: int = 64) -> int:
    """The deterministic size model shared by sim and socket paths.

    Protocol messages bill their analytic ``wire_size()`` (stable across
    runs and python versions); anything else bills ``fallback`` bytes.
    :class:`~repro.net.simnet.SimNetwork` uses this when a caller does
    not pass an explicit size, so in-process byte counts line up with
    what the gateway's socket path would have charged.
    """
    sizer: Callable[[], int] | None = getattr(payload, "wire_size", None)
    return sizer() if callable(sizer) else fallback


# Stable ids for the released protocol messages.  Client/server plane
# first, cluster control plane from 16, replication plane from 24; the
# gateway session plane registers from 32 (see repro.gateway.messages).
register_message(1, StateUpdate)
register_message(2, EntityEnter)
register_message(3, EntityExit)
register_message(4, InputCommand)
register_message(5, InputAck)
register_message(16, HandoffCommand)
register_message(17, HandoffRequest)
register_message(18, HandoffAck)
register_message(19, HandoffComplete)
register_message(20, HandoffResend)
register_message(21, TxnPrepare)
register_message(22, TxnVote)
register_message(23, TxnDecision)
register_message(24, WalShip)
register_message(25, WalAck)
register_message(26, Heartbeat)
register_message(27, SchemaAlter)
register_message(28, SchemaAlterAck)
