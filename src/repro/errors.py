"""Exception hierarchy for the ``repro`` game-database library.

Every layer of the library raises exceptions derived from :class:`ReproError`
so callers can catch all library errors with a single except clause while
still being able to discriminate by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# Core entity/table/query errors
# ---------------------------------------------------------------------------


class SchemaError(ReproError):
    """A component schema is malformed, or data violates the schema."""


class UnknownComponentError(ReproError):
    """The named component type has not been registered with the world."""


class UnknownEntityError(ReproError):
    """The entity id does not exist (never spawned or already destroyed)."""


class ComponentMissingError(ReproError):
    """The entity exists but does not carry the requested component."""


class DuplicateComponentError(ReproError):
    """An entity already has the component that is being attached."""


class QueryError(ReproError):
    """A declarative query is malformed or cannot be planned."""


class IndexError_(ReproError):
    """An index operation failed (duplicate index, unknown field, ...)."""


class AggregateError(ReproError):
    """An aggregate view is misconfigured or was queried inconsistently."""


# ---------------------------------------------------------------------------
# Scripting errors
# ---------------------------------------------------------------------------


class ScriptError(ReproError):
    """Base class for scripting-language failures."""


class LexError(ScriptError):
    """The script source contains an unrecognised token."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(ScriptError):
    """The script source is syntactically invalid."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class RestrictionError(ScriptError):
    """The script uses a construct forbidden by the language profile."""


class ScriptRuntimeError(ScriptError):
    """The script failed while executing."""


class BudgetExceededError(ScriptRuntimeError):
    """The script exceeded its per-frame instruction budget."""


# ---------------------------------------------------------------------------
# Content pipeline errors
# ---------------------------------------------------------------------------


class ContentError(ReproError):
    """Base class for content-pipeline failures."""


class ValidationError(ContentError):
    """Content data failed schema validation."""


class TemplateError(ContentError):
    """An entity template is malformed or has a broken inheritance chain."""


class UISpecError(ContentError):
    """An XML UI specification could not be parsed or validated."""


# ---------------------------------------------------------------------------
# Spatial errors
# ---------------------------------------------------------------------------


class SpatialError(ReproError):
    """A spatial structure was misused (bad bounds, degenerate geometry...)."""


class NavMeshError(SpatialError):
    """A navigation mesh is malformed, or a path query is unanswerable."""


# ---------------------------------------------------------------------------
# Consistency / transaction errors
# ---------------------------------------------------------------------------


class TransactionError(ReproError):
    """Base class for transaction failures."""


class TransactionAborted(TransactionError):
    """The transaction was aborted and must be retried by the caller."""

    def __init__(self, message: str, reason: str = "conflict"):
        super().__init__(message)
        self.reason = reason


class DeadlockError(TransactionAborted):
    """The transaction was chosen as a deadlock victim."""

    def __init__(self, message: str):
        super().__init__(message, reason="deadlock")


class ValidationFailure(TransactionAborted):
    """Optimistic validation found a conflicting concurrent commit."""

    def __init__(self, message: str):
        super().__init__(message, reason="validation")


# ---------------------------------------------------------------------------
# Persistence errors
# ---------------------------------------------------------------------------


class PersistenceError(ReproError):
    """Base class for storage/WAL/checkpoint failures."""


class WALError(PersistenceError):
    """The write-ahead log is corrupt or was misused."""


class WalCorruptionError(WALError):
    """A durable WAL record failed its checksum during a strict read.

    ``offset`` is the index of the bad record within the durable log
    (0-based, in storage order) and ``last_good_lsn`` the LSN of the
    last record that decoded cleanly before it — everything a recovery
    pass needs to report exactly where the log went bad.
    """

    def __init__(self, message: str, offset: int, last_good_lsn: int = 0):
        super().__init__(message)
        self.offset = offset
        self.last_good_lsn = last_good_lsn


class RecoveryError(PersistenceError):
    """Crash recovery could not reconstruct a consistent state."""


class MigrationError(PersistenceError):
    """A schema migration is invalid or cannot be applied."""


class SQLError(PersistenceError):
    """The SQL engine rejected a statement."""


# ---------------------------------------------------------------------------
# Durable serving-tier errors
# ---------------------------------------------------------------------------


class DurableError(PersistenceError):
    """Base class for the transactional serving tier."""


class ConflictError(DurableError):
    """Optimistic CAS found another commit got there first.

    Carries the losing write's coordinates so bounded-retry loops and
    conflict accounting can see exactly what collided.
    """

    def __init__(self, entity: int, expected: int, found: int):
        super().__init__(
            f"entity {entity}: expected row_version {expected}, "
            f"found {found}"
        )
        self.entity = entity
        self.expected = expected
        self.found = found


class RetriesExhaustedError(DurableError):
    """A unit of work kept conflicting past its retry budget."""

    def __init__(self, message: str, attempts: int, last: "ConflictError"):
        super().__init__(message)
        self.attempts = attempts
        self.last = last


class LeaseError(DurableError):
    """A lease operation was malformed or misused."""


class LeaseHeldError(LeaseError):
    """The lease is currently held by a live (unexpired) owner."""

    def __init__(self, key: str, owner: str, expires: int):
        super().__init__(
            f"lease {key!r} held by {owner!r} until tick {expires}"
        )
        self.key = key
        self.owner = owner
        self.expires = expires


class LeaseFencedError(LeaseError):
    """The caller's fencing token is stale: the lease moved on without it.

    Raised on commit or renew by a worker whose lease expired and was
    reclaimed — the mechanism that prevents a paused-but-alive worker
    from double-applying work it no longer owns.
    """

    def __init__(self, key: str, token: int, current: int):
        super().__init__(
            f"lease {key!r}: fencing token {token} is stale "
            f"(current {current})"
        )
        self.key = key
        self.token = token
        self.current = current


# ---------------------------------------------------------------------------
# Network simulation errors
# ---------------------------------------------------------------------------


class NetError(ReproError):
    """A network-simulation component was misconfigured."""


class GatewayError(NetError):
    """The network gateway was misconfigured or a session misbehaved."""


# ---------------------------------------------------------------------------
# Cluster runtime errors
# ---------------------------------------------------------------------------


class ClusterError(ReproError):
    """The sharded world runtime was misconfigured or misused."""


class ReplicationError(ClusterError):
    """The primary/replica replication layer hit an unrecoverable state."""


# ---------------------------------------------------------------------------
# Observability errors
# ---------------------------------------------------------------------------


class ObsError(ReproError):
    """The observability layer was misconfigured or misused."""
