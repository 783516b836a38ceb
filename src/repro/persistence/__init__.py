"""Persistence tier: WAL, in-memory DB, checkpoint policies, recovery,
blob codecs, schema migrations, and the SQL backing store."""

from repro.persistence.blob import (
    BlobCodec,
    blob_size,
    decode_record,
    encode_record,
)
from repro.persistence.checkpoint import (
    CheckpointManager,
    CheckpointPolicy,
    CheckpointStats,
    EventDrivenPolicy,
    HybridPolicy,
    IntervalPolicy,
    SnapshotStore,
)
from repro.persistence.memdb import Action, InMemoryGameDB
from repro.persistence.migration import (
    AddColumn,
    DropColumn,
    Migration,
    MigrationReport,
    MigrationRunner,
    OnlineMigration,
    RenameColumn,
    TransformColumn,
    VersionedTable,
)
from repro.persistence.recovery import RecoveryReport, recover, verify_recovery
from repro.persistence.sqlbridge import SQLBackingStore, SQLEngine
from repro.persistence.wal import WALRecord, WriteAheadLog

__all__ = [
    "BlobCodec",
    "blob_size",
    "decode_record",
    "encode_record",
    "CheckpointManager",
    "CheckpointPolicy",
    "CheckpointStats",
    "EventDrivenPolicy",
    "HybridPolicy",
    "IntervalPolicy",
    "SnapshotStore",
    "Action",
    "InMemoryGameDB",
    "AddColumn",
    "DropColumn",
    "Migration",
    "MigrationReport",
    "MigrationRunner",
    "OnlineMigration",
    "RenameColumn",
    "TransformColumn",
    "VersionedTable",
    "RecoveryReport",
    "recover",
    "verify_recovery",
    "SQLBackingStore",
    "SQLEngine",
    "WALRecord",
    "WriteAheadLog",
]
