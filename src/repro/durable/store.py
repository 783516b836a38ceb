"""The durable store: SQL serving state fronted by a redo WAL.

    "MMOs use commercial databases for persistence and to recover from
    server crashes."

:class:`DurableStore` is the node-local half of the serving tier.  It
pairs the :class:`~repro.persistence.sqlbridge.MiniSQL` engine (the
serving state a unit of work reads and CAS-updates) with a
:class:`~repro.persistence.wal.WriteAheadLog` of *redo records* — the
WAL flush is the durability point, and the SQL tables are merely the
replayable projection of the log.  Three record kinds flow through it:

``commit``
    One unit of work's entity writes (each carrying its new
    ``row_version``) plus the outbox events emitted in the same unit.
    Application is idempotent: a write lands only while the stored
    version is older, an event only while its dedup key is unseen — so
    crash-recovery replay converges to exactly-once effects.
``dispatch``
    Outbox rows confirmed handed to the event sink.  Deliberately
    lazy-flushed: losing a dispatch mark merely redelivers, and the
    consumer side dedupes.
``lease``
    Every lease acquire/renew/release/reclaim, so inflight ownership
    and fencing tokens survive a crash (see
    :class:`~repro.durable.leases.LeaseTable`).

:meth:`crash` models node death honestly (the unflushed WAL tail and
the whole SQL projection are gone); :meth:`recover` rebuilds the
projection by replaying the log with ``strict=True`` reads, so a
corrupt log surfaces the typed
:class:`~repro.errors.WalCorruptionError` instead of silently serving
a truncated history.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from repro.errors import DurableError
from repro.obs.hub import Observability, resolve_obs
from repro.persistence.sqlbridge import MiniSQL
from repro.persistence.wal import WriteAheadLog


class InjectedCrash(RuntimeError):
    """Raised by an armed failpoint; the crash-matrix tests' scalpel.

    Deliberately *not* a :class:`~repro.errors.ReproError`: production
    code must never catch it, exactly like a real ``kill -9``.
    """

    def __init__(self, point: str):
        super().__init__(f"injected crash at failpoint {point!r}")
        self.point = point


class DurableStore:
    """SQL serving state + redo WAL with honest crash/recover semantics.

    ``group_commit`` batches WAL appends per fsync — the knob the E20
    benchmark sweeps for the commit throughput / latency trade.
    """

    def __init__(
        self,
        group_commit: int = 1,
        obs: Observability | None = None,
        name: str = "durable",
    ):
        self.obs = resolve_obs(obs)
        self.name = name
        self.wal = WriteAheadLog(group_commit=group_commit).bind_obs(
            self.obs, wal=name
        )
        self.engine = MiniSQL()
        self._create_tables()
        self.commit_seq = 0
        self.outbox_seq = 0
        self.fence = 0
        self.commits = 0
        self.conflicts = 0
        self.recoveries = 0
        self.replayed_commits = 0
        self.crashed = False
        self._failpoints: set[str] = set()
        #: Called with each commit record right after its WAL flush —
        #: the semi-sync shipping hook a :class:`DurableGroup` installs.
        self.on_durable: Callable[[], None] | None = None
        #: The most recent commit record (loss accounting reads it to
        #: remember exactly what each acknowledgement promised).
        self.last_commit_record: dict[str, Any] | None = None

    def _create_tables(self) -> None:
        self.engine.execute(
            "CREATE TABLE entities "
            "(entity INTEGER PRIMARY KEY, body TEXT, row_version INTEGER)"
        )
        self.engine.execute(
            "CREATE TABLE outbox (dedup TEXT PRIMARY KEY, seq INTEGER, "
            "entity INTEGER, event TEXT, evkey TEXT, body TEXT, "
            "dispatched INTEGER)"
        )
        # The drain looks rows up by seq and by dispatched flag; indexed,
        # both cost O(batch) whatever the (never-pruned) table size.
        self.engine.execute("CREATE INDEX outbox_seq ON outbox (seq)")
        self.engine.execute(
            "CREATE INDEX outbox_dispatched ON outbox (dispatched)"
        )
        self.engine.execute(
            "CREATE TABLE leases (lease_key TEXT PRIMARY KEY, owner TEXT, "
            "token INTEGER, expires INTEGER)"
        )

    # -- failpoints (crash-matrix tests) ------------------------------------------

    def arm_failpoint(self, point: str) -> None:
        """Arm one named failpoint; the next commit passing it dies."""
        self._failpoints.add(point)

    def hit_failpoint(self, point: str) -> None:
        """Raise :class:`InjectedCrash` if ``point`` is armed (once)."""
        if point in self._failpoints:
            self._failpoints.discard(point)
            raise InjectedCrash(point)

    # -- serving reads ------------------------------------------------------------

    def read_entity(self, entity: int) -> tuple[dict[str, Any] | None, int]:
        """One entity's state and row_version (``(None, 0)`` if absent)."""
        self._require_live()
        rows = self.engine.execute(
            "SELECT body, row_version FROM entities WHERE entity = ?",
            (entity,),
        )
        if not rows:
            return None, 0
        return json.loads(rows[0]["body"]), rows[0]["row_version"]

    def entity_version(self, entity: int) -> int:
        """Just the row_version (0 if absent) — the CAS probe."""
        rows = self.engine.execute(
            "SELECT row_version FROM entities WHERE entity = ?", (entity,)
        )
        return rows[0]["row_version"] if rows else 0

    def entity_count(self) -> int:
        """Rows in the entities table."""
        return self.engine.row_count("entities")

    # -- commit records -----------------------------------------------------------

    def append_commit(
        self,
        writes: list[tuple[int, int, str]],
        events: list[tuple[str, int, int, str, str, str]],
        tick: int,
    ) -> tuple[int, dict[str, Any]]:
        """Make one unit of work durable; returns ``(lsn, record)``.

        ``writes`` rows are ``(entity, new_version, body_json)``;
        ``events`` rows are ``(dedup, seq, entity, event, key,
        body_json)``.  The WAL flush here is the acknowledgement point.
        """
        self._require_live()
        self.commit_seq += 1
        record = {
            "kind": "commit",
            "commit": self.commit_seq,
            "tick": tick,
            "writes": [list(w) for w in writes],
            "events": [list(e) for e in events],
        }
        lsn = self.wal.append(record)
        self.wal.flush()
        self.commits += 1
        self.last_commit_record = record
        if self.on_durable is not None:
            self.on_durable()
        return lsn, record

    def apply_commit(self, record: dict[str, Any]) -> bool:
        """Apply a commit record to the SQL projection, idempotently.

        Returns True if any effect landed (False == pure replay noise).
        """
        self._require_live()
        return self._apply_commit(record)

    def _apply_commit(self, record: dict[str, Any]) -> bool:
        applied = False
        for entity, version, body in record["writes"]:
            rows = self.engine.execute(
                "SELECT row_version FROM entities WHERE entity = ?",
                (entity,),
            )
            if not rows:
                self.engine.execute(
                    "INSERT INTO entities (entity, body, row_version) "
                    "VALUES (?, ?, ?)",
                    (entity, body, version),
                )
            elif rows[0]["row_version"] >= version:
                continue  # already applied (replay) or superseded
            else:
                self.engine.execute(
                    "UPDATE entities SET body = ?, row_version = ? "
                    "WHERE entity = ?",
                    (body, version, entity),
                )
            applied = True
        for dedup, seq, entity, event, evkey, body in record["events"]:
            if self.engine.execute(
                "SELECT seq FROM outbox WHERE dedup = ?", (dedup,)
            ):
                continue  # idempotent: unique per entity + event + key
            self.engine.execute(
                "INSERT INTO outbox (dedup, seq, entity, event, evkey, "
                "body, dispatched) VALUES (?, ?, ?, ?, ?, ?, 0)",
                (dedup, seq, entity, event, evkey, body),
            )
            applied = True
        return applied

    # -- outbox plumbing (dispatcher side lives in outbox.py) ----------------------

    def undispatched(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Outbox rows not yet confirmed dispatched, in seq order."""
        self._require_live()
        sql = "SELECT * FROM outbox WHERE dispatched = 0 ORDER BY seq ASC"
        if limit is None:
            return self.engine.execute(sql)
        return self.engine.execute(sql + " LIMIT ?", (int(limit),))

    def outbox_pending(self) -> int:
        """Undispatched outbox rows (the drain-lag gauge)."""
        rows = self.engine.execute(
            "SELECT COUNT (*) FROM outbox WHERE dispatched = 0"
        )
        return rows[0]["count"]

    def mark_dispatched(self, seqs: list[int]) -> None:
        """Record sink hand-off for ``seqs``; lazily durable by design.

        The WAL record rides the normal group-commit cadence (no forced
        flush): a crash can lose the mark, which merely re-delivers —
        the sink's dedup keys make redelivery invisible.
        """
        self._require_live()
        if not seqs:
            return
        self._apply_dispatch(seqs)
        self.wal.append({"kind": "dispatch", "seqs": list(seqs)})

    def _apply_dispatch(self, seqs: list[int]) -> None:
        for seq in seqs:
            self.engine.execute(
                "UPDATE outbox SET dispatched = 1 WHERE seq = ?", (seq,)
            )

    def reset_dispatched(self) -> int:
        """Mark every outbox row undispatched (failover replay); count."""
        self._require_live()
        total = self._apply_dispatch_reset()
        self.wal.append({"kind": "dispatch-reset"})
        self.wal.flush()
        return total

    def _apply_dispatch_reset(self) -> int:
        self.engine.execute("UPDATE outbox SET dispatched = 0")
        return self.engine.rowcount

    # -- lease records (table logic lives in leases.py) ----------------------------

    def append_lease(self, record: dict[str, Any]) -> int:
        """Journal one lease operation (durable before it takes effect)."""
        self._require_live()
        record = {"kind": "lease", **record}
        lsn = self.wal.append(record)
        self.wal.flush()
        self.apply_lease(record)
        return lsn

    def apply_lease(self, record: dict[str, Any]) -> None:
        """Apply a lease record to the SQL projection, idempotently."""
        op = record["op"]
        key = record["key"]
        if op in ("acquire", "renew", "reclaim"):
            if self.engine.execute(
                "SELECT token FROM leases WHERE lease_key = ?", (key,)
            ):
                self.engine.execute(
                    "UPDATE leases SET owner = ?, token = ?, expires = ? "
                    "WHERE lease_key = ?",
                    (record["owner"], record["token"], record["expires"], key),
                )
            else:
                self.engine.execute(
                    "INSERT INTO leases (lease_key, owner, token, expires) "
                    "VALUES (?, ?, ?, ?)",
                    (key, record["owner"], record["token"], record["expires"]),
                )
            self.fence = max(self.fence, record["token"])
        elif op == "release":
            self.engine.execute(
                "DELETE FROM leases WHERE lease_key = ?", (key,)
            )
        else:  # pragma: no cover - writer controls the vocabulary
            raise DurableError(f"unknown lease op {op!r}")

    def next_fence(self) -> int:
        """The next (strictly monotonic) fencing token."""
        self.fence += 1
        return self.fence

    # -- crash / recovery ----------------------------------------------------------

    def crash(self) -> int:
        """Node death: the unflushed tail and the SQL projection die.

        Returns WAL records lost.  The store refuses all traffic until
        :meth:`recover` rebuilds the projection from the durable log.
        """
        lost = self.wal.crash()
        self.engine = MiniSQL()  # memory is gone
        self.crashed = True
        return lost

    def recover(self) -> dict[str, int]:
        """Replay the durable log into a fresh projection (strict reads).

        Raises :class:`~repro.errors.WalCorruptionError` — with the bad
        record's offset — rather than serving from a log it cannot
        fully trust.  Returns replay counters.
        """
        # Not servable until the whole log has replayed cleanly.
        self.crashed = True
        self.engine = MiniSQL()
        self._create_tables()
        self.commit_seq = 0
        self.outbox_seq = 0
        self.fence = 0
        replayed = applied = dispatch_marks = 0
        for rec in self.wal.records(strict=True):
            replayed += 1
            applied += self._replay(rec.payload)
            dispatch_marks += rec.payload.get("kind") == "dispatch"
        self.crashed = False
        self.recoveries += 1
        self.replayed_commits += applied
        return {
            "replayed": replayed,
            "applied_commits": applied,
            "dispatch_marks": dispatch_marks,
        }

    def ingest(self, records: list[tuple[int, dict[str, Any]]]) -> int:
        """Standby-side apply of a shipped WAL tail; returns applied LSN.

        Each record is re-journaled locally (the standby's own
        durability) and applied to its projection — idempotently, so
        re-shipped batches are harmless.
        """
        self._require_live()
        applied_lsn = self.wal.flushed_lsn
        for lsn, payload in records:
            if lsn <= applied_lsn:
                continue
            self.wal.append(dict(payload))
            self._replay(payload)
            applied_lsn = lsn
        self.wal.flush()
        return applied_lsn

    def _replay(self, payload: dict[str, Any]) -> bool:
        """Apply one logged record to the projection (recovery, standby
        ingest); True when it was a commit that landed an effect."""
        kind = payload.get("kind")
        if kind == "commit":
            self.commit_seq = max(self.commit_seq, payload["commit"])
            for _dedup, seq, *_rest in payload["events"]:
                self.outbox_seq = max(self.outbox_seq, seq)
            return self._apply_commit(payload)
        if kind == "dispatch":
            self._apply_dispatch(payload["seqs"])
        elif kind == "dispatch-reset":
            self._apply_dispatch_reset()
        elif kind == "lease":
            self.apply_lease(payload)
        return False

    def ship_since(self, lsn: int) -> list[tuple[int, dict[str, Any]]]:
        """The durable tail past ``lsn`` as ``(lsn, payload)`` pairs."""
        return [(r.lsn, r.payload) for r in self.wal.records(lsn + 1)]

    def _require_live(self) -> None:
        if self.crashed:
            raise DurableError(
                f"store {self.name!r} crashed; recover() before serving"
            )

    # -- observability -------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Counters for the obs hub's ``register_stats`` row."""
        return {
            "commits": self.commits,
            "conflicts": self.conflicts,
            "flushed_lsn": self.wal.flushed_lsn,
            "fsyncs": self.wal.fsyncs,
            "outbox_pending": 0 if self.crashed else self.outbox_pending(),
            "entities": 0 if self.crashed else self.entity_count(),
            "fence": self.fence,
            "recoveries": self.recoveries,
            "rows_examined": self.engine.rows_examined,
        }

    def __repr__(self) -> str:  # pragma: no cover
        state = "crashed" if self.crashed else "live"
        return (
            f"DurableStore({self.name!r}, {state}, "
            f"commits={self.commits}, flushed={self.wal.flushed_lsn})"
        )
