"""Write-ahead log with explicit durability boundaries.

The in-memory game tier journals every action here before applying it;
the WAL is what makes "checkpoint every 10 minutes" survivable at all.
Durability is modelled honestly: :meth:`append` buffers, :meth:`flush`
makes records durable (one simulated fsync), and :meth:`crash` discards
the unflushed tail — so recovery tests exercise the real torn-tail case.

Records are dicts serialized as JSON lines with an LSN and a CRC; the
reader detects and stops at corruption, which is how a real log handles a
torn final write.  LSNs are dense, so the LSN is the offset: a tail read
seeks to its first record and truncation is a slice.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import WalCorruptionError, WALError


@dataclass(frozen=True)
class WALRecord:
    """One durable log record."""

    lsn: int
    payload: dict[str, Any]


class WriteAheadLog:
    """An in-memory WAL with honest flush/crash semantics.

    ``group_commit`` > 1 batches appends per fsync (the standard latency/
    durability trade); ``auto_flush`` False means the caller controls
    flush boundaries entirely.
    """

    def __init__(self, group_commit: int = 1, auto_flush: bool = True):
        if group_commit < 1:
            raise WALError("group_commit must be >= 1")
        self.group_commit = group_commit
        self.auto_flush = auto_flush
        self._durable: list[str] = []  # encoded lines, the "disk"
        self._buffer: list[str] = []
        self._next_lsn = 1
        #: LSN of ``_durable[0]``.  LSNs are dense and append-only, so
        #: ``_durable[i]`` always holds LSN ``_first_lsn + i``: crash()
        #: only drops the unflushed buffer, truncate_until() only a prefix.
        self._first_lsn = 1
        self.fsyncs = 0
        self.bytes_written = 0
        #: Set by :meth:`records` when a read hit a corrupt record and
        #: stopped early; recovery checks it to trigger a flight dump.
        self.corruption_detected = False
        self._tracer = None
        self._c_appends = None
        self._c_fsyncs = None
        self._c_bytes = None

    def bind_obs(self, obs: Any, **labels: str) -> "WriteAheadLog":
        """Attach an observability bundle: spans + ``wal.*`` counters.

        ``labels`` (e.g. ``wal="shard:0"``) distinguish multiple logs
        sharing one registry.  Returns self for chaining.  Unbound logs
        pay nothing.
        """
        tracer = getattr(obs, "tracer", None)
        if tracer is not None and tracer.enabled:
            self._tracer = tracer
        metrics = getattr(obs, "metrics", None)
        if metrics is not None:
            self._c_appends = metrics.counter("wal.appends", **labels)
            self._c_fsyncs = metrics.counter("wal.fsyncs", **labels)
            self._c_bytes = metrics.counter("wal.bytes_written", **labels)
        return self

    # -- writing ------------------------------------------------------------------

    @property
    def next_lsn(self) -> int:
        """LSN the next append will receive."""
        return self._next_lsn

    @property
    def flushed_lsn(self) -> int:
        """Highest LSN that is durable (0 when none)."""
        return self._next_lsn - 1 - len(self._buffer)

    def append(self, payload: dict[str, Any]) -> int:
        """Append a record; returns its LSN.  Durability needs flush."""
        if self._tracer is not None and self._tracer.enabled:
            with self._tracer.span("wal.append", cat="wal", lsn=self._next_lsn):
                return self._append_impl(payload)
        return self._append_impl(payload)

    def _append_impl(self, payload: dict[str, Any]) -> int:
        lsn = self._next_lsn
        self._next_lsn += 1
        line = _encode(lsn, payload)
        self._buffer.append(line)
        if self._c_appends is not None:
            self._c_appends.inc()
        if self.auto_flush and len(self._buffer) >= self.group_commit:
            self.flush()
        return lsn

    def flush(self) -> int:
        """Force the buffer to durable storage; returns records flushed."""
        if not self._buffer:
            return 0
        if self._tracer is not None and self._tracer.enabled:
            with self._tracer.span(
                "wal.fsync", cat="wal", records=len(self._buffer)
            ):
                return self._flush_impl()
        return self._flush_impl()

    def _flush_impl(self) -> int:
        flushed = len(self._buffer)
        written = 0
        for line in self._buffer:
            self._durable.append(line)
            written += len(line)
        self.bytes_written += written
        self._buffer.clear()
        self.fsyncs += 1
        if self._c_fsyncs is not None:
            self._c_fsyncs.inc()
            self._c_bytes.inc(written)
        return flushed

    def crash(self) -> int:
        """Simulate a crash: the unflushed tail is lost.

        Returns the number of records lost.  The WAL object remains
        usable for recovery reads (it *is* the disk).
        """
        lost = len(self._buffer)
        self._buffer.clear()
        self._next_lsn -= lost
        return lost

    def corrupt_tail(self) -> None:
        """Damage the final durable record (torn-write simulation)."""
        self.corrupt_at(-1)

    def corrupt_at(self, index: int) -> None:
        """Damage the durable record at ``index`` (bit-rot simulation).

        Unlike a torn tail, mid-file corruption cuts recovery short:
        :meth:`records` stops at the bad record and everything after it
        is unreachable — the case checksums exist to detect.
        """
        if not self._durable:
            raise WALError("nothing to corrupt")
        try:
            line = self._durable[index]
        except IndexError:
            raise WALError(f"no durable record at index {index}") from None
        self._durable[index] = line[:-4] + "XXXX"

    # -- truncation ---------------------------------------------------------------------

    def truncate_until(self, lsn: int) -> int:
        """Drop durable records with LSN < ``lsn`` (post-checkpoint GC).

        Returns records removed.  The LSN is the offset, so this is a
        slice: nothing is decoded (or verified) on the way out.
        """
        removed = min(max(lsn - self._first_lsn, 0), len(self._durable))
        self._durable = self._durable[removed:]
        self._first_lsn += removed
        return removed

    # -- reading ---------------------------------------------------------------------------

    def records(
        self, from_lsn: int = 0, strict: bool = False
    ) -> Iterator[WALRecord]:
        """Durable records with LSN >= ``from_lsn``.

        The read seeks: it starts at offset ``from_lsn - first retained
        LSN`` (at the first retained record when ``from_lsn`` is below
        it) and checks the CRC of exactly the records it returns.  A full
        scan (``records()``, recovery's ``strict=True`` read) therefore
        verifies every retained record; a tail read does not vouch for
        the prefix it skipped.

        A record that fails its checksum ends the scan: by default the
        reader stops silently (sets :attr:`corruption_detected`, the
        torn-tail convention), while ``strict=True`` raises a
        :class:`~repro.errors.WalCorruptionError` carrying the bad
        record's offset in the durable log and the LSN just before it
        (0 at offset 0) — the error contract the durable serving tier
        catches to refuse serving from a log it cannot trust.
        """
        start = max(from_lsn - self._first_lsn, 0)
        last_good = self._first_lsn + start - 1 if start else 0
        for offset, line in enumerate(self._durable[start:], start):
            rec = _try_decode(line)
            if rec is None:
                # Torn tail: everything after the first bad record is
                # untrustworthy; stop exactly like a real recovery pass.
                self.corruption_detected = True
                if strict:
                    raise WalCorruptionError(
                        f"WAL record at offset {offset} failed its "
                        f"checksum (last good LSN {last_good})",
                        offset=offset,
                        last_good_lsn=last_good,
                    )
                return
            last_good = rec.lsn
            yield rec

    def durable_count(self) -> int:
        """Number of durable records currently retained."""
        return len(self._durable)

    def pending_count(self) -> int:
        """Records buffered but not yet durable."""
        return len(self._buffer)


def _encode(lsn: int, payload: dict[str, Any]) -> str:
    body = json.dumps({"lsn": lsn, "p": payload}, sort_keys=True, default=_json_default)
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f"{body}|{crc:08x}"


def _json_default(obj: Any) -> Any:
    if isinstance(obj, bytes):
        return {"__bytes__": obj.hex()}
    raise TypeError(f"not serializable: {type(obj).__name__}")


def _json_revive(obj: Any) -> Any:
    if isinstance(obj, dict):
        if set(obj) == {"__bytes__"}:
            return bytes.fromhex(obj["__bytes__"])
        return {k: _json_revive(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_json_revive(v) for v in obj]
    return obj


def _try_decode(line: str) -> WALRecord | None:
    body, sep, crc_hex = line.rpartition("|")
    if not sep:
        return None
    try:
        expected = int(crc_hex, 16)
    except ValueError:
        return None
    if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != expected:
        return None
    try:
        doc = json.loads(body)
    except json.JSONDecodeError:
        return None
    return WALRecord(lsn=doc["lsn"], payload=_json_revive(doc["p"]))
