"""Per-client send queues: bounded, watermarked, coalescing, evicting.

A gateway serving 10⁵ clients lives or dies by what it does when one
client reads slowly.  The policy here, applied per session:

* **Bounded queue** — frames wait in a per-session queue; the queue plus
  the transport's own write buffer form the *backlog*.
* **Watermarks** — backlog above ``high_watermark`` marks the client
  *behind*; it must fall below ``low_watermark`` to be caught up again
  (hysteresis, so a client straddling the line does not flap).  Flush
  stops writing into a transport whose buffer is above
  ``drain_watermark`` — bytes the kernel has not taken stay here, where
  they can still be coalesced.
* **Delta coalescing** — while behind, per-tick deltas merge into one
  pending delta (latest value per field, enters/exits cancelling), so a
  slow client's memory cost is bounded by world size, not by how long
  it lags, and it resynchronises in one message.
* **Eviction** — a client behind for ``evict_behind_ticks`` consecutive
  ticks, or whose backlog exceeds ``max_queue_bytes``, is evicted: the
  100 ms of one stuck TCP peer must never become everyone's tick time.
  Deltas too large for one frame are split into frameable parts; only a
  single change that *still* cannot fit evicts (``evicted:oversize``) —
  never raises into the shared tick loop.  A control or event message
  that cannot be framed evicts the same way.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.errors import GatewayError, NetError
from repro.gateway.framing import frame, frame_encoded
from repro.gateway.messages import Delta, EntryTexts
from repro.net.protocol import ENVELOPE_BYTES, VALUE_BYTES


@dataclass(frozen=True)
class BackpressureConfig:
    """Tuning knobs for one session's send queue (bytes and ticks)."""

    max_queue_bytes: int = 256 * 1024
    high_watermark: int = 32 * 1024
    low_watermark: int = 8 * 1024
    drain_watermark: int = 64 * 1024
    evict_behind_ticks: int = 30

    def __post_init__(self) -> None:
        if not 0 <= self.low_watermark <= self.high_watermark:
            raise GatewayError("watermarks must satisfy 0 <= low <= high")
        if self.max_queue_bytes < self.high_watermark:
            raise GatewayError("max_queue_bytes must be >= high_watermark")
        if self.evict_behind_ticks < 1:
            raise GatewayError("evict_behind_ticks must be >= 1")


class _PendingDelta:
    """Coalesced state changes awaiting a caught-up client."""

    __slots__ = ("enters", "updates", "exits", "tick", "merged")

    def __init__(self) -> None:
        self.enters: dict[int, dict] = {}
        self.updates: dict[int, dict] = {}
        self.exits: set[int] = set()
        self.tick = 0
        self.merged = 0

    def merge(self, delta: Delta) -> None:
        """Fold one per-tick delta in; latest values win."""
        for eid, fields in delta.enters:
            self.exits.discard(eid)
            self.enters[eid] = dict(fields)
            self.updates.pop(eid, None)
        for eid, fields in delta.updates:
            if eid in self.enters:
                self.enters[eid].update(fields)
            else:
                self.updates.setdefault(eid, {}).update(fields)
        for eid in delta.exits:
            if eid in self.enters:
                # Entered and left while the client was behind: it never
                # needs to hear about this entity at all.
                del self.enters[eid]
            else:
                self.updates.pop(eid, None)
                self.exits.add(eid)
        self.tick = delta.tick
        self.merged += 1 + delta.coalesced

    def to_delta(self, seq: int) -> Delta:
        """Render as one wire delta (deterministic entity order)."""
        return Delta(
            tick=self.tick,
            seq=seq,
            enters=tuple(sorted(self.enters.items())),
            updates=tuple(sorted(self.updates.items())),
            exits=tuple(sorted(self.exits)),
            coalesced=self.merged - 1,
        )

    def wire_cost(self) -> int:
        """Byte cost under the wire-size model, without materialising."""
        size = ENVELOPE_BYTES + 16 + 8 * len(self.exits)
        for fields in self.enters.values():
            size += 8 + len(fields) * (VALUE_BYTES + 4)
        for fields in self.updates.values():
            size += 8 + len(fields) * (VALUE_BYTES + 4)
        return size


class SendQueue:
    """One session's outbound frame queue plus its backpressure state."""

    __slots__ = (
        "config", "transport", "_frames", "_queued_bytes", "_pending",
        "_behind", "behind_ticks", "next_seq", "deltas_sent",
        "deltas_coalesced", "frames_sent", "bytes_sent", "evicted_reason",
        "_flushed_delta_tick",
    )

    def __init__(self, transport: Any, config: BackpressureConfig | None = None):
        self.config = config or BackpressureConfig()
        self.transport = transport
        # Each queued frame remembers the delta tick it carries (None
        # for control messages) so flush can report the newest world
        # state that actually reached the transport — the causal
        # tracker's "this delta answers that request" signal.
        self._frames: deque[tuple[bytes, int | None]] = deque()
        self._flushed_delta_tick: int | None = None
        self._queued_bytes = 0
        self._pending: _PendingDelta | None = None
        self._behind = False
        self.behind_ticks = 0
        self.next_seq = 0
        self.deltas_sent = 0
        self.deltas_coalesced = 0
        self.frames_sent = 0
        self.bytes_sent = 0
        self.evicted_reason: str | None = None

    # -- state ---------------------------------------------------------------------

    def backlog_bytes(self) -> int:
        """Queued frames + coalescing buffer + transport write buffer."""
        pending = self._pending.wire_cost() if self._pending else 0
        return self._queued_bytes + pending + self.transport.buffered_bytes()

    @property
    def behind(self) -> bool:
        """Whether the client is currently marked behind (hysteretic)."""
        return self._behind

    def _refresh_behind(self) -> None:
        backlog = self.backlog_bytes()
        if self._behind:
            if backlog <= self.config.low_watermark:
                self._behind = False
        elif backlog >= self.config.high_watermark:
            self._behind = True

    # -- enqueue -------------------------------------------------------------------

    def offer(self, msg: Any) -> bool:
        """Queue a control message (welcome, pong, goodbye, acks, events).

        Never raises into the caller: a message that cannot be framed —
        over ``MAX_FRAME_BYTES``, or carrying an unencodable payload — is
        dropped and marks this session ``evicted:oversize``, which
        :meth:`note_tick` reports exactly as for an unsplittable delta.
        Returns whether the message was queued.
        """
        try:
            data = frame(msg)
        except NetError:
            self.evicted_reason = "evicted:oversize"
            return False
        self._frames.append((data, None))
        self._queued_bytes += len(data)
        return True

    def offer_delta(self, delta: Delta, texts: EntryTexts | None = None) -> None:
        """Queue one tick's delta, coalescing while the client is behind.

        ``texts`` is the stream's entry memo for the current tick (see
        ``Delta.wire_body``); a delta emitted right away splices it.
        """
        if delta.change_count() == 0:
            return
        self._refresh_behind()
        if self._behind or self._pending is not None:
            if self._pending is None:
                self._pending = _PendingDelta()
            self._pending.merge(delta)
            self.deltas_coalesced += 1
            return
        self._emit_delta(delta, texts)

    def _emit_delta(self, delta: Delta, texts: EntryTexts | None = None) -> None:
        try:
            data = frame_encoded(delta.encode_as(self.next_seq, texts))
        except GatewayError:
            self._emit_oversize(delta)
            return
        self.next_seq += 1
        self._frames.append((data, delta.tick))
        self._queued_bytes += len(data)
        self.deltas_sent += 1

    def _emit_oversize(self, delta: Delta) -> None:
        """Split a delta too big for one frame into frameable parts.

        A dense world seen through a large AOI radius (the initial
        enter burst) or a long-behind client's coalesced catch-up can
        legitimately exceed the frame cap; raising here would escape
        the shared tick loop and stop the gateway for *every* client.
        Halving by change count terminates: each part is strictly
        smaller, and a single change that still cannot fit marks this
        session for eviction (``note_tick`` reports it) instead.
        """
        tagged = (
            [("enter", item) for item in delta.enters]
            + [("update", item) for item in delta.updates]
            + [("exit", eid) for eid in delta.exits]
        )
        if len(tagged) <= 1:
            self.evicted_reason = "evicted:oversize"
            return
        mid = len(tagged) // 2
        # The first part carries the coalesced count so the client
        # still learns it missed intermediate states exactly once.
        for part, coalesced in (
            (tagged[:mid], delta.coalesced), (tagged[mid:], 0),
        ):
            self._emit_delta(Delta(
                tick=delta.tick,
                seq=0,
                enters=tuple(i for kind, i in part if kind == "enter"),
                updates=tuple(i for kind, i in part if kind == "update"),
                exits=tuple(i for kind, i in part if kind == "exit"),
                coalesced=coalesced,
            ))

    # -- flush + tick bookkeeping ----------------------------------------------------

    def flush(self) -> int:
        """Write queued frames into the transport; returns bytes written.

        Writing stops at the transport's ``drain_watermark`` so a stuck
        socket keeps its bytes here (still coalescible) instead of in
        an unbounded kernel buffer.  A caught-up client's pending
        coalesced delta is promoted and flushed in the same pass.
        """
        if self.transport.closed:
            return 0
        written = 0
        while self._frames:
            if self.transport.buffered_bytes() >= self.config.drain_watermark:
                break
            data, delta_tick = self._frames.popleft()
            self._queued_bytes -= len(data)
            self.transport.send(data)
            written += len(data)
            self.frames_sent += 1
            if delta_tick is not None and (
                self._flushed_delta_tick is None
                or delta_tick > self._flushed_delta_tick
            ):
                self._flushed_delta_tick = delta_tick
        self.bytes_sent += written
        if self._pending is not None and not self._frames:
            self._refresh_behind()
            if not self._behind:
                pending, self._pending = self._pending, None
                self._emit_delta(pending.to_delta(0))
                written += self.flush()
        return written

    def take_flushed_delta_tick(self) -> int | None:
        """Newest delta tick flushed since the last call (then cleared).

        ``None`` means no delta reached the transport — control frames
        and still-queued deltas do not count.  The gateway core reads
        this after each per-tick flush to complete pending requests.
        """
        tick, self._flushed_delta_tick = self._flushed_delta_tick, None
        return tick

    def note_tick(self) -> str | None:
        """Advance per-tick eviction bookkeeping; returns an evict reason.

        Call once per gateway tick after :meth:`flush`.  ``None`` means
        the session stays; otherwise the returned string is the
        ``Goodbye`` reason (``"evicted:slow"`` / ``"evicted:overflow"``
        / ``"evicted:oversize"``).
        """
        if self.evicted_reason is not None:
            return self.evicted_reason
        backlog = self.backlog_bytes()
        if backlog > self.config.max_queue_bytes:
            self.evicted_reason = "evicted:overflow"
            return self.evicted_reason
        self._refresh_behind()
        if self._behind:
            self.behind_ticks += 1
            if self.behind_ticks >= self.config.evict_behind_ticks:
                self.evicted_reason = "evicted:slow"
                return self.evicted_reason
        else:
            self.behind_ticks = 0
        return None
