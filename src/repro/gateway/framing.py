"""Length-prefixed framing over the shared wire codec.

A frame is a 4-byte big-endian length followed by one encoded message
(:func:`repro.net.protocol.encode`).  :class:`FrameDecoder` is the
incremental inverse: feed it arbitrary byte chunks — as delivered by a
socket — and it yields complete decoded messages, holding partial
frames across calls.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.errors import GatewayError
from repro.net.protocol import decode, encode

#: Byte length of the frame header (big-endian u32 payload length).
HEADER_BYTES = 4
#: Upper bound on a single frame's payload, a corruption tripwire.
MAX_FRAME_BYTES = 1 << 20

_HEADER = struct.Struct(">I")


def frame(msg: Any) -> bytes:
    """Encode one message as a length-prefixed frame."""
    return frame_encoded(encode(msg))


def frame_encoded(payload: bytes) -> bytes:
    """Length-prefix one already-encoded message (``Delta.encode_as``)."""
    if len(payload) > MAX_FRAME_BYTES:
        raise GatewayError(
            f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return _HEADER.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental frame parser for one connection.

    ``feed`` never raises on a *partial* frame — only on corrupt input
    (oversized length prefix), which callers treat as a protocol
    violation and close the connection.
    """

    __slots__ = ("_buffer", "frames_decoded", "bytes_fed")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.frames_decoded = 0
        self.bytes_fed = 0

    def feed(self, data: bytes) -> list[Any]:
        """Absorb a chunk; return every message completed by it."""
        self.bytes_fed += len(data)
        self._buffer.extend(data)
        out: list[Any] = []
        while True:
            if len(self._buffer) < HEADER_BYTES:
                break
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise GatewayError(
                    f"frame header claims {length} bytes "
                    f"(max {MAX_FRAME_BYTES}); stream corrupt"
                )
            end = HEADER_BYTES + length
            if len(self._buffer) < end:
                break
            payload = bytes(self._buffer[HEADER_BYTES:end])
            del self._buffer[:end]
            out.append(decode(payload))
            self.frames_decoded += 1
        return out

    def pending_bytes(self) -> int:
        """Bytes buffered waiting for the rest of a frame."""
        return len(self._buffer)
