"""Length-prefixed framing for canonical TLV payloads on byte streams.

TCP delivers a byte stream; the protocol speaks in messages.  A frame is
a 4-byte big-endian payload length followed by the payload — one
canonically-encoded value sequence (:mod:`repro.common.encoding`).  The
peer is the *untrusted server* of the paper's model, so the reader
enforces a hard size bound before buffering (``OversizedFrameError``)
and reports streams that end mid-frame as ``TruncatedFrameError`` —
the same typed errors the codec itself raises for hostile input, so
transport code has exactly one failure vocabulary.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Callable

from repro.common.errors import OversizedFrameError, TruncatedFrameError

#: Hard upper bound on a frame payload.  Generously above any legitimate
#: USTOR message (replies grow with ``n``, not with history), far below
#: anything that could exhaust memory.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct(">I")
LENGTH_PREFIX_BYTES = _LEN.size


def encode_frame(payload: bytes, *, max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Wrap an encoded payload in its length prefix."""
    if len(payload) > max_bytes:
        raise OversizedFrameError(
            f"frame payload is {len(payload)} bytes (limit {max_bytes})"
        )
    return _LEN.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental frame extractor: the read path of both socket ends.

    Feed it chunks in any fragmentation; it cuts complete payloads in
    order.  State between calls is just the undecoded tail, and what a
    peer gets out of a stream does not depend on how TCP segmented it:
    frames in front of a bad one are delivered, frames behind it never.
    """

    def __init__(self, *, max_bytes: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self._max_bytes = max_bytes

    def feed(
        self, chunk: bytes, deliver: Callable[[bytes], None] | None = None
    ) -> list[bytes]:
        """Cut every frame ``chunk`` completes; return them, or hand each
        to ``deliver`` as it is cut (then whatever ``deliver`` raises stops
        the walk with the frame it rejected consumed and the rest unread).

        A length prefix over the limit raises :class:`OversizedFrameError`
        as soon as its four bytes are in — nothing of that frame's payload
        is waited for, so the buffer never holds more than one legitimate
        frame plus one chunk.
        """
        buffer = self._buffer
        buffer += chunk
        frames: list[bytes] = []
        if deliver is None:
            deliver = frames.append
        available = len(buffer)
        offset = 0
        try:
            while available - offset >= LENGTH_PREFIX_BYTES:
                (length,) = _LEN.unpack_from(buffer, offset)
                if length > self._max_bytes:
                    raise OversizedFrameError(
                        f"peer declared a {length}-byte frame "
                        f"(limit {self._max_bytes})"
                    )
                start = offset + LENGTH_PREFIX_BYTES
                end = start + length
                if end > available:
                    break
                offset = end
                deliver(bytes(buffer[start:end]))
        finally:
            if offset:
                del buffer[:offset]
        return frames

    def eof(self) -> None:
        """The stream ended: fine at a frame boundary, a truncation inside
        a frame — the same verdict :func:`read_frame` gives, so a peer
        cannot make a half-message look like an orderly shutdown."""
        if self._buffer:
            raise TruncatedFrameError(
                f"stream ended inside a frame "
                f"({len(self._buffer)} byte(s) pending)"
            )

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)


async def read_frame(
    reader: asyncio.StreamReader, *, max_bytes: int = MAX_FRAME_BYTES
) -> bytes | None:
    """Read one frame payload; ``None`` on clean EOF at a frame boundary.

    EOF *inside* a frame (after the prefix started) is a truncation and
    raises :class:`TruncatedFrameError` — a peer must not be able to make
    a half-message look like an orderly shutdown.
    """
    try:
        prefix = await reader.readexactly(LENGTH_PREFIX_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise TruncatedFrameError(
            f"stream ended inside a frame length prefix "
            f"({len(exc.partial)}/{LENGTH_PREFIX_BYTES} bytes)"
        ) from exc
    (length,) = _LEN.unpack(prefix)
    if length > max_bytes:
        raise OversizedFrameError(
            f"peer declared a {length}-byte frame (limit {max_bytes})"
        )
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise TruncatedFrameError(
            f"stream ended inside a frame payload "
            f"({len(exc.partial)}/{length} bytes)"
        ) from exc
