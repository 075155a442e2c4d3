"""Length-prefixed framing for canonical TLV payloads on byte streams.

TCP delivers a byte stream; the protocol speaks in messages.  A frame is
a 4-byte big-endian payload length followed by the payload — one
canonically-encoded value sequence (:mod:`repro.common.encoding`).  The
peer is the *untrusted server* of the paper's model, so the reader
enforces a hard size bound before buffering (``OversizedFrameError``)
and reports streams that end mid-frame as ``TruncatedFrameError`` —
the same typed errors the codec itself raises for hostile input, so
transport code has exactly one failure vocabulary.  :class:`FrameLink`
is the socket end of the server's and the client's connections alike.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Callable

from repro.common.errors import (
    DecodeError,
    EncodingError,
    OversizedFrameError,
    ProtocolError,
    TruncatedFrameError,
)

#: Hard upper bound on a frame payload.  Generously above any legitimate
#: USTOR message (replies grow with ``n``, not with history), far below
#: anything that could exhaust memory.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct(">I")
LENGTH_PREFIX_BYTES = _LEN.size

#: One socket read; a larger frame takes several (the decoder keeps the tail).
_READ_BYTES = 65536


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
        as soon as its four bytes are in, so the buffer never holds more
        than one legitimate frame plus one chunk.
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
        a frame — a peer cannot make a half-message look like a shutdown."""
        if self._buffer:
            raise TruncatedFrameError(
                f"stream ended inside a frame "
                f"({len(self._buffer)} byte(s) pending)"
            )

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)


class FrameLink(asyncio.BufferedProtocol):
    """One socket end, the server's or the client's: the read buffer, the
    decoder, and :meth:`send`, the one place a frame is written.

    The loop reads each segment into the link's one 64 KiB buffer and
    calls :meth:`buffer_updated` from its own read callback: no Task,
    Future or timer per frame, and no fresh buffer per read (a plain
    ``Protocol``'s 256 KiB each cost page faults; PERFORMANCE.md).  A frame
    that does not decode or that :meth:`frame_received` refuses, and a
    stream that ends inside a frame, close this link's transport and
    nothing else, once :meth:`frame_refused` heard why.  Each connection
    starts a fresh decoder, so one link may serve several in turn.
    """

    def __init__(self, *, max_bytes: int = MAX_FRAME_BYTES) -> None:
        self._max_bytes = max_bytes
        self._buffer = memoryview(bytearray(_READ_BYTES))
        self.transport: asyncio.Transport | None = None

    def connection_made(self, transport) -> None:
        self.transport = transport
        self._decoder = FrameDecoder(max_bytes=self._max_bytes)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._buffer

    def buffer_updated(self, nbytes: int) -> None:
        try:
            self._decoder.feed(self._buffer[:nbytes], self.frame_received)
        except (DecodeError, EncodingError, ProtocolError) as exc:
            self.frame_refused(exc)
            self.transport.close()

    def eof_received(self) -> None:
        try:
            self._decoder.eof()  # then returning None closes the transport
        except TruncatedFrameError as exc:
            self.frame_refused(exc)

    def send(self, payload: bytes) -> bool:
        """Write one frame; ``False`` once the transport is gone or closing."""
        if self.transport is None or self.transport.is_closing():
            return False
        self.transport.write(encode_frame(payload, max_bytes=self._max_bytes))
        return True

    def frame_received(self, payload: bytes) -> None:
        raise NotImplementedError

    def frame_refused(self, error: Exception) -> None:
        """Why the transport is about to close (ignored by default)."""


# No caller in the library: benchmarks/e2e/tracing.py names it in TARGETS.
async def read_frame(
    reader: asyncio.StreamReader, *, max_bytes: int = MAX_FRAME_BYTES
) -> bytes | None:
    """Read one frame payload from a stream: ``None`` on EOF at a frame
    boundary, :class:`TruncatedFrameError` on EOF inside a frame."""
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
