"""Exception hierarchy for the FAUST reproduction.

Every error raised by this library derives from :class:`ReproError`, so
applications can catch library failures with a single ``except`` clause.
Protocol-level *detections* (a client noticing server misbehaviour) are not
exceptions: they are delivered through the ``fail_i`` notification channel,
because the paper models them as output actions, not control-flow faults.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError, ValueError):
    """A component was constructed or wired with invalid parameters (a
    :class:`ValueError`, for callers that validate the standard way)."""


class EncodingError(ReproError):
    """A value could not be canonically encoded for signing or hashing."""


class DecodeError(EncodingError):
    """Bytes received from an untrusted source failed to decode.

    The canonical codec doubles as the wire format of the real transport
    (:mod:`repro.net`), where the peer is the *untrusted server* of the
    paper's model: malformed input is an expected hostile act, not a
    programming error.  Subclasses distinguish the two failure shapes a
    socket reader must treat differently — input that ended too early
    (:class:`TruncatedFrameError`, possibly just a short read) and input
    that claims to be larger than the reader is willing to buffer
    (:class:`OversizedFrameError`, a resource-exhaustion attempt)."""


class TruncatedFrameError(DecodeError):
    """The input ended before a complete value/frame was decoded."""


class OversizedFrameError(DecodeError):
    """A frame or value declared a size above the configured maximum."""


class CryptoError(ReproError):
    """A cryptographic operation failed (unknown key, malformed signature)."""


class UnknownSignerError(CryptoError):
    """A signature was requested for or attributed to an unknown client."""


class StorageError(ReproError):
    """The durable storage engine hit corrupt or inconsistent on-disk state.

    A *torn WAL tail* (the expected artifact of crashing mid-append) is not
    an error — recovery stops at it; a corrupt snapshot is, because
    snapshots are written atomically and must never be half-present.
    """


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class ChannelError(SimulationError):
    """A message was sent over a link that does not exist or is mis-wired."""


class ProtocolError(ReproError):
    """A protocol state machine was driven outside its contract.

    This signals a *local* usage bug (e.g. invoking a second operation while
    one is pending on the same client), never remote misbehaviour: remote
    misbehaviour is reported via fail notifications per the paper.
    """


class HistoryError(ReproError):
    """A recorded history is malformed (e.g. response without invocation)."""


class CheckerError(ReproError):
    """A consistency checker was given input it cannot analyse."""
