"""Protocol messages <-> frame payloads.

One frame payload is one canonically encoded tuple whose first element
names the record::

    ("HELLO",      client_id, num_clients)     client -> server, once
    ("WELCOME",    server_name, num_clients)   server -> client, once
    ("SUBMIT",     <submit tuple>)             repro.store.codec shapes
    ("COMMIT",     <commit tuple>)
    ("REPLY",      <reply tuple>)
    ("CHECKPOINT", (seq, cut, signatures))     client -> server, one-way

Reusing :mod:`repro.store.codec` for the message bodies means the wire
format *is* the durable-state format: whatever the WAL can persist, the
socket can carry, and a recorded frame decodes with the same validation
a WAL record gets (malformed input from a Byzantine server raises
:class:`~repro.common.errors.EncodingError`, never half-builds a
message).

A REPLY travels in the form Algorithm 1 reads it: ``P`` as the
PROOF-signatures of ``L``'s distinct submitters, in ``L`` order, and a
back-reference where ``SVER[j]`` is ``SVER[c]`` (see
:func:`~repro.store.codec.reply_to_tuple`); the decoder rebuilds the
``n``-slot message and refuses a proof list that does not match ``L``.

A COMMIT to a lone server carries its operation's timestamp ``t``
where the version would go — the server folds ``(V_i, M_i)`` from the
REPLY it sent — and a replica group's carries the version (see
:class:`~repro.ustor.messages.CommitMessage`).

A read SUBMIT whose value will not be used (a FAUST dummy read) asks
for ``MEM[j]`` in digest form with ``True`` in its value slot, and its
REPLY carries ``(H(x),)`` in ``MEM[j]``'s value slot when the value is
longer than that (:meth:`~repro.ustor.messages.MemEntry.digest_form`).

Each record has one shape: SUBMIT 5 elements, COMMIT 3, REPLY 6 (7
with a counter attestation), CHECKPOINT 3.  No causal trace id travels:
it is a pure function of the SUBMIT's client id and timestamp, so
whoever emits a span derives it (:func:`repro.obs.tracing.make_trace_id`).
"""

from __future__ import annotations

from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError
from repro.common.types import OpKind
from repro.net.framing import MAX_FRAME_BYTES
from repro.store import codec
from repro.ustor.messages import CheckpointMessage, CommitMessage, ReplyMessage, SubmitMessage

ProtocolMessage = SubmitMessage | CommitMessage | ReplyMessage | CheckpointMessage

#: Each message record's body codec: ``(to_tuple, from_tuple)``.
_BODY = {
    "SUBMIT": (codec.submit_request_to_tuple, codec.submit_request_from_tuple),
    "COMMIT": (codec.commit_to_tuple, codec.commit_from_tuple),
    "REPLY": (codec.reply_to_tuple, codec.reply_from_tuple),
    "CHECKPOINT": (codec.checkpoint_to_tuple, codec.checkpoint_from_tuple),
}


def message_to_payload(message: ProtocolMessage) -> bytes:
    """Encode one protocol message as a frame payload."""
    try:
        to_tuple = _BODY[message.kind][0]
    except (KeyError, AttributeError):
        raise EncodingError(f"not a wire message: {message!r}") from None
    return encode((message.kind, to_tuple(message)))


def hello_payload(client_id: int, num_clients: int) -> bytes:
    return encode(("HELLO", client_id, num_clients))


def welcome_payload(server_name: str, num_clients: int) -> bytes:
    return encode(("WELCOME", server_name, num_clients))


def decode_payload(
    payload: bytes, *, max_bytes: int = MAX_FRAME_BYTES
) -> tuple:
    """Decode a frame payload into its ``(kind, ...)`` record tuple."""
    values = decode(payload, enums=(OpKind,), max_bytes=max_bytes)
    if len(values) != 1:
        raise EncodingError(
            f"frame payload must hold exactly one record, got {len(values)}"
        )
    record = values[0]
    if not isinstance(record, tuple) or not record or not isinstance(record[0], str):
        raise EncodingError(f"malformed frame record: {record!r}")
    return record


def payload_to_message(payload: bytes) -> ProtocolMessage:
    """Decode a SUBMIT/COMMIT/REPLY/CHECKPOINT payload into its message."""
    record = decode_payload(payload)
    kind = record[0]
    try:
        from_tuple = _BODY[kind][1]
    except KeyError:
        raise EncodingError(f"unknown wire message kind: {kind!r}") from None
    if len(record) != 2:
        raise EncodingError(f"malformed {kind} record: {record!r}")
    return from_tuple(record[1])
