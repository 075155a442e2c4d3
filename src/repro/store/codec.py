"""Canonical codec for durable server state.

Serializes the server-side protocol structures — :class:`ServerState` and
everything reachable from it, plus the two state-transition messages the
WAL records — through the same tag-length-value encoding the protocol
already signs with (:mod:`repro.common.encoding`).  One codec, three
consumers:

* the log-structured engine's WAL records and snapshots,
* deterministic crash recovery (``decode(encode(state))`` is structurally
  equal to ``state.clone()`` — the *restore-is-clone* equivalence the
  rollback adversary exploits and ``tests/test_store_codec.py`` pins),
* byte-identity checks: two states are equal iff their encodings are.

Every ``*_to_tuple`` function produces plain encodable values (ints,
bytes, ``None``, enums, tuples); every ``*_from_tuple`` validates shape
and raises :class:`EncodingError` on malformed input, so a corrupt WAL
record can never half-build a state object.
"""

from __future__ import annotations

from typing import Any

from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError
from repro.common.types import BOTTOM, ClientId, OpKind
from repro.replica.counter import CounterAttestation
from repro.ustor.messages import (
    CommitMessage,
    InvocationTuple,
    MemEntry,
    ReplyMessage,
    SignedVersion,
    SubmitMessage,
)
from repro.ustor.server import ServerState
from repro.ustor.version import Version


def _shape(value: Any, length: int, what: str) -> tuple:
    if not isinstance(value, tuple) or len(value) != length:
        raise EncodingError(f"malformed {what} encoding: {value!r}")
    return value


def _flex_shape(value: Any, base: int, extra: int, what: str) -> tuple:
    """Shape check for encodings with optional trailing fields.

    Accepts ``base`` to ``base + extra`` elements and pads the missing
    trailing positions with ``None``, so decoders written for the longer
    form read older (shorter) encodings unchanged — how the optional
    trace-id field stays compatible with pre-existing WALs and wire
    traces.
    """
    if not isinstance(value, tuple) or not base <= len(value) <= base + extra:
        raise EncodingError(f"malformed {what} encoding: {value!r}")
    return value + (None,) * (base + extra - len(value))


# --------------------------------------------------------------------- #
# Versions
# --------------------------------------------------------------------- #


def version_to_tuple(version: Version) -> tuple:
    return (version.vector, version.digests)


def version_from_tuple(data: tuple) -> Version:
    vector, digests = _shape(data, 2, "Version")
    return Version(vector=tuple(vector), digests=tuple(digests))


def signed_version_to_tuple(signed: SignedVersion) -> tuple:
    return (version_to_tuple(signed.version), signed.commit_sig)


def signed_version_from_tuple(data: tuple) -> SignedVersion:
    version, commit_sig = _shape(data, 2, "SignedVersion")
    return SignedVersion(version=version_from_tuple(version), commit_sig=commit_sig)


# --------------------------------------------------------------------- #
# MEM entries and invocation tuples
# --------------------------------------------------------------------- #


def mem_entry_to_tuple(entry: MemEntry) -> tuple:
    # BOTTOM (outside the value domain) maps to None; MemEntry.value is
    # never None, so the mapping is unambiguous.
    value = None if entry.value is BOTTOM else entry.value
    return (entry.timestamp, value, entry.data_sig)


def mem_entry_from_tuple(data: tuple) -> MemEntry:
    timestamp, value, data_sig = _shape(data, 3, "MemEntry")
    return MemEntry(
        timestamp=timestamp,
        value=BOTTOM if value is None else value,
        data_sig=data_sig,
    )


def invocation_to_tuple(invocation: InvocationTuple) -> tuple:
    return (
        invocation.client,
        invocation.opcode,
        invocation.register,
        invocation.submit_sig,
    )


def invocation_from_tuple(data: tuple) -> InvocationTuple:
    client, opcode, register, submit_sig = _shape(data, 4, "InvocationTuple")
    if not isinstance(opcode, OpKind):
        raise EncodingError(f"invocation opcode is not an OpKind: {opcode!r}")
    return InvocationTuple(
        client=client, opcode=opcode, register=register, submit_sig=submit_sig
    )


# --------------------------------------------------------------------- #
# The two state-transition messages (WAL record payloads)
# --------------------------------------------------------------------- #


def commit_to_tuple(message: CommitMessage) -> tuple:
    base = (
        version_to_tuple(message.version),
        message.commit_sig,
        message.proof_sig,
    )
    # The trace id is an *optional trailing* element: absent, the bytes
    # are identical to every encoding ever written before it existed.
    if message.trace_id is not None:
        return base + (message.trace_id,)
    return base


def commit_from_tuple(data: tuple) -> CommitMessage:
    version, commit_sig, proof_sig, trace_id = _flex_shape(
        data, 3, 1, "CommitMessage"
    )
    return CommitMessage(
        version=version_from_tuple(version),
        commit_sig=commit_sig,
        proof_sig=proof_sig,
        trace_id=trace_id,
    )


def submit_to_tuple(message: SubmitMessage) -> tuple:
    piggyback = (
        None if message.piggyback is None else commit_to_tuple(message.piggyback)
    )
    base = (
        message.timestamp,
        invocation_to_tuple(message.invocation),
        message.value,
        message.data_sig,
        piggyback,
    )
    if message.trace_id is not None:
        return base + (message.trace_id,)
    return base


def submit_from_tuple(data: tuple) -> SubmitMessage:
    timestamp, invocation, value, data_sig, piggyback, trace_id = _flex_shape(
        data, 5, 1, "SubmitMessage"
    )
    return SubmitMessage(
        timestamp=timestamp,
        invocation=invocation_from_tuple(invocation),
        value=value,
        data_sig=data_sig,
        piggyback=None if piggyback is None else commit_from_tuple(piggyback),
        trace_id=trace_id,
    )


#: The ``reader_version`` slot of a read REPLY whose ``SVER[j]`` is its
#: ``SVER[c]`` (``j = c``): a back-reference, not the version twice.
_SAME_AS_LAST = True


def reply_to_tuple(message: ReplyMessage) -> tuple:
    """The REPLY as it travels: ``P`` cut to the PROOF-signatures of ``L``'s
    distinct submitters (in ``L`` order) and ``SVER[j]`` back-referenced
    when it is ``SVER[c]`` — see :class:`ReplyMessage`.  A REPLY the form
    cannot carry (``P`` not one slot per client, ``L`` naming a client
    outside ``0..n-1``) is an :class:`EncodingError`."""
    last = message.last_version
    proofs = message.proofs
    n = len(last.version.vector)
    if len(proofs) != n:
        raise EncodingError(f"REPLY has {len(proofs)} PROOF slots for {n} clients")
    sent = []
    if message.pending:
        for k in message.submitters():
            if not (isinstance(k, int) and 0 <= k < n):
                raise EncodingError(f"REPLY lists client {k!r} of {n} in L")
            sent.append(proofs[k])
    if message.reader_version is None:
        reader_version = None
    elif message.reader_is_last():
        reader_version = _SAME_AS_LAST
    else:
        reader_version = signed_version_to_tuple(message.reader_version)
    mem = None if message.mem is None else mem_entry_to_tuple(message.mem)
    base = (
        message.commit_index,
        signed_version_to_tuple(last),
        tuple(invocation_to_tuple(inv) for inv in message.pending),
        tuple(sent),
        reader_version,
        mem,
    )
    # Trailing optional fields, oldest first so old decoders still read
    # the prefix: an attestation forces an explicit None trace_id slot.
    if message.attestation is not None:
        return base + (
            message.trace_id,
            attestation_to_tuple(message.attestation),
        )
    if message.trace_id is not None:
        return base + (message.trace_id,)
    return base


def reply_from_tuple(data: tuple) -> ReplyMessage:
    (
        commit_index,
        last_version,
        pending,
        proofs,
        reader_version,
        mem,
        trace_id,
        attestation,
    ) = _flex_shape(data, 6, 2, "ReplyMessage")
    last = signed_version_from_tuple(last_version)
    n = len(last.version.vector)
    if not isinstance(pending, tuple) or not isinstance(proofs, tuple):
        raise EncodingError(f"malformed REPLY L/P encoding: {pending!r}, {proofs!r}")
    # One pass over L: decode each entry and, at a submitter's first
    # appearance, put the next sent PROOF-signature into its slot.
    entries = []
    slots: list = [None] * n
    seen = set()
    for raw in pending:
        entry = invocation_from_tuple(raw)
        entries.append(entry)
        k = entry.client
        if k in seen:
            continue
        if not (isinstance(k, int) and 0 <= k < n) or len(seen) == len(proofs):
            raise EncodingError(
                f"REPLY lists client {k!r} of {n} in L with {len(proofs)} proofs"
            )
        slots[k] = proofs[len(seen)]
        seen.add(k)
    if len(seen) != len(proofs):
        raise EncodingError(
            f"REPLY carries {len(proofs)} proofs for {len(seen)} submitters in L"
        )
    if reader_version is _SAME_AS_LAST:
        if mem is None:
            raise EncodingError("REPLY back-references SVER[c] without MEM[j]")
        reader = last
    elif reader_version is None:
        reader = None
    else:
        reader = signed_version_from_tuple(reader_version)
    return ReplyMessage(
        commit_index=commit_index,
        last_version=last,
        pending=tuple(entries),
        proofs=tuple(slots),
        reader_version=reader,
        mem=None if mem is None else mem_entry_from_tuple(mem),
        trace_id=trace_id,
        attestation=(
            None if attestation is None else attestation_from_tuple(attestation)
        ),
    )


def attestation_to_tuple(attestation: CounterAttestation) -> tuple:
    return (
        attestation.counter_id,
        attestation.value,
        attestation.state_value,
        attestation.binding,
        attestation.mac,
    )


def attestation_from_tuple(data: tuple) -> CounterAttestation:
    counter_id, value, state_value, binding, mac = _shape(
        data, 5, "CounterAttestation"
    )
    return CounterAttestation(
        counter_id=counter_id,
        value=value,
        state_value=state_value,
        binding=binding,
        mac=mac,
    )


# --------------------------------------------------------------------- #
# ServerState
# --------------------------------------------------------------------- #


def state_to_tuple(state: ServerState) -> tuple:
    base = (
        state.num_clients,
        tuple(mem_entry_to_tuple(entry) for entry in state.mem),
        state.commit_index,
        tuple(signed_version_to_tuple(signed) for signed in state.sver),
        tuple(invocation_to_tuple(inv) for inv in state.pending),
        tuple(state.proofs),
    )
    # Optional trailing fields, oldest first: a state that never counted a
    # SUBMIT encodes exactly as it did before either field existed, and a
    # non-empty pending list (which implies submits_applied > 0) carries
    # its per-entry submit timestamps for checkpoint truncation.
    if state.pending:
        return base + (state.submits_applied, tuple(state.pending_ts))
    if state.submits_applied:
        return base + (state.submits_applied,)
    return base


def state_from_tuple(data: tuple) -> ServerState:
    num_clients, mem, commit_index, sver, pending, proofs, submits, pending_ts = (
        _flex_shape(data, 6, 2, "ServerState")
    )
    if pending_ts is None:
        # Legacy snapshot: entry ages unknown — the None sentinel keeps
        # apply_checkpoint from ever truncating them.
        pending_ts = (None,) * len(pending)
    elif len(pending_ts) != len(pending):
        raise EncodingError(
            f"ServerState pending_ts length {len(pending_ts)} does not "
            f"match pending length {len(pending)}"
        )
    return ServerState(
        num_clients=num_clients,
        mem=[mem_entry_from_tuple(entry) for entry in mem],
        commit_index=commit_index,
        sver=[signed_version_from_tuple(signed) for signed in sver],
        pending=[invocation_from_tuple(inv) for inv in pending],
        proofs=list(proofs),
        submits_applied=submits or 0,
        pending_ts=list(pending_ts),
    )


# --------------------------------------------------------------------- #
# Byte-level convenience
# --------------------------------------------------------------------- #


def decode_payload(data: bytes) -> tuple:
    """Decode one canonical payload (enum-aware); returns the value tuple."""
    return decode(data, enums=(OpKind,))


def encode_server_state(state: ServerState) -> bytes:
    """The canonical byte form of a server state: equal states, equal bytes."""
    return encode(state_to_tuple(state))


def decode_server_state(data: bytes) -> ServerState:
    (state_tuple,) = decode_payload(data)
    return state_from_tuple(state_tuple)


def encode_wal_submit(seq: int, message: SubmitMessage) -> bytes:
    return encode(("S", seq, submit_to_tuple(message)))


def encode_wal_commit(seq: int, client: ClientId, message: CommitMessage) -> bytes:
    return encode(("C", seq, client, commit_to_tuple(message)))


def encode_wal_checkpoint(seq: int, cut: tuple[int, ...]) -> bytes:
    """A durable checkpoint record: the certified stable cut at ``seq``.

    Replay re-runs :func:`~repro.ustor.server.apply_checkpoint` under the
    same defensive bound, so a recovered server converges to the same
    truncated pending list whether or not the post-checkpoint snapshot
    survived.
    """
    return encode(("K", seq, tuple(cut)))


def encode_wal_batch(entries: tuple) -> bytes:
    """One group-commit record: several WAL entries under a single frame.

    ``entries`` are the inner tuples of :func:`encode_wal_submit` /
    :func:`encode_wal_commit` (``("S", seq, ...)`` / ``("C", seq, ...)``),
    in application order.  Framing the whole batch as one record gives the
    batch a single commit point: a torn tail drops it atomically, never a
    prefix of it.
    """
    return encode(("B", entries))


def encode_snapshot(covered_seq: int, state: ServerState) -> bytes:
    return encode(("SNAP", covered_seq, state_to_tuple(state)))
