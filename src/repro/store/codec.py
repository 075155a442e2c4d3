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

Each record has exactly one shape — no optional trailing elements, no
padding for what an older build wrote: SUBMIT 5 elements, COMMIT 3,
REPLY 6 (7 when it carries a counter attestation; each version slot a
signed version, a relative one, or the population ``n`` in own form;
``MEM[j]``'s value slot a value, ``None`` for ``BOTTOM``, or ``(H(x),)``
in digest form), ``ServerState`` 9.  On the wire only, a read SUBMIT
that asks for ``MEM[j]`` in digest form holds ``True`` where a read's
value slot holds ``None`` (:func:`submit_request_to_tuple`); the WAL
never logs the request.
What another build wrote is refused, not migrated.
"""

from __future__ import annotations

from typing import Any

from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError
from repro.common.types import BOTTOM, OpKind
from repro.crypto.hashing import HASH_BYTES
from repro.replica.counter import CounterAttestation
from repro.ustor.messages import (
    OWN_FORM_MAX_CLIENTS,
    CheckpointMessage,
    CommitMessage,
    InvocationTuple,
    MemEntry,
    RelativeVersion,
    ReplyMessage,
    SignedVersion,
    SubmitMessage,
    ValueDigest,
)
from repro.ustor.server import ServerState
from repro.ustor.version import Version


def _shape(value: Any, length: int, what: str) -> tuple:
    if not isinstance(value, tuple) or len(value) != length:
        raise EncodingError(f"malformed {what} encoding: {value!r}")
    return value


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
    # never None, so the mapping is unambiguous.  A value is never a
    # tuple either, so neither is the digest form's ``(H(x),)``.
    value = entry.value
    if value is BOTTOM:
        value = None
    elif type(value) is ValueDigest:
        value = (value.digest,)
    return (entry.timestamp, value, entry.data_sig)


def mem_entry_from_tuple(data: tuple) -> MemEntry:
    timestamp, value, data_sig = _shape(data, 3, "MemEntry")
    if value is None:
        value = BOTTOM
    elif isinstance(value, tuple):
        (digest,) = _shape(value, 1, "value digest")
        if not isinstance(digest, bytes) or len(digest) != HASH_BYTES:
            raise EncodingError(f"a value digest is not {HASH_BYTES} bytes: {digest!r}")
        value = ValueDigest(digest)
    return MemEntry(timestamp=timestamp, value=value, data_sig=data_sig)


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
    """``(what, phi, psi)``: ``what`` is the version, or — for a COMMIT to a
    lone server, which folds the version itself — the operation's
    timestamp ``t`` (see :class:`CommitMessage`)."""
    version = message.version
    return (
        message.timestamp if version is None else version_to_tuple(version),
        message.commit_sig,
        message.proof_sig,
    )


def commit_from_tuple(data: tuple) -> CommitMessage:
    what, commit_sig, proof_sig = _shape(data, 3, "CommitMessage")
    if isinstance(what, int):
        return CommitMessage(None, commit_sig, proof_sig, timestamp=what)
    return CommitMessage(version_from_tuple(what), commit_sig, proof_sig)


def submit_to_tuple(message: SubmitMessage) -> tuple:
    piggyback = (
        None if message.piggyback is None else commit_to_tuple(message.piggyback)
    )
    return (
        message.timestamp,
        invocation_to_tuple(message.invocation),
        message.value,
        message.data_sig,
        piggyback,
    )


def submit_from_tuple(data: tuple) -> SubmitMessage:
    timestamp, invocation, value, data_sig, piggyback = _shape(
        data, 5, "SubmitMessage"
    )
    return SubmitMessage(
        timestamp=timestamp,
        invocation=invocation_from_tuple(invocation),
        value=value,
        data_sig=data_sig,
        piggyback=None if piggyback is None else commit_from_tuple(piggyback),
    )


#: A read SUBMIT's value slot on the wire when it asks for ``MEM[j]`` in
#: digest form; a plain read's holds ``None`` (``BOTTOM``).
_DIGEST_REQUEST = True


def submit_request_to_tuple(message: SubmitMessage) -> tuple:
    """The SUBMIT as it travels: :func:`submit_to_tuple`, with
    ``True`` in a read's value slot when it asks for ``MEM[j]`` in digest
    form."""
    data = submit_to_tuple(message)
    if not message.digest_only:
        return data
    timestamp, invocation, _value, data_sig, piggyback = data
    return (timestamp, invocation, _DIGEST_REQUEST, data_sig, piggyback)


def submit_request_from_tuple(data: Any) -> SubmitMessage:
    """The inverse of :func:`submit_request_to_tuple`; the request on a
    write is an :class:`EncodingError`."""
    message = submit_from_tuple(data)
    if message.value is not _DIGEST_REQUEST:
        return message
    if message.invocation.opcode is not OpKind.READ:
        raise EncodingError("a write SUBMIT asks for a value digest")
    return SubmitMessage(
        message.timestamp,
        message.invocation,
        None,
        message.data_sig,
        message.piggyback,
        digest_only=True,
    )


#: The ``reader_version`` slot of a read REPLY whose ``SVER[j]`` is its
#: ``SVER[c]`` (``j = c``): a back-reference, not the version twice.
_SAME_AS_LAST = True


def _slot_to_tuple(slot: SignedVersion | RelativeVersion) -> tuple | int:
    """A version slot: ``(version, sig)`` in full, ``(same, changed, sig)``
    relative, the population ``n`` in own form."""
    if type(slot) is RelativeVersion:
        if slot.is_own():
            return slot.num_clients
        return (slot.same, slot.changed, slot.commit_sig)
    return signed_version_to_tuple(slot)


def _slot_from_tuple(data: Any, n: int | None) -> tuple:
    """The version slot ``data`` encodes and its population; a relative or
    own-form slot must have population ``n`` when that is known."""
    if type(data) is int:
        count = data
    elif isinstance(data, tuple) and len(data) == 3:
        same, changed, sig = data
        if type(same) is not int or same < 0 or not isinstance(changed, tuple):
            raise EncodingError(f"malformed relative version: {data!r}")
        if not changed and sig is None:
            raise EncodingError("a relative version in own form, not as n")
        count = same.bit_count() + len(changed) // 2
        if len(changed) % 2 or same.bit_length() > count:
            raise EncodingError(f"relative version names entries past its {count}")
        if not all(isinstance(v, int) and v >= 0 for v in changed[::2]):
            raise EncodingError(f"relative version carries a bad V entry: {data!r}")
    else:
        slot = signed_version_from_tuple(data)
        return slot, len(slot.version.vector)
    if not 1 <= count <= OWN_FORM_MAX_CLIENTS or (n is not None and count != n):
        raise EncodingError(f"relative REPLY names a population of {count}, not {n}")
    if type(data) is int:
        return RelativeVersion.own(count), count
    return RelativeVersion(same, changed, sig), count


def reply_to_tuple(message: ReplyMessage) -> tuple:
    """The REPLY as it travels: ``P`` cut to the PROOF-signatures of ``L``'s
    distinct submitters (in ``L`` order), ``SVER[j]`` back-referenced
    when it is ``SVER[c]``, each version slot in full, relative or own
    form — see :class:`ReplyMessage` — and a counter attestation, when
    there is one, as a seventh element.  A REPLY the form cannot carry
    (``P`` not one slot per client, ``L`` naming a client outside
    ``0..n-1``) is an :class:`EncodingError`."""
    last = message.last_version
    proofs = message.proofs
    n = last.num_clients if type(last) is RelativeVersion else len(last.version.vector)
    if len(proofs) != n:
        raise EncodingError(f"REPLY has {len(proofs)} PROOF slots for {n} clients")
    sent = []
    if message.pending:
        for k in message.submitters():
            if not (isinstance(k, int) and 0 <= k < n):
                raise EncodingError(f"REPLY lists client {k!r} of {n} in L")
            sent.append(proofs[k])
    if message.reader_is_last():
        reader_version = _SAME_AS_LAST
    elif message.reader_version is None:
        reader_version = None
    else:
        reader_version = _slot_to_tuple(message.reader_version)
    mem = None if message.mem is None else mem_entry_to_tuple(message.mem)
    base = (
        message.commit_index,
        _slot_to_tuple(last),
        tuple(invocation_to_tuple(inv) for inv in message.pending),
        tuple(sent),
        reader_version,
        mem,
    )
    if message.attestation is not None:
        return base + (attestation_to_tuple(message.attestation),)
    return base


def reply_from_tuple(data: tuple) -> ReplyMessage:
    if isinstance(data, tuple) and len(data) == 7:
        attestation = attestation_from_tuple(data[6])
        data = data[:6]
    else:
        attestation = None
    commit_index, last_version, pending, proofs, reader_version, mem = _shape(
        data, 6, "ReplyMessage"
    )
    last, n = _slot_from_tuple(last_version, None)
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
        reader, _ = _slot_from_tuple(reader_version, n)
    if mem is not None:
        mem = mem_entry_from_tuple(mem)
        if reader is None and type(mem.value) is ValueDigest:
            raise EncodingError("a write REPLY carries a value digest")
    return ReplyMessage(
        commit_index=commit_index,
        last_version=last,
        pending=tuple(entries),
        proofs=tuple(slots),
        reader_version=reader,
        mem=mem,
        attestation=attestation,
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


def _tuple_of(value: Any, kind: type) -> bool:
    """Is ``value`` a tuple of ``kind`` (a checkpoint cut: of ints)?"""
    return isinstance(value, tuple) and all(isinstance(v, kind) for v in value)


def checkpoint_to_tuple(message: CheckpointMessage) -> tuple:
    return (message.seq, message.cut, message.signatures)


def checkpoint_from_tuple(data: tuple) -> CheckpointMessage:
    seq, cut, signatures = _shape(data, 3, "CheckpointMessage")
    if not (
        isinstance(seq, int) and _tuple_of(cut, int) and _tuple_of(signatures, bytes)
    ):
        raise EncodingError(f"malformed CheckpointMessage encoding: {data!r}")
    return CheckpointMessage(seq, cut, signatures)


# --------------------------------------------------------------------- #
# ServerState
# --------------------------------------------------------------------- #


def _expected_to_tuple(entry: tuple[int, Version] | None) -> tuple | None:
    return None if entry is None else (entry[0], version_to_tuple(entry[1]))


def _expected_from_tuple(data: Any) -> tuple[int, Version] | None:
    if data is None:
        return None
    timestamp, version = _shape(data, 2, "expected version")
    if not isinstance(timestamp, int):
        raise EncodingError(f"malformed expected version: {data!r}")
    return (timestamp, version_from_tuple(version))


def state_to_tuple(state: ServerState) -> tuple:
    return (
        state.num_clients,
        tuple(mem_entry_to_tuple(entry) for entry in state.mem),
        state.commit_index,
        tuple(signed_version_to_tuple(signed) for signed in state.sver),
        tuple(invocation_to_tuple(inv) for inv in state.pending),
        tuple(state.proofs),
        state.submits_applied,
        tuple(state.pending_ts),
        tuple(_expected_to_tuple(entry) for entry in state.expected),
    )


def state_from_tuple(data: tuple) -> ServerState:
    (
        num_clients,
        mem,
        commit_index,
        sver,
        pending,
        proofs,
        submits,
        pending_ts,
        expected,
    ) = _shape(data, 9, "ServerState")
    if not (
        isinstance(num_clients, int)
        and all(
            isinstance(v, tuple)
            for v in (mem, sver, pending, proofs, pending_ts, expected)
        )
        and len(mem) == len(sver) == len(proofs) == len(expected) == num_clients
        and len(pending_ts) == len(pending)
        and isinstance(submits, int)
    ):
        raise EncodingError(f"malformed ServerState encoding: {data!r}")
    return ServerState(
        num_clients=num_clients,
        mem=[mem_entry_from_tuple(entry) for entry in mem],
        commit_index=commit_index,
        sver=[signed_version_from_tuple(signed) for signed in sver],
        pending=[invocation_from_tuple(inv) for inv in pending],
        proofs=list(proofs),
        submits_applied=submits,
        pending_ts=list(pending_ts),
        expected=[_expected_from_tuple(entry) for entry in expected],
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


# --------------------------------------------------------------------- #
# WAL records and snapshots
# --------------------------------------------------------------------- #


def wal_entry_to_tuple(seq: int, record: tuple) -> tuple:
    """The WAL entry of server transition number ``seq``: ``record`` is
    ``("S", submit)``, ``("C", client, commit)`` or ``("K", cut)``.  A
    checkpoint entry holds the certified stable cut; replay re-applies it
    under the same defensive bound, so a recovered server converges to the
    same pending list whether or not the post-checkpoint snapshot
    survived."""
    tag = record[0]
    if tag == "S":
        return (tag, seq, submit_to_tuple(record[1]))
    if tag == "C":
        return (tag, seq, record[1], commit_to_tuple(record[2]))
    return (tag, seq, tuple(record[1]))


def encode_wal_record(entries: list[tuple]) -> bytes:
    """One WAL frame's payload: a lone entry as itself, several as one
    group-commit record ``("B", entries)`` in application order — a single
    commit point, so a torn tail drops the batch atomically, never a
    prefix of it."""
    return encode(entries[0] if len(entries) == 1 else ("B", tuple(entries)))


def wal_entries_from_tuple(record: Any) -> list[tuple]:
    """The entries of one decoded WAL record, each with its payload rebuilt:
    ``("S", seq, SubmitMessage)``, ``("C", seq, client, CommitMessage)`` or
    ``("K", seq, cut)``.  A group-commit record yields its entries in
    order; any other shape is an :class:`EncodingError`."""
    if isinstance(record, tuple) and record and record[0] == "B":
        _, entries = _shape(record, 2, "WAL batch")
        if not isinstance(entries, tuple):
            raise EncodingError(f"malformed WAL batch encoding: {record!r}")
        return [_wal_entry_from_tuple(entry) for entry in entries]
    return [_wal_entry_from_tuple(record)]


def _wal_entry_from_tuple(entry: Any) -> tuple:
    tag = entry[0] if isinstance(entry, tuple) and entry else None
    if tag == "S":
        _, seq, submit = _shape(entry, 3, "WAL submit")
        decoded = (tag, seq, submit_from_tuple(submit))
    elif tag == "C":
        _, seq, client, commit = _shape(entry, 4, "WAL commit")
        if not isinstance(client, int):
            raise EncodingError(f"malformed WAL commit encoding: {entry!r}")
        decoded = (tag, seq, client, commit_from_tuple(commit))
    elif tag == "K":
        _, seq, cut = _shape(entry, 3, "WAL checkpoint")
        if not _tuple_of(cut, int):
            raise EncodingError(f"malformed WAL checkpoint encoding: {entry!r}")
        decoded = (tag, seq, cut)
    else:
        raise EncodingError(f"unknown WAL record: {entry!r}")
    if not isinstance(seq, int):
        raise EncodingError(f"WAL record sequence is not an integer: {entry!r}")
    return decoded


def snapshot_from_tuple(record: Any) -> tuple[ServerState, int]:
    """A decoded snapshot record: the state and the WAL sequence it covers."""
    tag, covered, state = _shape(record, 3, "snapshot")
    if tag != "SNAP" or not isinstance(covered, int):
        raise EncodingError(f"malformed snapshot record: {record!r}")
    return state_from_tuple(state), covered


def encode_snapshot(covered_seq: int, state: ServerState) -> bytes:
    return encode(("SNAP", covered_seq, state_to_tuple(state)))
