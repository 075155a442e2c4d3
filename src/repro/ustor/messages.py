"""Wire messages of the USTOR protocol with an explicit size model.

Three message types travel between a client and the server (Algorithms 1
and 2): SUBMIT (client -> server, opens an operation), REPLY (server ->
client, the only message on the operation's critical path), and COMMIT
(client -> server, asynchronous).  Each message computes its wire size
from the byte widths below; experiment E4 sums these to reproduce the
paper's ``O(n)`` communication-overhead claim.

Byte-width conventions (also used by the baselines for a fair comparison):
8-byte integers, 1-byte opcodes/markers, 64-byte signatures (Ed25519),
32-byte hashes/digests, values at their natural length — or, where a
dummy read fetches only the value's hash (:class:`ValueDigest`), a
marker and the hash.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.types import (
    BOTTOM,
    Bottom,
    ClientId,
    OpKind,
    RegisterId,
    Value,
    ValueDigest,
)
from repro.crypto.hashing import HASH_BYTES, digest_form, hash_register_value
from repro.crypto.signatures import SIGNATURE_BYTES
from repro.ustor.version import Version

INT_BYTES = 8
MARKER_BYTES = 1
#: The largest population a REPLY with a :class:`RelativeVersion` is
#: sent to: its decoder rebuilds ``n`` PROOF slots from one integer or a
#: mask, so ``n`` is bounded where a full ``SVER[c]`` is bounded by its
#: own bytes.
OWN_FORM_MAX_CLIENTS = 1 << 16


def _sig_size(signature: bytes | None) -> int:
    return SIGNATURE_BYTES if signature is not None else MARKER_BYTES


def _value_size(value: Value | Bottom | ValueDigest | None) -> int:
    if value is None or value is BOTTOM:
        return MARKER_BYTES
    if type(value) is ValueDigest:
        return MARKER_BYTES + HASH_BYTES
    return len(value)


def _slots_size(slots: tuple, filled_bytes: int) -> int:
    """A vector of optional fixed-width entries: ``filled_bytes`` each,
    a 1-byte marker where the entry is ``None``."""
    empty = slots.count(None)
    return filled_bytes * (len(slots) - empty) + MARKER_BYTES * empty


def version_wire_size(version: Version) -> int:
    """``V`` is n integers; ``M`` is n digests (1-byte marker when BOTTOM)."""
    return INT_BYTES * len(version.vector) + _slots_size(version.digests, HASH_BYTES)


@dataclass(frozen=True)
class InvocationTuple:
    """``(i, oc, j, sigma)`` — Algorithm 1's representation of an operation.

    ``client`` executes an operation of kind ``opcode`` on register
    ``register``; ``submit_sig`` is the SUBMIT-signature over
    ``(SUBMIT, oc, j, t)``.
    """

    client: ClientId
    opcode: OpKind
    register: RegisterId
    submit_sig: bytes

    def wire_size(self) -> int:
        return INT_BYTES + MARKER_BYTES + INT_BYTES + _sig_size(self.submit_sig)


@dataclass(frozen=True)
class SignedVersion:
    """``(V, M, phi)`` as stored in ``SVER[]`` — a version plus its
    COMMIT-signature (``None`` only for the initial zero version)."""

    version: Version
    commit_sig: bytes | None

    @classmethod
    def zero(cls, num_clients: int) -> "SignedVersion":
        return cls(version=Version.zero(num_clients), commit_sig=None)

    def wire_size(self) -> int:
        return version_wire_size(self.version) + _sig_size(self.commit_sig)


def _same(x, y) -> bool:
    """Equal and of one type: ``True == 1``, but they sign differently."""
    return x == y and type(x) is type(y)


@dataclass(frozen=True, slots=True)
class RelativeVersion:
    """A :class:`SignedVersion` as its differences from a *base* — the
    version the receiving client committed one operation earlier.

    Bit ``k`` of ``same`` is set where ``(V[k], M[k])`` is the base's;
    ``changed`` holds ``V[k], M[k]`` for every other ``k``, in order, one
    flat tuple; ``commit_sig`` is ``None`` when it is the base's.  The
    population is ``popcount(same)`` plus the changed entries.  Every entry
    the base's and its signature too — the *own form* — is the base
    itself, and travels as the population alone.
    """

    same: int
    changed: tuple
    commit_sig: bytes | None

    @classmethod
    def own(cls, num_clients: int) -> "RelativeVersion":
        """The base itself."""
        return cls((1 << num_clients) - 1, (), None)

    @classmethod
    def of(
        cls, signed: SignedVersion, base: SignedVersion
    ) -> "RelativeVersion | SignedVersion":
        """``signed`` as it travels against ``base``: relative, or in full
        when no entry is the base's (the mask would only cost), when the
        populations differ, or when ``signed`` has no signature where the
        base has one (``None`` already means the base's)."""
        if signed is base:
            return cls.own(len(base.version.vector))
        vector, digests = signed.version.vector, signed.version.digests
        base_vector, base_digests = base.version.vector, base.version.digests
        if len(vector) != len(base_vector):
            return signed
        same, changed, bit = 0, [], 1
        for v, d, b, e in zip(vector, digests, base_vector, base_digests):
            if _same(v, b) and _same(d, e):
                same |= bit
            else:
                changed += (v, d)
            bit <<= 1
        sig = signed.commit_sig
        if _same(sig, base.commit_sig):
            sig = None
        elif sig is None:
            return signed
        return cls(same, tuple(changed), sig) if same else signed

    @property
    def num_clients(self) -> int:
        return self.same.bit_count() + len(self.changed) // 2

    def is_own(self) -> bool:
        return not self.changed and self.commit_sig is None

    def restored(self, base: SignedVersion) -> SignedVersion:
        """The full version, ``base``'s entries where ``same`` says so.

        Against a base of another population the entries it lacks read
        as zero: the version keeps this one's population, which the
        client refuses as it refuses a full version of that size."""
        n = self.num_clients
        version = base.version
        if self.is_own() and len(version.vector) == n:
            # A copy: two slots that each restore to the base are two
            # versions, as the server built them (:meth:`reader_is_last`).
            return SignedVersion(version, base.commit_sig)
        vector, digests = list(version.vector), list(version.digests)
        if len(vector) != n:
            vector, digests = (vector + [0] * n)[:n], (digests + [None] * n)[:n]
        same, changed = self.same, iter(self.changed)
        for k in range(n):
            if not same >> k & 1:
                vector[k] = next(changed)
                digests[k] = next(changed)
        sig = base.commit_sig if self.commit_sig is None else self.commit_sig
        return SignedVersion(Version(tuple(vector), tuple(digests)), sig)

    def wire_size(self) -> int:
        """One marker in own form; else an ``n``-bit mask, the changed
        entries and the signature (a marker when it is the base's)."""
        if self.is_own():
            return MARKER_BYTES
        changed = self.changed
        digests = changed[1::2]
        return (
            (self.num_clients + 7) // 8
            + INT_BYTES * len(digests)
            + _slots_size(digests, HASH_BYTES)
            + _sig_size(self.commit_sig)
        )


@dataclass(frozen=True)
class MemEntry:
    """``(t, x, delta)`` as stored in ``MEM[]`` — last timestamp, register
    value and DATA-signature received from a client.  The server's state
    always holds the value; only a REPLY carries the *digest form*
    (:meth:`digest_form`), with a :class:`ValueDigest` for ``x``."""

    timestamp: int
    value: Value | Bottom | ValueDigest
    data_sig: bytes | None

    @classmethod
    def initial(cls) -> "MemEntry":
        return cls(timestamp=0, value=BOTTOM, data_sig=None)

    def digest_form(self) -> "MemEntry":
        """This entry with ``H(x)`` in place of ``x`` by the one rule
        (:func:`~repro.crypto.hashing.digest_form`); ``BOTTOM``, shorter
        values and an entry already in digest form are returned as they
        are.  Hashes on every call: only a read that asks pays for it."""
        value = digest_form(self.value)
        if value is self.value:
            return self
        return MemEntry(self.timestamp, value, self.data_sig)

    def value_hash(self) -> bytes:
        """``H(x)``: the carried digest, or the hash of the carried value."""
        value = self.value
        if type(value) is ValueDigest:
            return value.digest
        return hash_register_value(value)

    def wire_size(self) -> int:
        return INT_BYTES + _value_size(self.value) + _sig_size(self.data_sig)


@dataclass(frozen=True)
class CommitMessage:
    """``<COMMIT, V_i, M_i, phi, psi>`` (lines 19 and 32) — or, to a lone
    server, ``<COMMIT, t, phi, psi>``.

    A lone server folds ``(V_i, M_i)`` from the REPLY it sent
    (:func:`~repro.ustor.version.fold_version`), so that COMMIT carries
    ``version=None`` and its operation's ``timestamp`` in the version's
    place; a replica group receives the version itself (``timestamp``
    unset).
    """

    version: Version | None
    commit_sig: bytes  # phi — over (COMMIT, V, M)
    proof_sig: bytes  # psi — over (PROOF, M[i])
    timestamp: int | None = None  # t — set exactly when version is None

    kind = "COMMIT"

    def wire_size(self) -> int:
        version = self.version
        return (
            MARKER_BYTES
            + (INT_BYTES if version is None else version_wire_size(version))
            + _sig_size(self.commit_sig)
            + _sig_size(self.proof_sig)
        )


@dataclass(frozen=True)
class SubmitMessage:
    """``<SUBMIT, t, (i, oc, j, sigma), x, delta>`` (lines 15 and 27).

    In piggyback mode (Section 5's garbage-collection remark) the previous
    operation's COMMIT rides along in ``piggyback``.

    ``digest_only`` marks a read whose value will not be used (a FAUST
    dummy read): the server may answer ``MEM[j]`` in digest form
    (:meth:`MemEntry.digest_form`).  It rides in the read's value slot,
    a marker either way, so :meth:`wire_size` does not change.  It is a
    request about the REPLY, not part of the transition, so the WAL does
    not log it.
    """

    timestamp: int
    invocation: InvocationTuple
    value: Value | None  # written value; None (BOTTOM) for reads
    data_sig: bytes
    piggyback: CommitMessage | None = None
    digest_only: bool = False

    kind = "SUBMIT"

    def wire_size(self) -> int:
        size = (
            MARKER_BYTES
            + INT_BYTES
            + self.invocation.wire_size()
            + _value_size(self.value)
            + _sig_size(self.data_sig)
        )
        if self.piggyback is not None:
            size += self.piggyback.wire_size()
        return size


@dataclass(frozen=True)
class CheckpointMessage:
    """``<CHECKPOINT, q, C, Sigma>`` — an installed checkpoint, forwarded.

    Not part of the paper's protocol: the bounded-state extension (see
    DESIGN.md, "One co-signed chain").  Once every client has
    co-signed checkpoint number ``seq`` over the stable cut ``cut`` (one
    timestamp per client), the proposer forwards the certificate to the
    server, authorising it to truncate the covered ``pending`` prefix and
    compact its WAL.  One-way: the server never replies to it.

    The honest server holds no keys, so it cannot verify ``signatures``;
    it applies a *defensive* truncation bound instead (see
    :func:`~repro.ustor.server.apply_checkpoint`), which keeps safety
    independent of the certificate's honesty.
    """

    seq: int
    cut: tuple[int, ...]  # one stable timestamp per client
    signatures: tuple[bytes, ...]  # one co-signature per client, in id order

    kind = "CHECKPOINT"

    def wire_size(self) -> int:
        size = MARKER_BYTES + INT_BYTES  # kind marker + seq
        size += INT_BYTES * len(self.cut)
        size += sum(_sig_size(signature) for signature in self.signatures)
        return size


@dataclass(frozen=True)
class ReplyMessage:
    """``<REPLY, c, SVER[c], [SVER[j], MEM[j],] L, P>`` (lines 111/114).

    ``reader_version`` and ``mem`` are present for read operations only.

    ``proofs`` holds all ``n`` slots of ``P``, but Algorithm 1 reads
    ``P[k]`` only for the ``k`` listed in ``L`` (line 41), and a read with
    ``j = c`` hands out ``SVER[c]`` twice.  What travels is sized to that:
    the PROOF-signatures of :meth:`submitters` only, and a back-reference
    (one marker byte in :meth:`wire_size`) in place of a ``reader_version``
    that *is* ``last_version`` (:meth:`reader_is_last`) — the wire codec
    (:mod:`repro.store.codec`) and :meth:`wire_size` apply the same two
    rules.

    A REPLY that answers client ``i``'s ``SUBMIT(t)`` while the server's
    ``SVER[i]`` counts ``t - 1`` operations of ``i`` carries its versions
    *relative* to that ``SVER[i]`` — the version ``i`` committed and signed
    one operation earlier: ``SVER[c]``, and ``SVER[j]`` unless it is
    back-referenced, as :class:`RelativeVersion` (the server's
    :func:`~repro.ustor.server.relative_form`).  The client rebuilds the
    full REPLY with :meth:`restored` before anything reads it.

    A read REPLY to a SUBMIT that asked for it (``digest_only``) carries
    ``MEM[j]`` in digest form (:meth:`MemEntry.digest_form`), built by
    :func:`~repro.ustor.server.apply_submit`.
    """

    commit_index: ClientId  # c — who committed the last scheduled operation
    last_version: SignedVersion | RelativeVersion  # SVER[c]
    pending: tuple[InvocationTuple, ...]  # L — submitted, not yet committed
    proofs: tuple[bytes | None, ...]  # P — PROOF-signatures
    reader_version: SignedVersion | RelativeVersion | None = None  # SVER[j]
    mem: MemEntry | None = None  # MEM[j]
    #: Trusted monotonic-counter attestation
    #: (:class:`repro.replica.counter.CounterAttestation`), present only
    #: on replicas with a counter attached.  Typed loosely: the message
    #: layer carries it opaquely, only :mod:`repro.replica` interprets it.
    attestation: object | None = None

    kind = "REPLY"

    def submitters(self) -> tuple[ClientId, ...]:
        """``L``'s distinct submitters in order of first appearance: the
        ``k`` whose ``P[k]`` line 41 reads, each once."""
        return tuple({entry.client: None for entry in self.pending})

    def reader_is_last(self) -> bool:
        """A read REPLY whose ``SVER[j]`` is the very ``SVER[c]`` object.

        Identity, not ``==``: a version that merely compares equal (``True
        == 1``) still travels in full, so the client judges exactly what
        the server built.
        """
        return self.reader_version is self.last_version and self.mem is not None

    def restored(self, base: SignedVersion, *, attested: bool = True) -> "ReplyMessage":
        """The full REPLY: each :class:`RelativeVersion` rebuilt against
        ``base`` — the receiving client's committed ``(V_i, M_i, phi)`` —
        and without its counter attestation unless ``attested`` — a
        replica group votes on the REPLY without it, since each replica's
        legitimately differs."""
        last, reader = self.last_version, self.reader_version
        if type(last) is RelativeVersion:
            last = last.restored(base)
        if self.reader_is_last():
            reader = last
        elif type(reader) is RelativeVersion:
            reader = reader.restored(base)
        if (
            last is self.last_version
            and reader is self.reader_version
            and (attested or self.attestation is None)
        ):
            return self
        return ReplyMessage(
            commit_index=self.commit_index,
            last_version=last,
            pending=self.pending,
            proofs=self.proofs,
            reader_version=reader,
            mem=self.mem,
            attestation=self.attestation if attested else None,
        )

    def wire_size(self) -> int:
        size = MARKER_BYTES + INT_BYTES + self.last_version.wire_size()
        if self.pending:
            size += sum(t.wire_size() for t in self.pending)
            proofs = self.proofs
            size += _slots_size([proofs[k] for k in self.submitters()], SIGNATURE_BYTES)
        if self.reader_is_last():
            size += MARKER_BYTES
        elif self.reader_version is not None:
            size += self.reader_version.wire_size()
        if self.mem is not None:
            size += self.mem.wire_size()
        if self.attestation is not None:
            size += self.attestation.wire_size()
        return size
