"""Wire-size model of the protocol messages (the basis of E4)."""

from __future__ import annotations

from dataclasses import replace

from repro.common.types import BOTTOM, OpKind
from repro.crypto.hashing import HASH_BYTES
from repro.crypto.signatures import SIGNATURE_BYTES
from repro.ustor.messages import (
    CommitMessage,
    InvocationTuple,
    MemEntry,
    ReplyMessage,
    SignedVersion,
    SubmitMessage,
    version_wire_size,
)
from repro.ustor.version import Version

SIG = b"\x01" * SIGNATURE_BYTES
DIGEST = b"\x02" * HASH_BYTES


def make_version(n: int, filled: int | None = None) -> Version:
    filled = n if filled is None else filled
    return Version(
        tuple(1 if i < filled else 0 for i in range(n)),
        tuple(DIGEST if i < filled else None for i in range(n)),
    )


def invocation(client: int = 0) -> InvocationTuple:
    return InvocationTuple(
        client=client, opcode=OpKind.WRITE, register=client, submit_sig=SIG
    )


class TestVersionSize:
    def test_linear_in_population(self):
        small = version_wire_size(make_version(4))
        large = version_wire_size(make_version(8))
        assert large == 2 * small

    def test_empty_digests_cost_one_byte(self):
        full = version_wire_size(make_version(4, filled=4))
        empty = version_wire_size(make_version(4, filled=0))
        assert full - empty == 4 * (HASH_BYTES - 1)

    def test_signed_version_adds_signature(self):
        version = make_version(4)
        signed = SignedVersion(version=version, commit_sig=SIG)
        assert signed.wire_size() == version_wire_size(version) + SIGNATURE_BYTES

    def test_zero_signed_version_marker(self):
        signed = SignedVersion.zero(4)
        assert signed.wire_size() == version_wire_size(Version.zero(4)) + 1


class TestSubmitSize:
    def test_write_carries_value(self):
        base = SubmitMessage(
            timestamp=1, invocation=invocation(), value=b"x" * 100, data_sig=SIG
        )
        empty = SubmitMessage(
            timestamp=1, invocation=invocation(), value=None, data_sig=SIG
        )
        assert base.wire_size() - empty.wire_size() == 99  # marker byte vs 100

    def test_piggyback_adds_commit_size(self):
        commit = CommitMessage(version=make_version(4), commit_sig=SIG, proof_sig=SIG)
        plain = SubmitMessage(
            timestamp=1, invocation=invocation(), value=None, data_sig=SIG
        )
        stuffed = SubmitMessage(
            timestamp=1,
            invocation=invocation(),
            value=None,
            data_sig=SIG,
            piggyback=commit,
        )
        assert stuffed.wire_size() == plain.wire_size() + commit.wire_size()

    def test_submit_size_independent_of_population(self):
        # SUBMIT carries no vectors: O(1) in n.
        assert (
            SubmitMessage(1, invocation(), None, SIG).wire_size()
            == SubmitMessage(1, invocation(), None, SIG).wire_size()
        )


class TestReplySize:
    """``P`` costs only the PROOF-signatures of ``L``'s distinct submitters,
    and a read with ``j = c`` one marker byte for ``SVER[j]``."""

    def _reply(
        self, n: int, pending=(), read: bool = False, j_is_c: bool = False
    ) -> ReplyMessage:
        last = SignedVersion(make_version(n), SIG)
        reader = last if j_is_c else SignedVersion(make_version(n), SIG)
        return ReplyMessage(
            commit_index=0,
            last_version=last,
            pending=tuple(invocation(k) for k in pending),
            proofs=tuple(SIG for _ in range(n)),
            reader_version=reader if read else None,
            mem=MemEntry(1, b"v" * 10, SIG) if read else None,
        )

    def test_linear_in_population(self):
        # V (8 B/entry) + M (32 B/entry); P adds nothing while L is empty ...
        small = self._reply(4).wire_size()
        large = self._reply(8).wire_size()
        assert large - small == 4 * (8 + HASH_BYTES)
        # ... and one invocation tuple plus one PROOF-signature per client
        # when L lists every client.
        small = self._reply(4, pending=range(4)).wire_size()
        large = self._reply(8, pending=range(8)).wire_size()
        assert large - small == 4 * (
            8 + HASH_BYTES + invocation().wire_size() + SIGNATURE_BYTES
        )

    def test_pending_entries_additive(self):
        # A new submitter in L brings its PROOF-signature along; a repeated
        # one (piggyback mode) only its invocation tuple.
        base = self._reply(4).wire_size()
        plus2 = self._reply(4, pending=(1, 2)).wire_size()
        assert plus2 == base + 2 * (invocation().wire_size() + SIGNATURE_BYTES)
        repeated = self._reply(4, pending=(1, 2, 1)).wire_size()
        assert repeated == plus2 + invocation().wire_size()

    def test_read_reply_larger_than_write_reply(self):
        write_reply = self._reply(4, read=False).wire_size()
        read_reply = self._reply(4, read=True).wire_size()
        assert read_reply > write_reply
        # j = c: SVER[j] *is* SVER[c] and travels as one marker byte.
        same = self._reply(4, read=True, j_is_c=True)
        mem = same.mem.wire_size()
        assert same.wire_size() == write_reply + 1 + mem
        assert read_reply == write_reply + same.last_version.wire_size() + mem
        # Equal is not enough: an equal copy is sent in full.
        copy = replace(same, reader_version=replace(same.last_version))
        assert copy.reader_version == copy.last_version
        assert copy.wire_size() == read_reply
        # A reader version without MEM[j] is never back-referenced.
        assert replace(same, mem=None).wire_size() == read_reply - mem

    def test_absent_proofs_and_digests_cost_one_byte_each(self):
        """Entry by entry: 64 B per PROOF-signature L names, 32 B per digest,
        8 B per timestamp, one marker byte for every BOTTOM; P's slots L
        does not name cost nothing, filled or not."""
        for n in range(5):
            for filled in range(n + 1):
                version = make_version(n, filled)
                assert version_wire_size(version) == sum(
                    8 + (1 if digest is None else HASH_BYTES)
                    for digest in version.digests
                )
                proofs = tuple(SIG if i < filled else None for i in range(n))
                base = self._reply(n, pending=range(n))
                holed = replace(base, proofs=proofs)
                assert base.wire_size() - holed.wire_size() == (n - filled) * (
                    SIGNATURE_BYTES - 1
                )
                unlisted = self._reply(n)
                assert replace(unlisted, proofs=proofs).wire_size() == (
                    unlisted.wire_size()
                )

    def test_bottom_mem_entry_is_small(self):
        empty = MemEntry.initial()
        assert empty.wire_size() < MemEntry(1, b"v" * 100, SIG).wire_size()


class TestCommitSize:
    def test_commit_is_version_plus_two_signatures(self):
        version = make_version(6)
        commit = CommitMessage(version=version, commit_sig=SIG, proof_sig=SIG)
        assert (
            commit.wire_size()
            == 1 + version_wire_size(version) + 2 * SIGNATURE_BYTES
        )

    def test_a_lone_servers_commit_carries_t_not_the_version(self):
        # The server folds (V_i, M_i) itself: t and two signatures, O(1) in n.
        commit = CommitMessage(None, commit_sig=SIG, proof_sig=SIG, timestamp=3)
        assert commit.wire_size() == 1 + 8 + 2 * SIGNATURE_BYTES
        assert commit.wire_size() < CommitMessage(make_version(2), SIG, SIG).wire_size()

    def test_kinds(self):
        assert SubmitMessage(1, invocation(), None, SIG).kind == "SUBMIT"
        assert CommitMessage(make_version(2), SIG, SIG).kind == "COMMIT"
        assert (
            ReplyMessage(0, SignedVersion.zero(2), (), (None, None)).kind == "REPLY"
        )
