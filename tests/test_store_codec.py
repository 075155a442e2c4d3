"""Canonical-encoding round trips: serialize → deserialize identity.

The recovery invariant of the storage engine rests on two properties
pinned here: the codec is the identity on every persisted structure
(``decode(encode(x)) == x``), and restoring a state from bytes is
equivalent to ``clone()`` — structurally equal, sharing no mutable
containers — which is exactly what the rollback adversary relies on when
it "recovers" yesterday's state.
"""

from __future__ import annotations

import pytest

from repro.common.encoding import decode, encode
from repro.common.errors import EncodingError
from repro.common.types import BOTTOM, OpKind
from repro.crypto.keystore import KeyStore
from repro.store.codec import (
    commit_from_tuple,
    commit_to_tuple,
    decode_server_state,
    encode_server_state,
    invocation_from_tuple,
    invocation_to_tuple,
    mem_entry_from_tuple,
    mem_entry_to_tuple,
    signed_version_from_tuple,
    signed_version_to_tuple,
    submit_from_tuple,
    submit_to_tuple,
    version_from_tuple,
    version_to_tuple,
)
from repro.store.codec import (
    checkpoint_from_tuple,
    checkpoint_to_tuple,
    decode_payload,
)
from repro.ustor.messages import (
    CheckpointMessage,
    CommitMessage,
    InvocationTuple,
    MemEntry,
    SignedVersion,
    SubmitMessage,
)
from repro.ustor.server import ServerState, apply_commit, apply_submit
from repro.ustor.version import Version


@pytest.fixture(scope="module")
def keystore():
    return KeyStore(3, scheme="hmac")


def _submit(keystore, client=0, t=1, kind=OpKind.WRITE, register=None, piggyback=None):
    register = client if register is None else register
    signer = keystore.signer(client)
    return SubmitMessage(
        timestamp=t,
        invocation=InvocationTuple(
            client=client,
            opcode=kind,
            register=register,
            submit_sig=signer.sign("SUBMIT", kind, register, t),
        ),
        value=b"payload-%d" % t if kind is OpKind.WRITE else None,
        data_sig=signer.sign("DATA", t, b"h"),
        piggyback=piggyback,
    )


def _commit(keystore, client=0, vector=(1, 0, 0)):
    signer = keystore.signer(client)
    version = Version(vector=vector, digests=(b"\x11" * 32, None, None))
    return CommitMessage(
        version=version,
        commit_sig=signer.sign("COMMIT", version.vector, version.digests),
        proof_sig=signer.sign("PROOF", version.digests[client]),
    )


def _populated_state(keystore) -> ServerState:
    """A state exercised through the honest state machine: non-trivial
    MEM, SVER, pending list and proofs."""
    state = ServerState.initial(3)
    apply_submit(state, _submit(keystore, client=0, t=1))
    apply_commit(state, 0, _commit(keystore, client=0, vector=(1, 0, 0)))
    apply_submit(state, _submit(keystore, client=1, t=1))
    apply_submit(state, _submit(keystore, client=2, t=1, kind=OpKind.READ, register=0))
    return state


# --------------------------------------------------------------------- #
# Structure-level round trips
# --------------------------------------------------------------------- #


class TestStructureRoundTrips:
    def test_version(self):
        for version in (
            Version.zero(3),
            Version(vector=(2, 5, 0), digests=(b"\x01" * 32, b"\x02" * 32, None)),
        ):
            assert version_from_tuple(version_to_tuple(version)) == version

    def test_signed_version(self):
        for signed in (
            SignedVersion.zero(2),
            SignedVersion(
                version=Version(vector=(1, 1), digests=(b"\x03" * 32, None)),
                commit_sig=b"\x04" * 64,
            ),
        ):
            assert signed_version_from_tuple(signed_version_to_tuple(signed)) == signed

    def test_mem_entry_including_bottom(self):
        initial = MemEntry.initial()
        assert initial.value is BOTTOM
        restored = mem_entry_from_tuple(mem_entry_to_tuple(initial))
        assert restored == initial
        assert restored.value is BOTTOM  # the singleton survives
        written = MemEntry(timestamp=4, value=b"data", data_sig=b"\x05" * 64)
        assert mem_entry_from_tuple(mem_entry_to_tuple(written)) == written

    def test_invocation(self, keystore):
        invocation = _submit(keystore, client=1, t=3).invocation
        assert invocation_from_tuple(invocation_to_tuple(invocation)) == invocation

    def test_commit_message(self, keystore):
        commit = _commit(keystore)
        assert commit_from_tuple(commit_to_tuple(commit)) == commit

    def test_submit_message_with_and_without_piggyback(self, keystore):
        plain = _submit(keystore, client=0, t=2)
        assert submit_from_tuple(submit_to_tuple(plain)) == plain
        read = _submit(keystore, client=2, t=1, kind=OpKind.READ, register=0)
        assert read.value is None
        assert submit_from_tuple(submit_to_tuple(read)) == read
        piggybacked = _submit(keystore, client=0, t=3, piggyback=_commit(keystore))
        assert submit_from_tuple(submit_to_tuple(piggybacked)) == piggybacked

    def test_checkpoint_message(self):
        checkpoint = CheckpointMessage(2, (4, 0, 3), (b"a" * 32, b"b" * 32, b"c" * 32))
        assert checkpoint_from_tuple(checkpoint_to_tuple(checkpoint)) == checkpoint


# --------------------------------------------------------------------- #
# ServerState: encode/decode identity and clone-vs-restore equivalence
# --------------------------------------------------------------------- #


class TestServerStateRoundTrip:
    def test_initial_state(self):
        state = ServerState.initial(4)
        assert decode_server_state(encode_server_state(state)) == state

    def test_populated_state(self, keystore):
        state = _populated_state(keystore)
        assert state.pending and state.commit_index == 0
        assert decode_server_state(encode_server_state(state)) == state

    def test_equal_states_equal_bytes(self, keystore):
        a = _populated_state(keystore)
        b = _populated_state(keystore)
        assert a is not b
        assert encode_server_state(a) == encode_server_state(b)

    def test_restore_equivalent_to_clone(self, keystore):
        """The equivalence the rollback adversary relies on: restoring from
        bytes behaves exactly like ``clone()`` — equal now, independent
        under mutation."""
        state = _populated_state(keystore)
        cloned = state.clone()
        restored = decode_server_state(encode_server_state(state))
        assert restored == cloned == state
        # Mutating the original must not leak into either copy.
        apply_submit(state, _submit(keystore, client=1, t=2))
        assert restored == cloned
        assert restored != state
        # And the restored copy is itself mutable through the state machine.
        apply_submit(restored, _submit(keystore, client=1, t=2))
        assert restored == state

    def test_restored_state_serves_identical_replies(self, keystore):
        state = _populated_state(keystore)
        restored = decode_server_state(encode_server_state(state))
        probe = _submit(keystore, client=1, t=2, kind=OpKind.READ, register=0)
        assert apply_submit(restored, probe) == apply_submit(state, probe)


# --------------------------------------------------------------------- #
# Decoder error paths
# --------------------------------------------------------------------- #


class TestDecoderErrors:
    def test_decode_inverse_on_primitives(self):
        values = (1, -7, 0, True, False, None, b"bytes", "text", (1, (2, b"x")))
        assert decode(encode(*values)) == values

    def test_truncated(self, keystore):
        data = encode_server_state(_populated_state(keystore))
        with pytest.raises(EncodingError, match="truncated"):
            decode(data[:-3], enums=(OpKind,))

    def test_trailing_garbage(self):
        with pytest.raises(EncodingError, match="trailing"):
            decode(encode(1, 2) + b"\x00")

    def test_unknown_tag(self):
        with pytest.raises(EncodingError, match="unknown encoding tag"):
            decode(b"\x05\x01" + b"\x7f")

    def test_enum_requires_registry(self):
        data = encode(OpKind.WRITE)
        assert decode(data, enums=(OpKind,)) == (OpKind.WRITE,)
        with pytest.raises(EncodingError, match="enum"):
            decode(data)

    def test_malformed_shape_rejected(self):
        with pytest.raises(EncodingError, match="ServerState"):
            decode_server_state(encode((1, 2)))

    def test_payload_decode_is_enum_aware(self):
        assert decode_payload(encode((OpKind.READ,))) == ((OpKind.READ,),)
