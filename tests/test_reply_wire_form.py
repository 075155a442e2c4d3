"""The REPLY's wire form: each signature once, only where Algorithm 1 reads it.

A REPLY travels with ``P`` cut to the PROOF-signatures of ``L``'s
distinct submitters and with ``SVER[j]`` back-referenced when it *is*
``SVER[c]`` (:func:`repro.store.codec.reply_to_tuple`).  Pinned here:

* **same verdicts** — for honest REPLYs and every ``ADVERSARIES``
  behaviour (the ``random-deviation`` row is :mod:`repro.ustor.fuzz`'s
  field mutations; ``replay`` and ``fake-pending`` put one submitter in
  ``L`` twice), with and without piggybacked COMMITs, at ``n`` in
  {2, 3, 8}: every field Algorithm 1 reads survives
  ``payload_to_message(message_to_payload(r))``, and a run whose every
  REPLY takes that round trip ends exactly like the run that hands the
  objects over — same histories, versions and failing lines;
* **malformed REPLYs refused** — a proof list that does not match ``L``,
  a submitter outside ``0..n-1``, a back-reference without ``MEM[j]``,
  an own-form population that is not one the proofs can fill, a relative
  version whose mask names an entry past ``n``, whose changed entries do
  not fill the clear bits, or whose population is over the bound, a
  value digest that is not ``HASH_BYTES`` long or answers a write — and
  a write SUBMIT that asks for a digest;
* **the size model tracks the codec** — real bytes over ``wire_size()``
  stay in one pinned band for SUBMIT, every REPLY shape (full, own form,
  relative, ``MEM[j]`` in digest form) and both COMMIT forms (``t`` to a
  lone server, the version to a replica group);
* **the relative form** — a REPLY to client ``i`` whose server's
  ``SVER[i]`` counts ``t - 1`` operations of ``i`` carries its versions
  relative to it (:func:`repro.ustor.server.relative_form`): a mask of
  the equal entries, the others and the signature, or ``n`` alone (own
  form) when the slot is that version.  Relativised, encoded, decoded and
  restored, a REPLY is the built one field for field at ``n`` in
  {1, 2, 8, 64}; a server that back-references where the rule does not
  allow it (``c != i``, or a ``SVER[i]`` that is not the version ``i``
  committed at ``t - 1``), or lies in the mask, is judged on the full
  REPLY the relative one restores to;
* **the digest form** — a server that ignores FAUST's digest request and
  sends every value in full runs the same FAUST run as the shipped one
  at value sizes around the 33-byte threshold: history, ``fail_i``
  reasons, every message but the REPLY's bytes, events and virtual time.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import SystemConfig, open_system
from repro.common.encoding import encode
from repro.common.errors import EncodingError
from repro.common.types import OpKind
from repro.net.trace import history_signature
from repro.net.wire import decode_payload, message_to_payload, payload_to_message
from repro.store.codec import encode_wal_record, wal_entry_to_tuple
from repro.ustor.byzantine import ADVERSARIES
from repro.common.types import parse_client_name
from repro.ustor.messages import (
    OWN_FORM_MAX_CLIENTS,
    CommitMessage,
    InvocationTuple,
    MemEntry,
    RelativeVersion,
    ReplyMessage,
    SignedVersion,
    SubmitMessage,
    ValueDigest,
)
from repro.ustor.server import (
    ServerState,
    UstorServer,
    apply_commit,
    apply_submit,
    relative_form,
)
from repro.ustor.version import Version
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts

from test_ustor_byzantine_targeted import SendsFullValues

SIG = b"\x01" * 64


def _read_by_algorithm_1(reply: ReplyMessage) -> str:
    """Every part of a REPLY the client's checks look at (lines 34-52),
    ``P[k]`` only for the ``k`` that ``L`` lists — as a ``repr``, so
    ``True`` and ``1`` stay apart."""
    return repr(
        (
            reply.commit_index,
            reply.last_version,
            len(reply.proofs),
            reply.pending,
            tuple(reply.proofs[k] for k in reply.submitters()),
            reply.reader_version,
            reply.mem,
        )
    )


def _through_the_codec(reply: ReplyMessage) -> ReplyMessage:
    payload = message_to_payload(reply)
    decoded = payload_to_message(payload)
    assert _read_by_algorithm_1(decoded) == _read_by_algorithm_1(reply)
    assert decoded.reader_is_last() == reply.reader_is_last()
    assert message_to_payload(decoded) == payload
    return decoded


def _open(n: int, seed: int, server_factory, piggyback: bool = False):
    return open_system(
        SystemConfig(
            num_clients=n,
            seed=seed,
            server_factory=server_factory,
            commit_piggyback=piggyback,
        ),
        backend="ustor",
    )


def _drive(system, n: int, seed: int, ops: int, think: float) -> Driver:
    driver = Driver(system)
    driver.attach_all(
        generate_scripts(
            n,
            WorkloadConfig(
                ops_per_client=ops, read_fraction=0.5, mean_think_time=think
            ),
            random.Random(seed),
        )
    )
    system.run(until=500)
    return driver


def _run(adversary: str, n: int, seed: int, piggyback: bool, codec: bool) -> dict:
    """One ``ustor`` run under ``adversary``; with ``codec`` every REPLY
    reaches its client through the wire codec instead of as an object."""

    def factory(num_clients: int, name: str) -> UstorServer:
        server = ADVERSARIES[adversary].factory(num_clients, name)
        if codec:
            send = server.send
            server.send = lambda dst, message: send(
                dst,
                _through_the_codec(message)
                if isinstance(message, ReplyMessage)
                else message,
            )
        return server

    with _open(n, seed, factory, piggyback) as system:
        _drive(system, n, seed, ops=3, think=0.5)
        return {
            "history": history_signature(system.history()),
            "fail_reasons": [c.fail_reason for c in system.clients],
            "halt_reasons": [c.halt_reason for c in system.clients],
            "versions": [client.version for client in system.clients],
        }


class TestSameVerdicts:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        adversary=st.sampled_from(sorted(ADVERSARIES)),
        n=st.sampled_from((2, 3, 8)),
        seed=st.integers(0, 10_000),
        piggyback=st.booleans(),
    )
    @example(adversary="replay", n=3, seed=1, piggyback=True)
    @example(adversary="fake-pending", n=8, seed=2, piggyback=False)
    @example(adversary="bad-reader-version", n=2, seed=0, piggyback=False)
    def test_algorithm_1_judges_the_decoded_reply_as_the_object(
        self, adversary, n, seed, piggyback
    ):
        assert _run(adversary, n, seed, piggyback, codec=True) == _run(
            adversary, n, seed, piggyback, codec=False
        )

    def test_an_equal_copy_of_sver_c_travels_in_full(self):
        # ``True == 1``: a reader version that only compares equal to
        # SVER[c] is not back-referenced, so the client sees its bools.
        last = SignedVersion(
            Version((1, 0), (b"\x02" * 32, None)), commit_sig=SIG
        )
        twin = SignedVersion(Version((True, 0), last.version.digests), SIG)
        assert twin == last
        mem = MemEntry(1, b"v", SIG)
        same = ReplyMessage(0, last, (), (SIG, None), reader_version=last, mem=mem)
        equal = ReplyMessage(0, last, (), (SIG, None), reader_version=twin, mem=mem)
        assert len(message_to_payload(equal)) > len(message_to_payload(same))
        decoded = _through_the_codec(equal)
        assert decoded.reader_version is not decoded.last_version
        assert decoded.reader_version.version.vector[0] is True
        assert _through_the_codec(same).reader_version is not None

    @pytest.mark.parametrize("n", (2, 3, 8))
    def test_a_repeated_submitter_sends_its_proof_once(self, n):
        # A frozen state keeps absorbing SUBMITs but no COMMIT, so its L
        # soon names one client twice; piggybacked COMMITs ride along.
        seen = []

        def factory(num_clients: int, name: str) -> UstorServer:
            server = ADVERSARIES["replay"].factory(num_clients, name)
            send = server.send

            def tap(dst, message) -> None:
                seen.append(message)
                send(dst, message)

            server.send = tap
            return server

        with _open(n, 1, factory, piggyback=True) as system:
            _drive(system, n, 1, ops=4, think=0.3)
        repeated = [
            r for r in seen
            if r.kind == "REPLY" and len(r.pending) > len(r.submitters())
        ]
        assert repeated, "no REPLY named one submitter twice"
        for reply in repeated:
            _kind, fields = decode_payload(message_to_payload(reply))
            assert len(fields[3]) == len(reply.submitters())
            _through_the_codec(reply)


# --------------------------------------------------------------------- #
# Malformed REPLYs
# --------------------------------------------------------------------- #

#: The zero ``SVER[c]`` of two clients, as it travels.
_ZERO2 = (((0, 0), (None, None)), None)
_INV = (1, OpKind.WRITE, 1, SIG)
_MEM = (1, b"v", SIG)
DIGEST = b"\x02" * 32

MALFORMED = {
    "more-proofs-than-submitters": (0, _ZERO2, (), (SIG,), None, None),
    "fewer-proofs-than-submitters": (0, _ZERO2, (_INV,), (), None, None),
    "a-proof-per-entry-not-per-submitter": (
        0, _ZERO2, (_INV, _INV), (SIG, SIG), None, None,
    ),
    "submitter-out-of-range": (
        0, _ZERO2, ((2, OpKind.WRITE, 2, SIG),), (SIG,), None, None,
    ),
    "negative-submitter": (
        0, _ZERO2, ((-1, OpKind.WRITE, 0, SIG),), (SIG,), None, None,
    ),
    "submitter-not-an-int": (
        0, _ZERO2, ((b"x", OpKind.WRITE, 0, SIG),), (SIG,), None, None,
    ),
    "back-reference-in-a-write-reply": (0, _ZERO2, (), (), True, None),
    "proofs-not-a-sequence": (0, _ZERO2, (), SIG, None, None),
    # Own form: the population n stands in SVER[c]'s slot.
    "own-form-population-below-l": (0, 1, (_INV,), (SIG,), None, None),
    "own-form-no-population": (0, 0, (), (), None, None),
    "own-form-negative-population": (0, -2, (), (), None, None),
    "own-form-population-a-bool": (0, True, (), (), None, None),
    "own-form-population-past-the-bound": (
        0, OWN_FORM_MAX_CLIENTS + 1, (), (), None, None,
    ),
    "own-form-reader-back-reference-without-mem": (0, 2, (), (), True, None),
    # Relative form: (mask of the equal entries, changed (V, M) pairs, sig).
    "relative-mask-bit-past-n": (0, (0b1001, (1, DIGEST), SIG), (), (), None, None),
    "relative-reader-changed-count-not-n-minus-popcount": (
        0, _ZERO2, (), (), (0b1, (1, DIGEST, 2, DIGEST), SIG), _MEM,
    ),
    "relative-reader-own-form-of-another-population": (0, _ZERO2, (), (), 3, _MEM),
    "relative-population-past-the-bound": (
        0, ((1 << (OWN_FORM_MAX_CLIENTS + 1)) - 1, (), SIG), (), (), None, None,
    ),
    "relative-changed-not-in-pairs": (0, (0b1, (1,), SIG), (), (), None, None),
    "relative-negative-count": (0, (0b1, (-1, DIGEST), SIG), (), (), None, None),
    "relative-mask-negative": (0, (-1, (1, DIGEST), SIG), (), (), None, None),
    "relative-own-form-not-as-n": (0, (0b11, (), None), (), (), None, None),
    # MEM[j] in digest form: (t, (H(x),), delta).
    "digest-of-31-bytes": (0, _ZERO2, (), (), _ZERO2, (1, (DIGEST[:31],), SIG)),
    "digest-of-two-hashes": (0, _ZERO2, (), (), _ZERO2, (1, (DIGEST, DIGEST), SIG)),
    "digest-not-bytes": (0, _ZERO2, (), (), _ZERO2, (1, ("x" * 32,), SIG)),
    "digest-in-a-write-reply": (0, _ZERO2, (), (), None, (1, (DIGEST,), SIG)),
}

#: SUBMITs the wire decoder refuses: a digest request (``True`` in the
#: value slot) on a write.
MALFORMED_SUBMITS = {
    "digest-request-on-a-write": (1, (0, OpKind.WRITE, 0, SIG), True, SIG, None),
}


class TestMalformedRefused:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_decoder_refuses(self, case):
        with pytest.raises(EncodingError):
            payload_to_message(encode(("REPLY", MALFORMED[case])))

    @pytest.mark.parametrize("case", sorted(MALFORMED_SUBMITS))
    def test_submit_decoder_refuses(self, case):
        with pytest.raises(EncodingError, match="digest"):
            payload_to_message(encode(("SUBMIT", MALFORMED_SUBMITS[case])))

    def test_the_digest_form_and_its_request_decode(self):
        reply = payload_to_message(
            encode(("REPLY", (0, _ZERO2, (), (), _ZERO2, (1, (DIGEST,), SIG))))
        )
        assert reply.mem.value == ValueDigest(DIGEST)
        assert reply.mem.value_hash() == DIGEST
        request = payload_to_message(
            encode(("SUBMIT", (1, (0, OpKind.READ, 1, SIG), True, SIG, None)))
        )
        assert request.digest_only and request.value is None
        plain = payload_to_message(
            encode(("SUBMIT", (1, (0, OpKind.READ, 1, SIG), None, SIG, None)))
        )
        assert not plain.digest_only
        for message in (reply, request, plain):
            assert payload_to_message(message_to_payload(message)) == message

    def test_the_well_formed_neighbours_decode(self):
        once = payload_to_message(
            encode(("REPLY", (0, _ZERO2, (_INV,), (SIG,), None, None)))
        )
        assert once.proofs == (None, SIG)
        twice = payload_to_message(
            encode(("REPLY", (0, _ZERO2, (_INV, _INV), (SIG,), True, _MEM)))
        )
        assert twice.proofs == (None, SIG)
        assert twice.reader_version is twice.last_version
        relative = payload_to_message(
            encode(("REPLY", (0, (0b10, (1, DIGEST), SIG), (), (), 2, _MEM)))
        )
        assert relative.last_version == RelativeVersion(0b10, (1, DIGEST), SIG)
        assert relative.reader_version == RelativeVersion.own(2)

    def test_encoder_refuses_what_the_form_cannot_carry(self):
        zero = SignedVersion.zero(2)
        with pytest.raises(EncodingError, match="PROOF slots"):
            message_to_payload(ReplyMessage(0, zero, (), (None,)))
        ghost = InvocationTuple(2, OpKind.WRITE, 2, SIG)
        with pytest.raises(EncodingError, match="lists client 2"):
            message_to_payload(ReplyMessage(0, zero, (ghost,), (None, None)))


# --------------------------------------------------------------------- #
# The size model against the codec
# --------------------------------------------------------------------- #

#: Real payload bytes over ``wire_size()``.  Per message the two part
#: most on small ints (8 bytes in the model, 3-4 in the codec) and on
#: BOTTOM markers, so the band is wide; summed per kind it is narrow.  A
#: REPLY that carried all n PROOF-signatures again reads above 2 at n = 8.
MESSAGE_BAND = (0.75, 1.55)
KIND_BAND = (1.0, 1.15)
#: The model's bytes for ``<REPLY, c, n, L = (), P = ()>``.
HEADER_ONLY_REPLY = 10


@pytest.fixture(scope="module")
def captured() -> dict[int, list]:
    """Every SUBMIT, COMMIT and REPLY of one concurrent run per ``n``."""
    runs = {}
    for n in (2, 8):
        messages = []

        class Tap(UstorServer):
            def on_message(self, src, message) -> None:
                messages.append(message)
                super().on_message(src, message)

            def outgoing_reply(self, src, message, reply):
                messages.append(reply)
                return reply

            def send(self, dst, message) -> None:
                # The REPLY as it leaves, when that is not as it was built.
                if message.kind == "REPLY" and message is not messages[-1]:
                    messages.append(message)
                super().send(dst, message)

        with _open(n, 3, Tap) as system:
            assert _drive(system, n, 3, ops=8, think=0.3).stats.all_done()
        runs[n] = messages
    return runs


@pytest.fixture(scope="module")
def group_commits() -> dict[int, list]:
    """Every COMMIT one replica of a three-replica group receives, per
    ``n``: the form that still carries ``(V_i, M_i)``."""
    runs = {}
    for n in (2, 8):
        commits = []

        class Tap(UstorServer):
            def on_message(self, src, message) -> None:
                if message.kind == "COMMIT" and self.name.endswith("0"):
                    commits.append(message)
                super().on_message(src, message)

        with open_system(
            SystemConfig(num_clients=n, seed=3, replicas=3, server_factory=Tap),
            backend="ustor",
        ) as system:
            assert _drive(system, n, 3, ops=8, think=0.3).stats.all_done()
        runs[n] = commits
    return runs


@pytest.fixture(scope="module")
def digest_runs() -> list[tuple[ReplyMessage, ReplyMessage]]:
    """``(full, sent)`` for every dummy-read REPLY of one FAUST run with
    64-byte values that left in digest form: the REPLY with ``MEM[j]`` as
    the server holds it, and as it was sent."""
    pairs = []

    class Tap(UstorServer):
        def outgoing_reply(self, src, message, reply):
            if reply.mem is not None and type(reply.mem.value) is ValueDigest:
                register = message.invocation.register
                pairs.append((replace(reply, mem=self.state.mem[register]), reply))
            return reply

    with open_system(
        SystemConfig(num_clients=3, seed=3, server_factory=Tap), backend="faust"
    ) as system:
        driver = Driver(system)
        driver.attach_all(
            generate_scripts(
                3,
                WorkloadConfig(
                    ops_per_client=4, read_fraction=0.3, value_size=64,
                    mean_think_time=10.0,
                ),
                random.Random(3),
            )
        )
        system.run(until=300)
        assert driver.stats.all_done()
    assert len(pairs) >= 5
    return pairs


def _is_own(slot) -> bool:
    return type(slot) is RelativeVersion and slot.is_own()


def _is_relative(slot) -> bool:
    return type(slot) is RelativeVersion and not slot.is_own()


class TestSizeModelTracksTheCodec:
    def test_every_shape_is_captured(self, captured):
        replies = [m for run in captured.values() for m in run if m.kind == "REPLY"]
        shapes = {
            "write": any(r.reader_version is None for r in replies),
            "read j = c": any(r.reader_is_last() for r in replies),
            "read j != c": any(
                r.reader_version is not None and not r.reader_is_last()
                for r in replies
            ),
            **{
                f"|L| = {size}": any(len(r.pending) == size for r in replies)
                for size in (0, 1, 2)
            },
            "own form": any(_is_own(r.last_version) for r in replies),
            "relative SVER[c]": any(_is_relative(r.last_version) for r in replies),
            "relative SVER[j]": any(
                _is_relative(r.reader_version) and not r.reader_is_last()
                for r in replies
            ),
        }
        assert all(shapes.values()), shapes

    @pytest.mark.parametrize("n", (2, 8))
    def test_real_bytes_over_model_stay_in_band(self, captured, n):
        totals: dict[str, list[int]] = {}
        for message in captured[n]:
            real, model = len(message_to_payload(message)), message.wire_size()
            # An own-form write REPLY with an empty L is all header: ten
            # bytes in the model, the codec's framing (27 bytes) in fact.
            # Its bytes count in the kind's total below.
            if model > HEADER_ONLY_REPLY:
                assert MESSAGE_BAND[0] <= real / model <= MESSAGE_BAND[1], (
                    message.kind,
                    real / model,
                )
            kind = totals.setdefault(message.kind, [0, 0])
            kind[0] += real
            kind[1] += model
        assert set(totals) == {"SUBMIT", "COMMIT", "REPLY"}
        for kind, (real, model) in totals.items():
            assert KIND_BAND[0] <= real / model <= KIND_BAND[1], (kind, real / model)

    @pytest.mark.parametrize("n", (2, 8))
    @pytest.mark.parametrize("form", ("lone-server", "replica-group"))
    def test_commit_real_bytes_over_model_stay_in_band(
        self, captured, group_commits, form, n
    ):
        # A lone server's COMMIT carries t where the version went; a
        # replica group's carries the version.  Both forms, both sizes.
        if form == "lone-server":
            commits = [m for m in captured[n] if m.kind == "COMMIT"]
            assert all(c.version is None and c.timestamp for c in commits)
        else:
            commits = group_commits[n]
            assert all(c.version is not None for c in commits)
        assert commits
        real = model = 0
        for commit in commits:
            size, modelled = len(message_to_payload(commit)), commit.wire_size()
            assert MESSAGE_BAND[0] <= size / modelled <= MESSAGE_BAND[1]
            assert payload_to_message(message_to_payload(commit)) == commit
            real += size
            model += modelled
        assert KIND_BAND[0] <= real / model <= KIND_BAND[1], real / model

    def test_the_digest_form_stays_in_band(self, digest_runs):
        replies = [full for full, _ in digest_runs] + [
            digest for _, digest in digest_runs
        ]
        for reply in replies:
            real = len(message_to_payload(reply))
            assert MESSAGE_BAND[0] <= real / reply.wire_size() <= MESSAGE_BAND[1]
        real = sum(len(message_to_payload(reply)) for reply in replies)
        model = sum(reply.wire_size() for reply in replies)
        assert KIND_BAND[0] <= real / model <= KIND_BAND[1], real / model

    def test_the_digest_form_saves_what_the_model_says(self, digest_runs):
        # 64-byte values: the model saves 64 - (1 + 32) per REPLY, the
        # codec 66 - 36 (a tag and a length each side, a 1-tuple around
        # the hash).
        for full, digest in digest_runs:
            assert type(digest.mem.value) is ValueDigest
            assert full.mem.value_hash() == digest.mem.value_hash()
            model_saving = full.wire_size() - digest.wire_size()
            real_saving = len(message_to_payload(full)) - len(
                message_to_payload(digest)
            )
            assert model_saving == len(full.mem.value) - 33 == 31
            assert 0.9 <= real_saving / model_saving <= 1.3

    def test_a_digest_request_costs_the_model_nothing(self):
        read = SubmitMessage(2, InvocationTuple(0, OpKind.READ, 1, SIG), None, SIG)
        request = replace(read, digest_only=True)
        assert request.wire_size() == read.wire_size()
        # ``True`` for ``None``: one byte more on the wire.
        assert len(message_to_payload(request)) == len(message_to_payload(read)) + 1

    def test_a_back_reference_saves_what_the_model_says(self, captured):
        # The model and the codec agree on the saving to within the
        # framing of one signed version.
        reply = next(
            r for r in captured[2]
            if r.kind == "REPLY"
            and r.reader_is_last()
            and type(r.last_version) is SignedVersion
        )
        last = reply.last_version
        full = ReplyMessage(
            reply.commit_index,
            last,
            reply.pending,
            reply.proofs,
            SignedVersion(last.version, last.commit_sig),
            reply.mem,
        )
        model_saving = full.wire_size() - reply.wire_size()
        real_saving = len(message_to_payload(full)) - len(message_to_payload(reply))
        assert model_saving == last.wire_size() - 1
        assert 0.9 <= real_saving / model_saving <= 1.3




# --------------------------------------------------------------------- #
# The relative form: versions against the client's committed version
# --------------------------------------------------------------------- #


def _own_form_of(reply: ReplyMessage) -> ReplyMessage:
    """``reply`` with ``SVER[c]`` (and a ``SVER[j]`` that is it) as
    back-references to the client's committed version, whatever the rule
    says."""
    own = RelativeVersion.own(len(reply.proofs))
    return ReplyMessage(
        reply.commit_index,
        own,
        reply.pending,
        reply.proofs,
        own if reply.reader_is_last() else reply.reader_version,
        reply.mem,
        reply.attestation,
    )


def _lying_in_the_mask(reply: ReplyMessage) -> ReplyMessage | None:
    """``reply`` with the first changed entry of its relative ``SVER[c]``
    claimed equal to the client's committed one, or ``None`` when its
    ``SVER[c]`` is not relative."""
    last = reply.last_version
    if not _is_relative(last) or not last.changed:
        return None
    k = next(k for k in range(last.num_clients) if not last.same >> k & 1)
    lie = RelativeVersion(last.same | 1 << k, last.changed[2:], last.commit_sig)
    return ReplyMessage(
        reply.commit_index,
        lie,
        reply.pending,
        reply.proofs,
        lie if reply.reader_is_last() else reply.reader_version,
        reply.mem,
        reply.attestation,
    )


@pytest.fixture(scope="module")
def relative_runs() -> dict[int, list]:
    """Per ``n``: ``(built, sent, base)`` for every REPLY of one concurrent
    run — the REPLY the server built, the one that left, and the
    receiving client's committed version when it arrived."""
    runs = {}
    for n in (2, 8):
        built: dict[str, list] = {}
        sent: dict[str, list] = {}

        class Tap(UstorServer):
            def outgoing_reply(self, src, message, reply):
                built.setdefault(src, []).append(reply)
                return reply

            def send(self, dst, message) -> None:
                sent.setdefault(dst, []).append(message)
                super().send(dst, message)

        triples = []
        with _open(n, 3, Tap) as system:
            for client in system.clients:
                receive = client.on_message

                def spy(src, message, client=client, receive=receive):
                    triples.append((client.name, message, client._committed))
                    receive(src, message)

                client.on_message = spy
            assert _drive(system, n, 3, ops=8, think=0.3).stats.all_done()
        by_client = {name: iter(built[name]) for name in built}
        for name in sent:  # every REPLY that left arrived, in order
            assert [m for to, m, _base in triples if to == name] == sent[name]
        runs[n] = [(next(by_client[name]), m, base) for name, m, base in triples]
    return runs


def _forcing(adversary: str, mutate, restore: bool, holder: list):
    """The ``adversary`` row, sending each REPLY ``mutate`` changes (it
    returns ``None`` for the rest) as changed; with ``restore``, the full
    REPLY that stands for at its client instead.  ``holder[1]`` counts
    the REPLYs changed."""

    def factory(num_clients: int, name: str) -> UstorServer:
        server = ADVERSARIES[adversary].factory(num_clients, name)
        send = server.send

        def forced(dst, message) -> None:
            i = parse_client_name(dst)
            changed = mutate(message, i) if message.kind == "REPLY" else None
            if changed is not None:
                holder[1] += 1
                message = changed
                if restore:
                    message = message.restored(holder[0][i]._committed)
            send(dst, message)

        server.send = forced
        return server

    return factory


def _verdicts_forced(adversary: str, seed: int, mutate) -> list:
    """The run's history and fail reasons with each REPLY ``mutate``
    changes as changed and as the full REPLY it restores to, and how many
    REPLYs each changed."""
    verdicts = []
    for restore in (False, True):
        holder: list = [None, 0]
        with _open(4, seed, _forcing(adversary, mutate, restore, holder)) as system:
            holder[0] = system.clients
            _drive(system, 4, seed, ops=4, think=0.5)
            verdicts.append(
                (
                    history_signature(system.history()),
                    [c.fail_reason for c in system.clients],
                    holder[1],
                )
            )
    return verdicts


def _own_form_everywhere(reply: ReplyMessage, i: int) -> ReplyMessage | None:
    return None if _is_own(reply.last_version) else _own_form_of(reply)


def _own_form_where_c_is_i(reply: ReplyMessage, i: int) -> ReplyMessage | None:
    if _is_own(reply.last_version) or reply.commit_index != i:
        return None
    return _own_form_of(reply)


#: A digest-vector entry: BOTTOM or 32 bytes.
_DIGESTS = st.one_of(st.none(), st.binary(min_size=32, max_size=32))


def _versions(n: int, base_vector, base_digests):
    """A signed version against the base: each entry the base's or not."""
    entry = st.tuples(st.integers(0, 7), _DIGESTS)
    return st.builds(
        lambda picks, sig: SignedVersion(
            Version(
                tuple(b if e is None else e[0] for e, b in zip(picks, base_vector)),
                tuple(b if e is None else e[1] for e, b in zip(picks, base_digests)),
            ),
            sig,
        ),
        st.lists(st.one_of(st.none(), entry), min_size=n, max_size=n),
        st.one_of(st.none(), st.just(SIG), st.binary(min_size=64, max_size=64)),
    )


@st.composite
def _built_replies(draw):
    """A server state whose ``SVER[i]`` counts ``t - 1`` operations of
    ``i``, a SUBMIT from ``i`` at ``t`` and a REPLY to it: any ``c``, ``L``
    and ``SVER[j]``, versions sharing some entries with ``SVER[i]``."""
    n = draw(st.sampled_from((1, 2, 8, 64)))
    i = draw(st.integers(0, n - 1))
    vector = tuple(draw(st.lists(st.integers(0, 7), min_size=n, max_size=n)))
    digests = tuple(draw(st.lists(_DIGESTS, min_size=n, max_size=n)))
    sig = draw(st.one_of(st.none(), st.just(SIG)))
    base = SignedVersion(Version(vector, digests), sig)
    state = ServerState.initial(n)
    state.sver[i] = base
    last = draw(st.one_of(st.just(base), _versions(n, vector, digests)))
    read = draw(st.booleans())
    reader = None
    if read:
        reader = draw(
            st.one_of(st.just(last), st.just(base), _versions(n, vector, digests))
        )
    clients = st.integers(0, n - 1)
    pending = tuple(
        InvocationTuple(k, OpKind.WRITE, k, SIG)
        for k in draw(st.lists(clients, max_size=3))
    )
    proofs = [None] * n
    for entry in pending:
        proofs[entry.client] = SIG
    built = ReplyMessage(
        draw(clients),
        last,
        pending,
        tuple(proofs),
        reader,
        MemEntry(1, b"v", SIG) if read else None,
    )
    submit = SubmitMessage(
        vector[i] + 1, InvocationTuple(i, OpKind.WRITE, i, SIG), b"w", SIG
    )
    return state, submit, built, base


class TestRelativeForm:
    def test_round_trip(self):
        base = SignedVersion(Version((1, 0), (b"\x02" * 32, None)), SIG)
        inv = InvocationTuple(1, OpKind.WRITE, 1, SIG)
        mem = MemEntry(1, b"v", SIG)
        own = RelativeVersion.own(2)
        relative = RelativeVersion(0b01, (1, b"\x03" * 32), b"\x04" * 64)
        for reply in (
            ReplyMessage(0, own, (inv,), (None, SIG)),
            ReplyMessage(0, own, (), (None, None), own, mem),
            ReplyMessage(0, own, (inv,), (None, SIG), base, mem),
            ReplyMessage(0, own, (inv,), (None, SIG), relative, mem),
            ReplyMessage(1, relative, (), (None, None), relative, mem),
            ReplyMessage(1, relative, (), (None, None), own, mem),
        ):
            payload = message_to_payload(reply)
            decoded = _through_the_codec(reply)
            assert decoded == reply
            _kind, fields = decode_payload(payload)
            # n in own form; else (mask, changed, sig) where SVER[c] went.
            sent = (relative.same, relative.changed, relative.commit_sig)
            assert fields[1] == (2 if reply.last_version is own else sent)
            assert message_to_payload(decoded.restored(base)) != payload
        restored = relative.restored(base)
        assert restored == SignedVersion(
            Version((1, 1), (b"\x02" * 32, b"\x03" * 32)), b"\x04" * 64
        )
        assert RelativeVersion.of(restored, base) == relative
        assert own.restored(base) == base and own.restored(base) is not base

    def test_an_equal_entry_of_another_type_is_not_the_bases(self):
        # ``True == 1``, but the COMMIT-signature covers the bool: an
        # entry only equal to the base's travels as changed, so the
        # client verifies the version the server built.
        base = SignedVersion(Version((1, 0), (b"\x02" * 32, None)), SIG)
        twin = SignedVersion(Version((True, 0), (b"\x02" * 32, None)), b"\x03" * 64)
        relative = RelativeVersion.of(twin, base)
        assert relative == RelativeVersion(0b10, (True, b"\x02" * 32), b"\x03" * 64)
        assert relative.restored(base).version.vector[0] is True
        decoded = _through_the_codec(ReplyMessage(0, relative, (), (None, None)))
        assert decoded.restored(base).last_version.version.vector[0] is True

    def test_a_relative_version_of_another_population_keeps_its_own(self):
        # A server of three clients answering a client of two: the REPLY
        # decodes, and restores to versions of three entries, which the
        # client refuses as it refuses a full version of that size
        # ("REPLY carries malformed vectors") — never an IndexError.
        base = SignedVersion(Version((1, 0), (b"\x02" * 32, None)), SIG)
        wider = RelativeVersion(0b101, (4, b"\x03" * 32), b"\x04" * 64)
        assert wider.restored(base) == SignedVersion(
            Version((1, 4, 0), (b"\x02" * 32, b"\x03" * 32, None)), b"\x04" * 64
        )
        assert RelativeVersion.own(3).restored(base).version.num_clients == 3
        narrower = RelativeVersion(0b1, (), b"\x04" * 64)
        assert narrower.restored(base).version == Version((1,), (b"\x02" * 32,))

    @settings(max_examples=150, deadline=None)
    @given(case=_built_replies())
    def test_relativised_encoded_decoded_restored_is_the_built_reply(self, case):
        state, submit, built, base = case
        sent = relative_form(state, submit, built, None)
        decoded = payload_to_message(message_to_payload(sent))
        assert message_to_payload(decoded) == message_to_payload(sent)
        for arrived in (sent, decoded):
            restored = arrived.restored(base)
            assert restored == built
            assert _read_by_algorithm_1(restored) == _read_by_algorithm_1(built)
            assert restored.reader_is_last() == built.reader_is_last()
        assert sent.wire_size() <= built.wire_size()

    @pytest.mark.parametrize("n", (2, 8))
    def test_restored_is_the_built_reply_field_for_field(self, relative_runs, n):
        triples = relative_runs[n]
        assert any(_is_own(s.last_version) for _, s, _ in triples)
        assert any(_is_relative(s.last_version) for _, s, _ in triples)
        for built, sent, base in triples:
            restored = sent.restored(base)
            assert restored == built
            assert _read_by_algorithm_1(restored) == _read_by_algorithm_1(built)
            decoded = payload_to_message(message_to_payload(sent)).restored(base)
            assert _read_by_algorithm_1(decoded) == _read_by_algorithm_1(built)
            assert decoded.reader_is_last() == built.reader_is_last()
            if _is_own(sent.last_version):
                assert built.last_version == base

    def test_a_read_of_ones_own_register_back_references_both(self):
        # c = i = j: SVER[j] is SVER[c], and each travels as a marker.
        state = ServerState.initial(2)
        write = SubmitMessage(1, InvocationTuple(0, OpKind.WRITE, 0, SIG), b"v", SIG)
        apply_submit(state, write)
        apply_commit(state, 0, CommitMessage(None, SIG, SIG, timestamp=1))
        read = SubmitMessage(2, InvocationTuple(0, OpKind.READ, 0, SIG), None, SIG)
        built = apply_submit(state, read)
        sent = relative_form(state, read, built, None)
        assert _is_own(sent.last_version) and sent.reader_is_last()
        assert sent.restored(state.sver[0]) == built
        decoded = _through_the_codec(sent).restored(state.sver[0])
        assert _read_by_algorithm_1(decoded) == _read_by_algorithm_1(built)
        # SVER[j] was a marker already; SVER[c] becomes one.
        assert built.reader_is_last()
        assert sent.wire_size() == built.wire_size() - (
            built.last_version.wire_size() - 1
        )

    @pytest.mark.parametrize("n", (2, 8))
    def test_the_relative_form_saves_what_the_model_says(self, relative_runs, n):
        # Per REPLY the model's 8-byte ints overstate a small version's
        # varints; summed over the run the two agree closely.
        real = model = 0
        for built, sent, _base in relative_runs[n]:
            if sent is built:
                continue
            saved = built.wire_size() - sent.wire_size()
            slots = [(built.last_version, sent.last_version)]
            if not built.reader_is_last() and built.reader_version is not None:
                slots.append((built.reader_version, sent.reader_version))
            assert saved == sum(b.wire_size() - s.wire_size() for b, s in slots)
            assert saved > 0
            real += len(message_to_payload(built)) - len(message_to_payload(sent))
            model += saved
        assert 0.9 <= real / model <= 1.3, (real, model)

    @pytest.mark.parametrize(
        "adversary", ["correct", "replay", "rollback", "split-brain"]
    )
    def test_a_back_reference_where_c_is_not_i_is_judged_as_the_full_reply(
        self, adversary
    ):
        # Every REPLY in own form: when c != i the client's own version
        # carries C_i's signature where C_c's must verify, and line 35
        # says so — the verdict the full REPLY the back-reference stands
        # for gets.
        misused, full = _verdicts_forced(adversary, 5, _own_form_everywhere)
        assert misused == full
        assert any("(line 35)" in (reason or "") for reason in misused[1])

    @pytest.mark.parametrize("adversary", ["replay", "rollback", "forging"])
    def test_a_back_reference_to_a_stale_sver_i_is_judged_as_the_full_reply(
        self, adversary
    ):
        # c = i, but the server's SVER[i] is not the version i committed
        # at t - 1 (frozen, rolled back or forged), so the rule sends it
        # in full; back-referenced anyway, the REPLY is judged as the
        # full one it stands for.
        misused, full = _verdicts_forced(adversary, 6, _own_form_where_c_is_i)
        assert misused[2] >= 1, "the rule never sent a c = i REPLY in full"
        assert misused == full
        assert any(reason for reason in misused[1]), "nothing was caught"

    @pytest.mark.parametrize("adversary", ["correct", "replay", "split-brain"])
    def test_a_lie_in_the_mask_is_judged_as_the_full_reply(self, adversary):
        # A changed entry claimed equal restores to the client's own
        # entry, which C_c's COMMIT-signature does not cover: line 35
        # says so, as it does for the full REPLY the lie restores to.
        lied, full = _verdicts_forced(
            adversary, 7, lambda reply, i: _lying_in_the_mask(reply)
        )
        assert lied[2] >= 1, "no REPLY carried a relative SVER[c]"
        assert lied == full
        assert any("(line 35)" in (reason or "") for reason in lied[1])


# --------------------------------------------------------------------- #
# The digest form: a dummy read fetches H(x_j), not x_j
# --------------------------------------------------------------------- #


def _faust_observed(server_factory, value_size: int) -> tuple[dict, int]:
    """One seeded FAUST run with ``value_size``-byte values: everything
    observable but the REPLY bytes, and the REPLY bytes."""
    with open_system(
        SystemConfig(num_clients=3, seed=8, server_factory=server_factory),
        backend="faust",
    ) as system:
        records = []
        system.trace.tap(records.append)
        driver = Driver(system)
        driver.attach_all(
            generate_scripts(
                3,
                WorkloadConfig(
                    ops_per_client=5, read_fraction=0.4, value_size=value_size,
                    mean_think_time=12.0,
                ),
                random.Random(8),
            )
        )
        system.run(until=400)
        trace = system.trace
        observed = {
            "completed": driver.stats.total_completed(),
            "history": history_signature(system.history()),
            "fail_reasons": [c.fail_reason for c in system.clients],
            "dummy_reads": [c.dummy_reads_issued for c in system.clients],
            "events": system.scheduler.events_processed,
            "now": system.now,
            "notes": trace.notes,
            "messages": [
                (m.sent_at, m.delivered_at, m.src, m.dst, m.kind)
                + (() if m.kind == "REPLY" else (m.size,))
                for m in records
            ],
        }
        # An empty list would make the two runs vacuously equal.
        assert records, "the tap saw no message"
        return observed, trace.total_bytes("REPLY")


class TestDigestForm:
    @pytest.mark.parametrize("size", (1, 32, 33, 34, 64, 4096))
    def test_a_server_that_sends_full_values_runs_the_same_run(self, size):
        shipped, digest_bytes = _faust_observed(UstorServer, size)
        full, full_bytes = _faust_observed(SendsFullValues, size)
        assert shipped == full
        assert shipped["completed"] == 15
        assert not any(shipped["fail_reasons"])
        assert sum(shipped["dummy_reads"]) > 0
        if size <= 33:
            assert digest_bytes == full_bytes
        else:
            assert digest_bytes < full_bytes

    def test_the_request_is_not_logged(self):
        # The WAL holds the transition; the request is about the REPLY.
        read = SubmitMessage(2, InvocationTuple(0, OpKind.READ, 1, SIG), None, SIG)
        request = replace(read, digest_only=True)
        assert encode_wal_record([wal_entry_to_tuple(7, ("S", request))]) == (
            encode_wal_record([wal_entry_to_tuple(7, ("S", read))])
        )
