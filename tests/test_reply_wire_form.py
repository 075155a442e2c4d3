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
  a submitter outside ``0..n-1``, a back-reference without ``MEM[j]``;
* **the size model tracks the codec** — real bytes over ``wire_size()``
  stay in one pinned band for SUBMIT, COMMIT and every REPLY shape.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import SystemConfig, open_system
from repro.common.encoding import encode
from repro.common.errors import EncodingError
from repro.common.types import OpKind
from repro.net.trace import history_signature
from repro.net.wire import decode_payload, message_to_payload, payload_to_message
from repro.ustor.byzantine import ADVERSARIES
from repro.ustor.messages import (
    InvocationTuple,
    MemEntry,
    ReplyMessage,
    SignedVersion,
)
from repro.ustor.server import UstorServer
from repro.ustor.version import Version
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts

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
            reply.trace_id,
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
}


class TestMalformedRefused:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_decoder_refuses(self, case):
        with pytest.raises(EncodingError):
            payload_to_message(encode(("REPLY", MALFORMED[case])))

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

        with _open(n, 3, Tap) as system:
            assert _drive(system, n, 3, ops=8, think=0.3).stats.all_done()
        runs[n] = messages
    return runs


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
        }
        assert all(shapes.values()), shapes

    @pytest.mark.parametrize("n", (2, 8))
    def test_real_bytes_over_model_stay_in_band(self, captured, n):
        totals: dict[str, list[int]] = {}
        for message in captured[n]:
            real, model = len(message_to_payload(message)), message.wire_size()
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

    def test_a_back_reference_saves_what_the_model_says(self, captured):
        # The model and the codec agree on the saving to within the
        # framing of one signed version.
        reply = next(r for r in captured[2] if r.kind == "REPLY" and r.reader_is_last())
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
