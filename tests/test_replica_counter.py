"""Unit tests for the trusted monotonic counter (repro.replica.counter).

The counter's contract is the Memoir-style state-continuity check: it
attests its own value *and* the stream position the server's durable
state reported, MAC'd together under a key the server never holds, and
the client-side verifier accepts only attestations where the two agree.
A rollback rewinds the state's position but never the counter, so the
pair diverges permanently — which is what every test here pins from both
sides (honest lockstep accepted, every tampering axis rejected).
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.common.errors import ConfigurationError, StorageError
from repro.replica.counter import (
    COUNTER_MAC_BYTES,
    CounterAttestation,
    CounterVerifier,
    MonotonicCounter,
    derive_counter_key,
    ops_accounted,
)


def reply_with(attestation):
    """The verifier only dereferences ``reply.attestation``."""
    return SimpleNamespace(attestation=attestation)


class TestMonotonicCounter:
    def test_attest_increments_and_binds_both_values(self):
        counter = MonotonicCounter("S/r0")
        first = counter.attest(b"sig-1", 1)
        second = counter.attest(b"sig-2", 2)
        assert (first.value, second.value) == (1, 2)
        assert (first.state_value, second.state_value) == (1, 2)
        assert first.binding == b"sig-1"
        assert len(first.mac) == COUNTER_MAC_BYTES
        assert counter.value == 2
        assert counter.attestations == 2

    def test_durable_counter_survives_crash_volatile_does_not(self):
        durable = MonotonicCounter("S/r0", durable=True)
        volatile = MonotonicCounter("S/r1", durable=False)
        durable.attest(b"s", 1)
        volatile.attest(b"s", 1)
        durable.on_crash()
        volatile.on_crash()
        assert durable.value == 1
        assert volatile.value == 0
        assert volatile.resets == 1

    def test_state_path_persists_across_instances(self, tmp_path):
        path = str(tmp_path / "counter.state")
        counter = MonotonicCounter("S/r0", state_path=path)
        counter.attest(b"a", 1)
        counter.attest(b"b", 2)
        reborn = MonotonicCounter("S/r0", state_path=path)
        assert reborn.value == 2
        assert reborn.attest(b"c", 3).value == 3

    def test_state_file_belonging_to_another_counter_is_rejected(self, tmp_path):
        path = str(tmp_path / "counter.state")
        MonotonicCounter("S/r0", state_path=path).attest(b"a", 1)
        with pytest.raises(StorageError, match="does not belong"):
            MonotonicCounter("S/r1", state_path=path)

    def test_corrupt_state_file_is_rejected(self, tmp_path):
        path = tmp_path / "counter.state"
        path.write_text("S/r0 -3\n")
        with pytest.raises(StorageError, match="holds -3"):
            MonotonicCounter("S/r0", state_path=str(path))

    def test_configuration_errors(self, tmp_path):
        with pytest.raises(ConfigurationError, match="non-empty id"):
            MonotonicCounter("")
        with pytest.raises(ConfigurationError, match="volatile counter"):
            MonotonicCounter(
                "S", durable=False, state_path=str(tmp_path / "c.state")
            )

    def test_key_derivation_is_per_counter(self):
        assert derive_counter_key("S/r0") != derive_counter_key("S/r1")

    def test_wire_size_counts_both_integers(self):
        attestation = MonotonicCounter("S/r0").attest(b"x" * 64, 1)
        assert attestation.wire_size() == len("S/r0") + 16 + 64 + 32


class TestCounterVerifier:
    def make(self, counter_id="S/r0"):
        return MonotonicCounter(counter_id), CounterVerifier()

    def test_honest_lockstep_is_accepted(self):
        counter, verifier = self.make()
        for position in range(1, 5):
            binding = f"sig-{position}".encode()
            reply = reply_with(counter.attest(binding, position))
            assert verifier.check("S/r0", reply, binding) is None

    def test_rollback_diverges_counter_ahead_of_state(self):
        counter, verifier = self.make()
        assert verifier.check("S/r0", reply_with(counter.attest(b"a", 1)), b"a") is None
        # The state rolled back: it re-reports position 1 for the next
        # SUBMIT while the counter (correctly) keeps climbing.
        violation = verifier.check(
            "S/r0", reply_with(counter.attest(b"b", 1)), b"b"
        )
        assert violation is not None and "rolled back" in violation

    def test_volatile_reset_diverges_state_ahead_of_counter(self):
        counter, verifier = self.make()
        counter.durable = False
        for position in range(1, 4):
            binding = f"s{position}".encode()
            assert (
                verifier.check(
                    "S/r0", reply_with(counter.attest(binding, position)), binding
                )
                is None
            )
        counter.on_crash()  # honest server: state keeps its position
        fresh = CounterVerifier()  # a client with no monotonicity memory
        violation = fresh.check(
            "S/r0", reply_with(counter.attest(b"s4", 4)), b"s4"
        )
        assert violation is not None and "ran ahead" in violation

    def test_missing_attestation(self):
        _, verifier = self.make()
        violation = verifier.check("S/r0", reply_with(None), b"x")
        assert "no counter attestation" in violation

    def test_wrong_counter_id(self):
        counter, verifier = self.make()
        reply = reply_with(counter.attest(b"x", 1))
        violation = verifier.check("S/r1", reply, b"x")
        assert "names counter" in violation

    def test_mac_tamper_is_rejected(self):
        counter, verifier = self.make()
        attestation = counter.attest(b"x", 1)
        forged = replace(
            attestation,
            mac=bytes([attestation.mac[0] ^ 1]) + attestation.mac[1:],
        )
        assert "not authentic" in verifier.check("S/r0", reply_with(forged), b"x")

    def test_server_cannot_adjust_state_value_after_minting(self):
        # The whole point of MAC'ing the pair: a rolled-back server that
        # edits state_value to match the counter breaks the MAC instead.
        counter, verifier = self.make()
        attestation = counter.attest(b"x", 1)
        doctored = replace(attestation, state_value=attestation.value + 5)
        assert "not authentic" in verifier.check(
            "S/r0", reply_with(doctored), b"x"
        )

    def test_replayed_attestation_fails_the_binding_check(self):
        counter, verifier = self.make()
        old = counter.attest(b"operation-1", 1)
        assert "replayed" in verifier.check("S/r0", reply_with(old), b"operation-2")

    def test_repeated_value_fails_monotonicity(self):
        counter, verifier = self.make()
        attestation = counter.attest(b"x", 1)
        assert verifier.check("S/r0", reply_with(attestation), b"x") is None
        assert "backwards" in verifier.check("S/r0", reply_with(attestation), b"x")

    def test_counters_are_judged_independently(self):
        verifier = CounterVerifier()
        a, b = MonotonicCounter("S/r0"), MonotonicCounter("S/r1")
        for position in (1, 2):
            binding = f"s{position}".encode()
            assert (
                verifier.check(
                    "S/r0", reply_with(a.attest(binding, position)), binding
                )
                is None
            )
        # r1 starting from 1 is fine: monotonicity is per counter id.
        assert verifier.check("S/r1", reply_with(b.attest(b"t", 1)), b"t") is None

    def test_key_is_derived_once_per_counter(self, monkeypatch):
        import repro.replica.counter as counter_module

        derived = []

        def counting(counter_id):
            derived.append(counter_id)
            return derive_counter_key(counter_id)

        verifier = CounterVerifier()
        a, b = MonotonicCounter("S/r0"), MonotonicCounter("S/r1")
        monkeypatch.setattr(counter_module, "derive_counter_key", counting)
        for position in range(1, 4):
            for counter in (a, b):
                binding = f"{counter.counter_id}-{position}".encode()
                reply = reply_with(counter.attest(binding, position))
                assert verifier.check(counter.counter_id, reply, binding) is None
        assert derived == ["S/r0", "S/r1"]
        # A forged MAC is still judged against the cached key.
        forged = replace(a.attest(b"x", 4), mac=b"\x00" * COUNTER_MAC_BYTES)
        assert "not authentic" in verifier.check("S/r0", reply_with(forged), b"x")


class TestOpsAccounted:
    def test_counts_committed_vector_plus_pending(self):
        reply = SimpleNamespace(
            last_version=SimpleNamespace(
                version=SimpleNamespace(vector=(2, 1, 0))
            ),
            pending=("inv-a", "inv-b"),
        )
        assert ops_accounted(reply) == 5
