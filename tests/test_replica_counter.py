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

import shutil
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.common.errors import ConfigurationError, StorageError
from repro.common.types import OpKind, client_name
from repro.replica.counter import (
    COUNTER_MAC_BYTES,
    CounterAttestation,
    CounterVerifier,
    MonotonicCounter,
    derive_counter_key,
    ops_accounted,
)
from repro.store.engine import make_server
from repro.ustor.messages import InvocationTuple, SubmitMessage


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

    def test_configuration_errors(self):
        with pytest.raises(ConfigurationError, match="non-empty id"):
            MonotonicCounter("")

    def test_recover_adopts_exactly_one_step_ahead(self, tmp_path):
        path = str(tmp_path / "counter.state")
        counter = MonotonicCounter("S/r0", state_path=path)
        counter.attest(b"a", 1)
        counter.recover(2)  # the one SUBMIT a kill can strand
        assert counter.value == 2
        assert MonotonicCounter("S/r0", state_path=path).value == 2
        for behind_or_beyond in (0, 1, 2, 4, 10):
            counter.recover(behind_or_beyond)
            assert counter.value == 2

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

    def test_state_reported_ahead_of_counter_is_rejected(self):
        counter, verifier = self.make()
        for position in range(1, 4):
            binding = f"s{position}".encode()
            assert (
                verifier.check(
                    "S/r0", reply_with(counter.attest(binding, position)), binding
                )
                is None
            )
        # A server lying upward to its counter: the state claims one more
        # applied SUBMIT than the counter has stepped.
        violation = verifier.check(
            "S/r0", reply_with(counter.attest(b"s4", 5)), b"s4"
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


class _Killed(Exception):
    """The process died here."""


class TestCrashWindow:
    """A ``repro serve --counter durable --storage dir:`` process appends
    each SUBMIT to its WAL (one ``write(2)``, which outlives the process)
    before the counter persists its step, so a kill between the two
    restarts with the state one SUBMIT ahead of the counter file.  Binding
    the counter at process start adopts that one step; a rollback, which
    leaves the state behind the counter, is still convicted."""

    def _open(self, directory):
        server = make_server(
            2,
            "S",
            storage=f"dir:{directory}",
            counter="durable",
            counter_state_path=str(directory / "counter.state"),
        )
        replies = []
        server.send = lambda dst, reply: replies.append(reply)
        return server, replies

    def _submit(self, server, client, timestamp):
        sig = f"sig-{client}-{timestamp}".encode()
        message = SubmitMessage(
            timestamp=timestamp,
            invocation=InvocationTuple(
                client=client, opcode=OpKind.WRITE, register=client, submit_sig=sig
            ),
            value=f"v{client}.{timestamp}".encode(),
            data_sig=sig,
        )
        server.handle_submit(client_name(client), message)
        return sig

    def _verdict(self, verifier, replies, sig):
        return verifier.check("S", replies[-1], sig)

    def _kill_in_window(self, server, monkeypatch, client, timestamp):
        """Apply and log a SUBMIT, then die before the counter persists."""

        def killed(counter):
            raise _Killed

        with monkeypatch.context() as patch:
            patch.setattr(MonotonicCounter, "_persist", killed)
            with pytest.raises(_Killed):
                self._submit(server, client, timestamp)
        server.engine.close()

    def test_kill_between_wal_append_and_counter_persist(
        self, tmp_path, monkeypatch
    ):
        server, replies = self._open(tmp_path)
        verifier = CounterVerifier()
        assert self._verdict(verifier, replies, self._submit(server, 0, 1)) is None

        self._kill_in_window(server, monkeypatch, 0, 2)

        restarted, replies = self._open(tmp_path)
        assert restarted.state.submits_applied == 2
        sig = self._submit(restarted, 1, 1)
        assert self._verdict(verifier, replies, sig) is None
        assert restarted.counter.value == 3

    @pytest.mark.parametrize("kill_first", [False, True])
    def test_rollback_after_restart_is_still_convicted(
        self, tmp_path, monkeypatch, kill_first
    ):
        live, stale = tmp_path / "live", tmp_path / "stale"
        live.mkdir()
        server, _ = self._open(live)
        self._submit(server, 0, 1)
        shutil.copytree(live, stale)  # yesterday's backup: one SUBMIT
        self._submit(server, 1, 1)
        if kill_first:
            self._kill_in_window(server, monkeypatch, 0, 2)
        else:
            server.engine.close()
        # The trusted counter cannot be rewound with the backup.
        shutil.copy(live / "counter.state", stale / "counter.state")

        restarted, replies = self._open(stale)
        assert restarted.state.submits_applied == 1
        assert restarted.counter.value == 2
        sig = self._submit(restarted, 1, 1)
        violation = self._verdict(CounterVerifier(), replies, sig)
        assert violation is not None and "rolled back" in violation
