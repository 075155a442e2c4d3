"""Recorded real runs replay on the simulator to identical results.

The acceptance property of the real transport: every TCP run records an
append-only JSONL wire trace from the clients' vantage point, and
replaying that trace on the deterministic sim backend reproduces

* every client-to-server frame byte-for-byte (signatures included —
  the keys are deterministic in ``(scheme, n)``),
* the same history up to wall-clock instants
  (:func:`~repro.net.trace.history_signature`),
* the same consistency-checker verdicts and the same ``fail_i``
  outcomes — including under injected disconnects and a Byzantine
  server.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.common.errors import ConfigurationError
from repro.consistency.causal import check_causal_consistency
from repro.consistency.linearizability import check_linearizability
from repro.net.client import NetRuntime, open_tcp_system
from repro.net.server import NetServerHost
from repro.net.trace import history_signature, load_trace, replay_trace
from repro.ustor.byzantine import TamperingServer
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts

pytestmark = pytest.mark.net


def record_loopback_run(
    tmp_path,
    *,
    num_clients: int = 3,
    server_factory=None,
    drive=None,
):
    """Run a recorded loopback workload; returns (trace_path, history)."""
    trace_path = tmp_path / "run.jsonl"
    runtime = NetRuntime()
    host = NetServerHost(num_clients, server_factory=server_factory)
    runtime.run_coroutine(host.start())
    system = open_tcp_system(
        num_clients,
        (host.endpoint,),
        runtime=runtime,
        trace_path=str(trace_path),
        default_timeout=5.0,
    )
    system.hosts.append(host)
    system.owns_runtime = True
    with system:
        drive(system)
        system.run_until_quiescent(timeout=5.0)
        history = system.history()
        real_failures = {
            c.client_id: c.fail_reason for c in system.clients if c.failed
        }
    return trace_path, history, real_failures


def drive_workload(seed: int = 11, ops: int = 5):
    def drive(system) -> None:
        scripts = generate_scripts(
            len(system.clients),
            WorkloadConfig(
                ops_per_client=ops, read_fraction=0.5, mean_think_time=0.004
            ),
            random.Random(seed),
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        assert driver.run_to_completion(timeout=20.0)

    return drive


class TestReplayEquivalence:
    def test_correct_run_replays_byte_identically(self, tmp_path):
        trace_path, history, failures = record_loopback_run(
            tmp_path, drive=drive_workload()
        )
        assert not failures
        result = replay_trace(str(trace_path))
        assert result.divergences == []
        assert history_signature(result.history) == history_signature(history)
        for checker in (check_linearizability, check_causal_consistency):
            assert checker(result.history).ok == checker(history).ok

    def test_run_with_injected_disconnects_replays_identically(self, tmp_path):
        # Kill every live connection between operations: the clients
        # reconnect and retransmit (flagged retx in the trace), and the
        # replay — which skips retx frames — still matches exactly.
        def drive(system) -> None:
            sessions = [system.session(i) for i in range(3)]
            for round_no in range(4):
                for i, session in enumerate(sessions):
                    session.write_sync(f"r{round_no}-c{i}".encode())
                for connection in system.connections:
                    if connection._writer is not None:
                        connection._writer.close()
            for session in sessions:
                value, _t = session.read_sync(0)
                assert value == b"r3-c0"

        trace_path, history, failures = record_loopback_run(
            tmp_path, drive=drive
        )
        assert not failures
        header, records = load_trace(str(trace_path))
        assert any(
            r["t"] == "frame" and r.get("retx") for r in records
        ), "the disconnect injection never forced a retransmission"
        result = replay_trace(str(trace_path))
        assert result.divergences == []
        assert history_signature(result.history) == history_signature(history)
        assert not result.fail_reasons()

    def test_byzantine_run_replays_same_fail_verdicts(self, tmp_path):
        # A tampering server corrupts reads of register 0 (caught at
        # Algorithm 1 line 50).  The replay re-delivers the recorded
        # bytes to fresh clients and must re-derive the same fail_i.
        def drive(system) -> None:
            writer = system.session(0)
            reader = system.session(1, timeout=1.0)
            writer.write_sync(b"the-truth")
            with pytest.raises(Exception):
                reader.read_sync(0)  # fails or times out: server is lying

        trace_path, history, failures = record_loopback_run(
            tmp_path,
            server_factory=lambda n, name: TamperingServer(
                n, target_register=0, name=name
            ),
            drive=drive,
        )
        assert 1 in failures and "line 50" in failures[1]
        result = replay_trace(str(trace_path))
        assert result.divergences == []
        assert history_signature(result.history) == history_signature(history)
        assert result.fail_reasons() == failures
        # The verdict the trace supports is the clients': detection,
        # not silent corruption — on the replay exactly as live.
        assert not check_linearizability(result.history).ok or failures


class TestTraceFormat:
    def test_trace_is_json_lines_with_header_first(self, tmp_path):
        trace_path, _history, _failures = record_loopback_run(
            tmp_path, drive=drive_workload(ops=2)
        )
        lines = trace_path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["t"] == "header"
        assert records[0]["v"] == 3
        assert records[0]["n"] == 3
        kinds = {r["t"] for r in records}
        assert {"header", "invoke", "response", "frame"} <= kinds
        seqs = [r["seq"] for r in records[1:]]
        assert seqs == sorted(seqs)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t":"invoke","seq":0,"c":0}\n')
        with pytest.raises(ConfigurationError, match="header"):
            load_trace(str(path))

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text('{"t":"header","v":99,"n":1,"server":"S","seq":0}\n')
        with pytest.raises(ConfigurationError, match="version"):
            load_trace(str(path))

    def test_trace_of_the_eight_byte_length_format_refused(self, tmp_path, capsys):
        # v1 traces hold frames with 8-byte length fields; this build's
        # decoder would not read them, so the header is where they stop.
        from repro.cli import main

        old_frame = (b"\x05" + (1).to_bytes(8, "big") + b"\x00").hex()
        path = tmp_path / "v1.jsonl"
        path.write_text(
            '{"t":"header","v":1,"n":1,"scheme":"hmac","server":"S","seq":0}\n'
            '{"t":"frame","seq":1,"dir":"c2s","c":0,"retx":false,'
            f'"payload":"{old_frame}","at":0.0}}\n'
        )
        with pytest.raises(ConfigurationError, match=r"version 1 .*reads v3"):
            load_trace(str(path))
        assert main(["replay", "--trace", str(path)]) == 1
        assert "this build reads v3" in capsys.readouterr().out

    def test_trace_of_the_all_proofs_reply_form_refused(self, tmp_path, capsys):
        # v2 REPLYs carry all n PROOF-signatures: ("REPLY", (c, SVER[c], L,
        # P, ...)) with L empty and P full is what this build's decoder
        # refuses as "2 proofs for 0 submitters" — the header stops it first.
        from repro.cli import main
        from repro.common.encoding import encode
        from repro.common.errors import EncodingError
        from repro.net.wire import payload_to_message

        zero = (((0, 0), (None, None)), None)
        v2_reply = encode(("REPLY", (0, zero, (), (b"p" * 64, b"q" * 64), None, None)))
        with pytest.raises(EncodingError, match="2 proofs for 0 submitters"):
            payload_to_message(v2_reply)
        path = tmp_path / "v2.jsonl"
        path.write_text(
            '{"t":"header","v":2,"n":2,"scheme":"hmac","server":"S","seq":0}\n'
            '{"t":"frame","seq":1,"dir":"s2c","c":0,"retx":false,'
            f'"payload":"{v2_reply.hex()}","at":0.0}}\n'
        )
        with pytest.raises(ConfigurationError, match=r"version 2 .*reads v3"):
            load_trace(str(path))
        assert main(["replay", "--trace", str(path)]) == 1
        assert "trace version 2 unsupported" in capsys.readouterr().out

    def test_history_signature_strips_only_the_clock(self):
        from repro.history.events import Operation
        from repro.history.history import History
        from repro.common.types import OpKind

        def op(value, responded):
            return Operation(
                op_id=1,
                client=0,
                kind=OpKind.WRITE,
                register=0,
                value=value,
                invoked_at=1.23,
                responded_at=responded,
                timestamp=1,
            )

        base = history_signature(History([op(b"x", 4.56)]))
        later = history_signature(History([op(b"x", 9.99)]))
        other = history_signature(History([op(b"y", 4.56)]))
        unresponded = history_signature(History([op(b"x", None)]))
        assert base == later  # wall-clock differences are invisible
        assert base != other
        assert base != unresponded
