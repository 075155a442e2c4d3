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
import re

import pytest

from repro.api import SystemConfig, open_system
from repro.common.errors import ConfigurationError
from repro.common.types import ValueDigest
from repro.consistency.causal import check_causal_consistency
from repro.consistency.linearizability import check_linearizability
from repro.net.client import NetRuntime
from repro.net.server import NetServerHost
from repro.net.trace import history_signature, load_trace, replay_trace
from repro.net.wire import payload_to_message
from repro.ustor.byzantine import TamperingServer
from repro.ustor.messages import SubmitMessage
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts

pytestmark = pytest.mark.net


def record_loopback_run(
    tmp_path,
    *,
    num_clients: int = 3,
    server_factory=None,
    drive=None,
    host_class=NetServerHost,
):
    """Run a recorded loopback workload; returns (trace_path, history)."""
    trace_path = tmp_path / "run.jsonl"
    runtime = NetRuntime()
    host = host_class(num_clients, server_factory=server_factory)
    runtime.run_coroutine(host.start())
    system = open_system(
        SystemConfig(
            num_clients,
            transport="tcp",
            endpoints=(host.endpoint,),
            trace_path=str(trace_path),
            default_timeout=5.0,
        ),
        backend="ustor",
        runtime=runtime,
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


def drive_workload(seed: int = 11, ops: int = 5, value_size: int = 32):
    def drive(system) -> None:
        scripts = generate_scripts(
            len(system.clients),
            WorkloadConfig(
                ops_per_client=ops,
                read_fraction=0.5,
                mean_think_time=0.004,
                value_size=value_size,
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

    def test_a_run_recording_digests_replays_identically(self, tmp_path):
        # 64 B values: both sides record H(x) (and render it alike).
        trace_path, history, failures = record_loopback_run(
            tmp_path, drive=drive_workload(value_size=64)
        )
        assert not failures
        assert any(type(op.value) is ValueDigest for op in history)
        result = replay_trace(str(trace_path))
        assert result.divergences == []
        assert history_signature(result.history) == history_signature(history)

    def test_replica_group_run_replays_byte_identically(self, tmp_path):
        # The trace holds each round's winner (restored, attestation
        # stripped) and replica 0's copy of each broadcast; the replayed
        # group clients send the same versioned COMMITs.
        trace_path = tmp_path / "group.jsonl"
        runtime = NetRuntime()
        hosts = [NetServerHost(2, server_name=f"S/r{k}") for k in range(3)]
        for host in hosts:
            runtime.run_coroutine(host.start())
        system = open_system(
            SystemConfig(
                2,
                transport="tcp",
                endpoints=tuple(h.endpoint for h in hosts),
                replicas=3,
                trace_path=str(trace_path),
                default_timeout=5.0,
            ),
            backend="ustor",
            runtime=runtime,
        )
        system.hosts.extend(hosts)
        system.owns_runtime = True
        with system:
            drive_workload(ops=4)(system)
            system.run_until_quiescent(timeout=5.0)
            history = system.history()
        result = replay_trace(str(trace_path))
        assert result.divergences == []
        assert history_signature(result.history) == history_signature(history)
        assert not result.fail_reasons()

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
                    if connection.transport is not None:
                        connection.transport.close()
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


    def test_undecodable_server_frame_is_skipped_as_the_client_did(self, tmp_path):
        # The server answers C1's first SUBMIT with well-framed bytes that
        # do not decode.  The live client records the frame, drops the
        # connection, reconnects and retransmits; the replay must skip
        # the frame the same way rather than raise on it.
        class GarblingHost(NetServerHost):
            garbled = False

            def _write_frame(self, dst, payload):
                if dst == "C1" and not self.garbled:
                    self.garbled = True
                    payload = bytes.fromhex("ff00")
                super()._write_frame(dst, payload)

        trace_path, history, failures = record_loopback_run(
            tmp_path, drive=drive_workload(ops=3), host_class=GarblingHost
        )
        assert not failures
        _header, records = load_trace(str(trace_path))
        assert any(
            r.get("dir") == "s2c" and r["payload"] == "ff00" for r in records
        ), "the server never sent the undecodable frame"
        result = replay_trace(str(trace_path))
        assert result.ok, result.divergences
        assert history_signature(result.history) == history_signature(history)

    def test_a_submit_before_the_previous_reply_is_a_divergence(self, tmp_path):
        # A correct client sends no second SUBMIT before its first REPLY.
        # The replayed client would only queue such an invocation, so the
        # replay names the frame instead of waiting on it silently.
        trace_path, _history, _failures = record_loopback_run(
            tmp_path, num_clients=1, drive=drive_workload(ops=2)
        )
        header, records = load_trace(str(trace_path))
        submits = [
            r for r in records
            if r["dir"] == "c2s" and not r["retx"]
            and isinstance(payload_to_message(bytes.fromhex(r["payload"])),
                           SubmitMessage)
        ]
        assert len(submits) == 2
        path = tmp_path / "early-submit.jsonl"
        path.write_text(
            "\n".join(json.dumps(line) for line in [header, *submits]) + "\n"
        )
        result = replay_trace(str(path))
        assert not result.ok
        second = f"seq {submits[1]['seq']}: "
        assert any(
            d.startswith(second) and "previous operation was still waiting"
            in d for d in result.divergences
        ), result.divergences
        assert not any(
            d.startswith(f"seq {submits[0]['seq']}: ") for d in result.divergences
        )

    def test_undecodable_client_frame_is_a_divergence(self, tmp_path):
        path = tmp_path / "bad-c2s.jsonl"
        path.write_text(
            '{"t":"header","v":8,"n":1,"scheme":"hmac","server":"S","seq":0}\n'
            '{"t":"frame","seq":1,"dir":"c2s","c":0,"retx":false,'
            '"payload":"ff00","at":0.0}\n'
        )
        result = replay_trace(str(path))
        assert not result.ok
        assert result.divergences[0].startswith("seq 1: recorded frame from C1")


class TestTraceFormat:
    def test_trace_is_json_lines_with_header_first(self, tmp_path):
        trace_path, _history, _failures = record_loopback_run(
            tmp_path, drive=drive_workload(ops=2)
        )
        lines = trace_path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["t"] == "header"
        assert records[0]["v"] == 8
        assert records[0]["n"] == 3
        # Frames only: every invocation is its SUBMIT frame.
        assert {r["t"] for r in records} == {"header", "frame"}
        seqs = [r["seq"] for r in records[1:]]
        assert seqs == sorted(seqs)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t":"frame","seq":0,"c":0}\n')
        with pytest.raises(ConfigurationError, match="header"):
            load_trace(str(path))

    @pytest.mark.parametrize(
        "line, where, what",
        [
            ("not json", 2, "not a frame"),
            ("[1, 2]", 2, "not a frame"),
            (None, 1, "'server'"),
            ('{"t":"frame","dir":"c2s","c":0,"retx":false,"payload":"ff00"}',
             2, "not a frame"),
            ('{"t":"frame","seq":1,"dir":"c2s","c":1,"retx":false,'
             '"payload":"ff00"}', 2, "not a frame of 1 client"),
            ('{"t":"frame","seq":1,"dir":"c2s","c":0,"retx":false,'
             '"payload":"not hex"}', 2, "not a frame"),
        ],
        ids=["not-json", "json-list", "header-without-server",
             "frame-without-seq", "client-outside-n", "payload-not-hex"],
    )
    def test_malformed_record_named_by_path_and_line(
        self, tmp_path, line, where, what
    ):
        # Each of these used to end the replay in a Python traceback.
        path = tmp_path / "corrupt.jsonl"
        if line is None:
            path.write_text('{"t":"header","v":8,"n":1,"scheme":"hmac","seq":0}\n')
        else:
            path.write_text(
                '{"t":"header","v":8,"n":1,"scheme":"hmac","server":"S","seq":0}\n'
                + line + "\n"
            )
        with pytest.raises(ConfigurationError, match=f"line {where}: .*{what}"):
            load_trace(str(path))
        with pytest.raises(ConfigurationError, match=re.escape(str(path))):
            replay_trace(str(path))

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
        with pytest.raises(ConfigurationError, match=r"version 1 .*reads v8"):
            load_trace(str(path))
        assert main(["replay", "--trace", str(path)]) == 1
        assert "this build reads v8" in capsys.readouterr().out

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
        with pytest.raises(ConfigurationError, match=r"version 2 .*reads v8"):
            load_trace(str(path))
        assert main(["replay", "--trace", str(path)]) == 1
        assert "trace version 2 unsupported" in capsys.readouterr().out

    def test_trace_of_the_trace_id_frame_shapes_refused(self, tmp_path, capsys):
        # v3 frames could carry a trailing trace id, and a REPLY with a
        # counter attestation put a None trace-id slot before it: 8
        # elements, which this build's decoder refuses — the header stops
        # such a trace first, in one line.
        from repro.cli import main
        from repro.common.encoding import encode
        from repro.common.errors import EncodingError
        from repro.net.wire import payload_to_message

        zero = (((0, 0), (None, None)), None)
        attestation = ("S", 1, 1, b"b" * 32, b"m" * 32)
        v3_reply = encode(("REPLY", (0, zero, (), (), None, None, None, attestation)))
        with pytest.raises(EncodingError, match="malformed ReplyMessage"):
            payload_to_message(v3_reply)
        path = tmp_path / "v3.jsonl"
        path.write_text(
            '{"t":"header","v":3,"n":2,"scheme":"hmac","server":"S","seq":0}\n'
            '{"t":"frame","seq":1,"dir":"s2c","c":0,"retx":false,'
            f'"payload":"{v3_reply.hex()}","at":0.0}}\n'
        )
        with pytest.raises(ConfigurationError, match=r"version 3 .*reads v8"):
            load_trace(str(path))
        assert main(["replay", "--trace", str(path)]) == 1
        out = capsys.readouterr().out
        assert "trace version 3 unsupported" in out and out.count("\n") == 1

    def test_trace_with_invocation_records_refused(self, tmp_path, capsys):
        # v4 traces interleaved the recorder's invoke/response records
        # with the frames; this build re-derives both from the SUBMITs.
        from repro.cli import main

        path = tmp_path / "v4.jsonl"
        path.write_text(
            '{"t":"header","v":4,"n":1,"scheme":"hmac","server":"S","seq":0}\n'
            '{"t":"invoke","seq":1,"c":0,"k":"READ","r":0,"val":null,'
            '"ts":1,"at":0.0}\n'
        )
        assert main(["replay", "--trace", str(path)]) == 1
        out = capsys.readouterr().out
        assert "trace version 4 unsupported" in out and out.count("\n") == 1

    def test_trace_of_the_versioned_lone_server_commit_refused(
        self, tmp_path, capsys
    ):
        # v5 clients of a lone server sent their COMMIT with (V, M); this
        # build's send t in its place, so every such frame would replay
        # as a divergence — the header stops the trace first, in one line.
        from repro.cli import main
        from repro.common.encoding import encode

        v5_commit = encode(("COMMIT", (((1, 0), (b"d" * 32, None)), b"p", b"q")))
        path = tmp_path / "v5.jsonl"
        path.write_text(
            '{"t":"header","v":5,"n":2,"scheme":"hmac","server":"S","seq":0}\n'
            '{"t":"frame","seq":1,"dir":"c2s","c":0,"retx":false,'
            f'"payload":"{v5_commit.hex()}","at":0.0}}\n'
        )
        assert main(["replay", "--trace", str(path)]) == 1
        out = capsys.readouterr().out
        assert "trace version 5 unsupported" in out and out.count("\n") == 1

    def test_trace_of_the_full_own_version_reply_refused(self, tmp_path, capsys):
        # v6 servers sent a client's own committed SVER[c] back in full;
        # this build's send n in its place, so a v6 trace's inbound frames
        # are not what this build's clients received — one line, exit 1.
        from repro.cli import main

        path = tmp_path / "v6.jsonl"
        path.write_text(
            '{"t":"header","v":6,"n":1,"scheme":"hmac","server":"S","seq":0}\n'
        )
        assert main(["replay", "--trace", str(path)]) == 1
        out = capsys.readouterr().out
        assert "trace version 6 unsupported" in out and out.count("\n") == 1

    def test_trace_of_the_full_other_version_reply_refused(self, tmp_path, capsys):
        # v7 servers sent every SVER[c] but the client's own committed
        # version in full; this build's send it relative to that version,
        # so a v7 trace's inbound frames are not what this build's clients
        # received — one line, exit 1.
        from repro.cli import main
        from repro.common.encoding import encode

        full_reply = encode(
            ("REPLY", (1, (((0, 1), (None, b"\x02" * 32)), b"\x03" * 64),
                       (), (), None, None))
        )
        path = tmp_path / "v7.jsonl"
        path.write_text(
            '{"t":"header","v":7,"n":2,"scheme":"hmac","server":"S","seq":0}\n'
            '{"t":"frame","seq":1,"dir":"s2c","c":0,"retx":false,'
            f'"payload":"{full_reply.hex()}","at":0.0}}\n'
        )
        with pytest.raises(ConfigurationError, match=r"version 7 .*reads v8"):
            load_trace(str(path))
        assert main(["replay", "--trace", str(path)]) == 1
        out = capsys.readouterr().out
        assert "trace version 7 unsupported" in out and out.count("\n") == 1

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
