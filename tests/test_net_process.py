"""Multi-process deployments: ``repro serve`` children under a supervisor.

These spawn real OS processes (``python -m repro serve``), so they carry
the ``slow`` marker and run in the extended CI job; the single-process
loopback equivalents in ``test_net_loopback.py`` stay in tier-1.

The headline test is the issue's acceptance scenario end-to-end: a full
audited workload against a separately-running server process, recorded
to a wire trace, replayed on the simulator to the identical history and
checker verdicts — driven once through the library and once through the
CLI (``repro run --transport tcp`` / ``repro replay``).
"""

from __future__ import annotations

import os
import random
import signal
import time
from dataclasses import replace

import pytest

from repro.api import SystemConfig, open_system
from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.consistency.causal import check_causal_consistency
from repro.consistency.linearizability import check_linearizability
from repro.consistency import validate_weak_fork_linearizability
from repro.net.supervisor import ClusterSupervisor, ServerProcess
from repro.net.trace import history_signature, load_trace, replay_trace
from repro.net.wire import payload_to_message
from repro.store.engine import LogStructuredEngine
from repro.store.media import DirectoryMedium
from repro.ustor.messages import ReplyMessage, SignedVersion, SubmitMessage
from repro.ustor.server import ServerState, apply_commit, apply_submit
from repro.ustor.version import fold_version
from repro.ustor.viewhistory import build_client_views
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts

pytestmark = [pytest.mark.net, pytest.mark.slow]


def _counter_args(counter):
    """``repro serve`` arguments arming ``counter`` (``None``: none)."""
    return ("--counter", counter) if counter is not None else ()


def _replay_client_frames(trace_path, num_clients: int) -> ServerState:
    """The server state implied by every frame the clients sent, applied
    in the order their own wire trace recorded them (retransmissions
    repeat frames already recorded once).  A COMMIT travels without its
    version, so it is applied with the version its client folded from
    the REPLY it received — what the client committed, whichever way the
    two connections interleaved at the server; a REPLY in own form is
    restored against that committed version, as the client did."""
    _header, records = load_trace(str(trace_path))
    state = ServerState.initial(num_clients)
    received: dict[int, ReplyMessage] = {}
    committed = {c: SignedVersion.zero(num_clients) for c in range(num_clients)}
    for record in records:
        if record["t"] != "frame" or record["retx"]:
            continue
        message = payload_to_message(bytes.fromhex(record["payload"]))
        client = record["c"]
        if record["dir"] == "s2c":
            received[client] = message.restored(committed[client])
        elif isinstance(message, SubmitMessage):
            apply_submit(state, message)
        else:
            reply = received[client]
            version = fold_version(
                reply.last_version.version, reply.commit_index, reply.pending, client
            )
            committed[client] = SignedVersion(version, message.commit_sig)
            apply_commit(
                state, client, replace(message, version=version, timestamp=None)
            )
    return state


def _wait_until_unchanged(path, quiet: float = 0.3, timeout: float = 10.0) -> None:
    """Block until ``path`` stops growing (the server drained its sockets)."""
    deadline = time.monotonic() + timeout
    seen, since = None, time.monotonic()
    while time.monotonic() < deadline:
        stat = os.stat(path)
        now = (stat.st_size, stat.st_mtime_ns)
        if now != seen:
            seen, since = now, time.monotonic()
        elif time.monotonic() - since >= quiet:
            return
        time.sleep(0.02)
    raise AssertionError(f"{path} still changing after {timeout:g}s")


class TestServerProcess:
    def test_audited_workload_records_and_replays(self, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        with ServerProcess(3) as proc:
            system = open_system(
                SystemConfig(
                    3,
                    transport="tcp",
                    endpoints=(proc.endpoint,),
                    trace_path=str(trace_path),
                    default_timeout=10.0,
                ),
                backend="ustor",
            )
            with system:
                scripts = generate_scripts(
                    3,
                    WorkloadConfig(
                        ops_per_client=5,
                        read_fraction=0.5,
                        mean_think_time=0.005,
                    ),
                    random.Random(13),
                )
                driver = Driver(system)
                driver.attach_all(scripts)
                assert driver.run_to_completion(timeout=30.0)
                system.run_until_quiescent(timeout=5.0)
                history = system.history()
                assert len(history) == 15
                assert not any(c.failed for c in system.clients)
                assert check_linearizability(history).ok
                assert check_causal_consistency(history).ok
                views = build_client_views(history, system.clients)
                assert validate_weak_fork_linearizability(history, views).ok

        result = replay_trace(str(trace_path))
        assert result.divergences == []
        assert history_signature(result.history) == history_signature(history)
        assert check_linearizability(result.history).ok
        assert not result.fail_reasons()

    @pytest.mark.parametrize("counter", [None, "durable"])
    def test_sigkill_and_restart_over_durable_storage(self, tmp_path, counter):
        # The hard crash: no atexit, no flush, mid-deployment.  A new
        # process over the same dir: recovers from the WAL (and the
        # counter from its file next to it) and the clients ride it out
        # with reconnect + retransmission.
        storage = f"dir:{tmp_path / 'srv'}"
        extra_args = _counter_args(counter)
        proc = ServerProcess(2, storage=storage, extra_args=extra_args)
        endpoint = proc.start()
        host, port = endpoint.split(":")
        try:
            system = open_system(
                SystemConfig(
                    2,
                    transport="tcp",
                    endpoints=(endpoint,),
                    default_timeout=15.0,
                    counter=counter,
                ),
                backend="ustor",
            )
            with system:
                session = system.session(0)
                assert session.write_sync(b"survives") == 1
                os.kill(proc.process.pid, signal.SIGKILL)
                proc.process.wait(timeout=10)
                handle = session.write(b"after-kill")

                proc = ServerProcess(
                    2, host=host, port=int(port), storage=storage,
                    extra_args=extra_args,
                )
                proc.start()
                assert handle.result(15.0).timestamp == 2
                value, _t = session.read_sync(0)
                assert value == b"after-kill"
                assert not system.clients[0].failed
                assert sum(c.reconnects for c in system.connections) >= 1
        finally:
            proc.stop()

    @pytest.mark.parametrize("counter", [None, "durable"])
    def test_sigkill_under_load_loses_nothing_the_clients_sent(
        self, tmp_path, counter
    ):
        """Every WAL append reaches the OS before its REPLY leaves, so a
        SIGKILL under load — append handle open, checkpoints in flight —
        loses no transition: what a fresh recovery builds from the
        directory afterwards equals a replay of the clients' own trace.
        With a durable counter the kill may land between a WAL append
        and the counter's persist; the restarted counter adopts that one
        SUBMIT, so no client is accused."""
        directory = tmp_path / "srv"
        storage = f"dir:{directory}"
        trace_path = tmp_path / "run.jsonl"
        ops = 60
        extra_args = _counter_args(counter)
        proc = ServerProcess(2, storage=storage, extra_args=extra_args)
        endpoint = proc.start()
        host, port = endpoint.split(":")
        try:
            system = open_system(
                SystemConfig(
                    2,
                    transport="tcp",
                    endpoints=(endpoint,),
                    trace_path=str(trace_path),
                    default_timeout=15.0,
                    counter=counter,
                ),
                backend="ustor",
            )
            with system:
                scripts = generate_scripts(
                    2,
                    WorkloadConfig(
                        ops_per_client=ops,
                        read_fraction=0.5,
                        mean_think_time=0.0,
                    ),
                    random.Random(21),
                )
                driver = Driver(system)
                driver.attach_all(scripts)

                def killed_mid_script() -> bool:
                    # Evaluated between frames, with the COMMIT and next
                    # SUBMIT this wake-up triggered already on the wire.
                    if driver.stats.total_completed() < ops // 2:
                        return False
                    os.kill(proc.process.pid, signal.SIGKILL)
                    return True

                assert system.run_until(killed_mid_script, timeout=30.0)
                proc.process.wait(timeout=10)
                proc = ServerProcess(
                    2, host=host, port=int(port), storage=storage,
                    extra_args=extra_args,
                )
                proc.start()
                # The one SUBMIT the server may have logged but not yet
                # answered when it died stays unanswered (the reply journal
                # is volatile by design) and stalls its client; the server
                # handles one frame at a time, so the other client finishes.
                driver.run_to_completion(timeout=10.0)
                assert max(driver.stats.completed.values()) == ops
                assert not any(c.failed for c in system.clients)
                assert sum(c.reconnects for c in system.connections) >= 1
            _wait_until_unchanged(directory / "wal")
        finally:
            proc.stop()

        engine = LogStructuredEngine(2, medium=DirectoryMedium(directory))
        recovered = engine.recover()
        engine.close()
        expected = _replay_client_frames(trace_path, 2)
        # ``pending`` is left out: it depends on how frames of *different*
        # connections interleaved at the server, which no client observes.
        assert recovered.submits_applied == expected.submits_applied
        assert recovered.mem == expected.mem
        assert recovered.sver == expected.sver
        assert recovered.proofs == expected.proofs
        assert recovered.commit_index == expected.commit_index

    def test_byzantine_child_process(self):
        with ServerProcess(2, server="tampering") as proc:
            system = open_system(
                SystemConfig(
                    2,
                    transport="tcp",
                    endpoints=(proc.endpoint,),
                    default_timeout=5.0,
                ),
                backend="ustor",
            )
            with system:
                system.session(0).write_sync(b"genuine")
                reader = system.session(1, timeout=2.0)
                with pytest.raises(Exception):
                    reader.read_sync(0)
                system.run_until_quiescent(timeout=2.0)
                assert system.clients[1].failed
                assert "line 50" in system.clients[1].fail_reason

    def test_unstartable_child_reports_its_output(self):
        bad = ServerProcess(2, extra_args=("--server", "no-such-behaviour"))
        with pytest.raises(ConfigurationError, match="no-such-behaviour"):
            bad.start(timeout=15)


class TestClusterSupervisor:
    def test_each_shard_is_its_own_process_and_server(self, tmp_path):
        storage = str(tmp_path / "shard-{shard}")
        with ClusterSupervisor(
            2, 2, storage=f"dir:{storage}"
        ) as supervisor:
            assert len(supervisor.endpoints) == 2
            pids = {p.process.pid for p in supervisor.processes}
            assert len(pids) == 2
            for shard, endpoint in enumerate(supervisor.endpoints):
                system = open_system(
                    SystemConfig(
                        2,
                        transport="tcp",
                        endpoints=(endpoint,),
                        server_name=f"S{shard}",
                        default_timeout=10.0,
                    ),
                    backend="ustor",
                )
                with system:
                    session = system.session(0)
                    assert session.write_sync(f"shard-{shard}".encode()) == 1
                assert os.path.isdir(storage.format(shard=shard))


class TestCliOverTcp:
    def test_run_record_check_then_replay(self, tmp_path, capsys):
        trace_path = tmp_path / "cli.jsonl"
        with ServerProcess(2) as proc:
            code = main(
                [
                    "run",
                    "--transport", "tcp",
                    "--endpoints", proc.endpoint,
                    "--clients", "2",
                    "--ops", "4",
                    "--seed", "3",
                    "--check",
                    "--trace-file", str(trace_path),
                ]
            )
        out = capsys.readouterr().out
        assert code == 0
        assert "completed 8/8" in out
        assert "linearizability: OK" in out
        assert "weak-fork-linearizability: OK" in out

        code = main(["replay", "--trace", str(trace_path), "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "replay equivalent to recording: yes" in out
        assert "linearizability: OK" in out

    def test_serve_cluster_children_survive_babysitting(self, tmp_path):
        # serve-cluster itself is interactive (runs until SIGINT); here we
        # just exercise its supervisor teardown path: a child that dies is
        # noticed and the command exits non-zero.
        supervisor = ClusterSupervisor(2, 2)
        supervisor.start()
        try:
            assert all(
                p.process.poll() is None for p in supervisor.processes
            )
        finally:
            supervisor.stop()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if all(p.process.poll() is not None for p in supervisor.processes):
                break
            time.sleep(0.05)
        assert all(p.process.poll() is not None for p in supervisor.processes)
