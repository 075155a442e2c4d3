"""Loopback integration tests for the real TCP transport.

One process, one event loop: the :class:`~repro.net.server.NetServerHost`
and the client runtime share the loop, so these run in tier-1 (the
multi-process variants live in ``test_net_process.py`` behind the
``slow`` marker).  What is being established:

* the unchanged protocol objects and Session facade complete a full
  workload over real sockets with the usual checker verdicts;
* the paper's timed model maps onto wall-clock deadlines — a withheld
  REPLY surfaces as :class:`~repro.api.errors.OperationTimeout`;
* a server crash/restart over durable ``dir:`` storage is survived by
  reconnect + retransmission, exactly once — a retransmitted SUBMIT
  carrying a piggybacked COMMIT included;
* FAUST's ``stable_i``/``fail_i`` cross a real socket: every catalogue
  server with a real-process twin is caught by the line its note names,
  and an honest one co-signs checkpoints the host's server applies;
* a dummy read's REPLY frame carries ``MEM[j]`` in digest form, and a
  tampered digest is convicted for the simulator's reason.
"""

from __future__ import annotations

import random
import re

import pytest

from repro.api import CheckpointPolicy, FaustParams, SystemConfig, open_system
from repro.api.backends import build_deployment
from repro.api.errors import OperationTimeout
from repro.baselines.lockstep import lockstep_protocol
from repro.common.errors import ConfigurationError
from repro.common.types import BOTTOM
from repro.consistency.causal import check_causal_consistency
from repro.consistency.linearizability import check_linearizability
from repro.consistency import validate_weak_fork_linearizability
from repro.faust.membership import MembershipPolicy
from repro.faust.validator import validate_fail_aware_run
from repro.net.client import NetRuntime, parse_endpoint
from repro.net.server import NetServerHost
from repro.sim.faults import Fault
from repro.ustor.byzantine import ADVERSARIES, UnresponsiveServer
from repro.ustor.messages import ReplyMessage, ValueDigest
from repro.ustor.server import UstorServer
from repro.ustor.viewhistory import build_client_views
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts

pytestmark = pytest.mark.net


def open_loopback(
    num_clients: int,
    *,
    server_factory=None,
    storage: str = "memory",
    trace_path=None,
    default_timeout: float = 10.0,
    backend: str = "ustor",
    **config,
):
    """A host and its clients sharing one pumped event loop."""
    runtime = NetRuntime()
    host = NetServerHost(
        num_clients, storage=storage, server_factory=server_factory
    )
    runtime.run_coroutine(host.start())
    system = open_system(
        SystemConfig(
            num_clients,
            transport="tcp",
            endpoints=(host.endpoint,),
            trace_path=str(trace_path) if trace_path else None,
            default_timeout=default_timeout,
            **config,
        ),
        backend=backend,
        runtime=runtime,
    )
    system.hosts.append(host)  # torn down by system.close()
    system.owns_runtime = True  # created here solely for this system
    return system, host


class TestLoopbackWorkload:
    def test_full_workload_with_checker_verdicts(self):
        system, _host = open_loopback(3)
        with system:
            scripts = generate_scripts(
                3,
                WorkloadConfig(
                    ops_per_client=6, read_fraction=0.5, mean_think_time=0.005
                ),
                random.Random(7),
            )
            driver = Driver(system)
            driver.attach_all(scripts)
            assert driver.run_to_completion(timeout=20.0)
            system.run_until_quiescent(timeout=5.0)

            history = system.history()
            assert len(history) == 18
            assert check_linearizability(history).ok
            assert check_causal_consistency(history).ok
            views = build_client_views(history, system.clients)
            assert validate_weak_fork_linearizability(history, views).ok
            assert not any(c.failed for c in system.clients)

    def test_session_facade_write_read(self):
        system, _host = open_loopback(2)
        with system:
            alice, bob = system.session(0), system.session(1)
            t1 = alice.write_sync(b"net-hello")
            assert t1 == 1
            value, t2 = bob.read_sync(0)
            assert value == b"net-hello"
            assert t2 == 1  # timestamps are per-client counters

    def test_timestamps_are_per_client_counters(self):
        system, _host = open_loopback(2)
        with system:
            session = system.session(0)
            timestamps = [session.write_sync(bytes([i])) for i in range(3)]
            assert timestamps == [1, 2, 3]


class TestTimedModel:
    def test_withheld_reply_times_out_as_operation_timeout(self):
        # The unresponsive behaviour ignores client 0's SUBMITs: the
        # paper's timed model says the operation must *time out* rather
        # than hang, and the facade maps that to OperationTimeout.
        system, _host = open_loopback(
            2, server_factory=lambda n, name: UnresponsiveServer(
                n, victims={0}, name=name
            )
        )
        with system:
            victim = system.session(0, timeout=0.4)
            handle = victim.write(b"never-answered")
            with pytest.raises(OperationTimeout):
                handle.result(0.4)
            # The untargeted client is still served (wait-freedom).
            assert system.session(1).write_sync(b"fine") == 1

    def test_connect_failure_is_loud(self):
        with pytest.raises(ConfigurationError, match="could not connect"):
            open_system(
                SystemConfig(1, transport="tcp", endpoints=("127.0.0.1:1",)),
                backend="ustor",
                connect_timeout=0.3,
            )

    def test_wrong_server_name_fails_handshake(self):
        runtime = NetRuntime()
        host = NetServerHost(1, server_name="S")
        runtime.run_coroutine(host.start())
        try:
            with pytest.raises(ConfigurationError, match="answered as"):
                open_system(
                    SystemConfig(
                        1,
                        transport="tcp",
                        endpoints=(host.endpoint,),
                        server_name="T",
                    ),
                    backend="ustor",
                    runtime=runtime,
                    connect_timeout=2.0,
                )
        finally:
            runtime.run_coroutine(host.stop())
            runtime.close()


#: FAUST's periods are on the world's clock, which over tcp is wall seconds.
WALL_CLOCK_FAUST = FaustParams(
    delta=0.4, dummy_read_period=0.07, probe_check_period=0.11
)
TCP_ROWS = sorted(name for name, adversary in ADVERSARIES.items() if adversary.tcp)


def _note_lines(note: str) -> set[int]:
    """The Algorithm 1 lines a catalogue note says catch its row
    (``line 50``, ``lines 36/43``, ``lines 35-50``)."""
    (spec,) = re.findall(r"lines? ([\d/-]+)", note)
    if "-" in spec:
        low, high = map(int, spec.split("-"))
        return set(range(low, high + 1))
    return {int(line) for line in spec.split("/")}


class TestFaustOverSockets:
    @pytest.mark.parametrize("name", TCP_ROWS)
    def test_catalogue_row(self, name):
        adversary = ADVERSARIES[name]
        honest = name == "correct"
        system, host = open_loopback(
            3,
            server_factory=None if honest else adversary.factory,
            default_timeout=2.0,
            backend="faust",
            faust=WALL_CLOCK_FAUST,
            checkpoint=CheckpointPolicy(interval=4) if honest else None,
            membership=MembershipPolicy(check_period=0.2) if honest else None,
        )
        with system:
            clients = system.clients
            handles = []
            for i in range(3):
                session = system.session(i)
                handles += [session.write(b"v%d" % i), session.read((i + 1) % 3)]
            if honest:
                assert system.run_until(
                    lambda: all(h.done() for h in handles)
                    and host.node.checkpoints_handled >= 1
                    and all(c.checkpoint_manager.installed.seq >= 1 for c in clients),
                    timeout=5.0,
                )
                # Settle as long again: the validator's completeness
                # cutoff is half the run.
                system.run(until=2 * system.now)
                assert not any(c.failed for c in clients)
                report = validate_fail_aware_run(system, server_correct=True)
                assert report.ok, report.render()
            elif name == "unresponsive":
                # Undetectable by design: C1's operations hang, nobody fails.
                system.run(until=system.now + 0.5)
                assert not any(c.failed for c in clients)
            else:
                assert system.run_until(
                    lambda: all(c.failed for c in clients), timeout=5.0
                )
                first_at = system.notifications.first_failures()
                first = clients[min(first_at, key=first_at.get)]
                lines = re.findall(r"\(line (\d+)\)", first.fail_reason)
                assert lines, first.fail_reason
                assert int(lines[0]) in _note_lines(adversary.note)


def _dummy_reads_of_256_byte_values(transport: str, server_factory):
    """Three FAUST clients each write one 256-byte value, then idle: only
    dummy reads read.  Returns the system's first ``fail_i`` reason
    (``None`` if nobody failed) and the ``MEM[j]`` value slot of every
    read REPLY a client received."""
    received = []
    if transport == "tcp":
        system, _host = open_loopback(
            3,
            server_factory=server_factory,
            default_timeout=2.0,
            backend="faust",
            faust=WALL_CLOCK_FAUST,
        )
        settle = dict(timeout=5.0)
    else:
        system = open_system(
            SystemConfig(3, seed=2, server_factory=server_factory), backend="faust"
        )
        settle = dict(timeout=500.0)
    with system:
        for client in system.clients:
            receive = client.on_message

            def spy(src, message, receive=receive) -> None:
                if isinstance(message, ReplyMessage) and message.mem is not None:
                    received.append(message.mem.value)
                receive(src, message)

            client.on_message = spy
        handles = [system.session(i).write(bytes([i + 1]) * 256) for i in range(3)]
        assert system.run_until(lambda: all(h.done() for h in handles), **settle)
        clients = system.clients
        if server_factory is None:
            assert system.run_until(
                lambda: all(c.dummy_reads_issued >= 4 for c in clients), **settle
            )
        else:
            assert system.run_until(
                lambda: all(c.failed for c in clients), **settle
            )
        first_at = system.notifications.first_failures()
        first = min(first_at, key=first_at.get, default=None)
        return (None if first is None else clients[first].fail_reason), received


class TestDummyReadDigestOverSockets:
    def test_honest_dummy_reads_arrive_in_digest_form(self):
        reason, received = _dummy_reads_of_256_byte_values("tcp", None)
        assert reason is None
        written = [v for v in received if v is not BOTTOM]
        assert written and all(type(v) is ValueDigest for v in written)

    def test_a_tampered_digest_is_convicted_for_the_simulators_reason(self):
        tampering = ADVERSARIES["tampering"].factory  # reads of C1's register
        on_tcp, received = _dummy_reads_of_256_byte_values("tcp", tampering)
        on_sim, _ = _dummy_reads_of_256_byte_values("sim", tampering)
        assert on_tcp == on_sim == (
            "USTOR detection: DATA-signature on returned value invalid (line 50)"
        )
        assert any(type(v) is ValueDigest for v in received)


class TestCrashRecovery:
    def test_server_restart_over_durable_dir_storage(self, tmp_path):
        storage = f"dir:{tmp_path / 'srv'}"
        runtime = NetRuntime()
        host = NetServerHost(2, storage=storage)
        runtime.run_coroutine(host.start())
        port = host.port
        system = open_system(
            SystemConfig(
                2,
                transport="tcp",
                endpoints=(host.endpoint,),
                default_timeout=10.0,
            ),
            backend="ustor",
            runtime=runtime,
        )
        with system:
            session = system.session(0)
            assert session.write_sync(b"before-crash") == 1

            runtime.run_coroutine(host.stop())
            # Issued while the server is down: queued as unacked, carried
            # by the retransmission when the connection comes back.
            handle = session.write(b"after-restart")

            restarted = NetServerHost(2, port=port, storage=storage)
            runtime.run_coroutine(restarted.start())
            system.hosts.append(restarted)

            assert handle.result(10.0).timestamp == 2
            # The restarted process recovered the pre-crash state from
            # disk (the dedup floor included), it did not start fresh.
            assert restarted.node.state.mem[0].timestamp == 2
            value, _t = session.read_sync(0)
            assert value == b"after-restart"
            assert not system.clients[0].failed
            assert sum(c.reconnects for c in system.connections) >= 1

    def test_recovered_floor_drops_stale_retransmission(self, tmp_path):
        # A SUBMIT applied+logged whose REPLY died with the process must
        # NOT be re-applied on retransmit (duplicate pending entries are
        # protocol-fatal); with the journal gone it is dropped and the
        # client's deadline fires — the fail-aware outcome.
        storage = f"dir:{tmp_path / 'srv'}"
        runtime = NetRuntime()
        host = NetServerHost(1, storage=storage)
        runtime.run_coroutine(host.start())
        system = open_system(
            SystemConfig(
                1,
                transport="tcp",
                endpoints=(host.endpoint,),
                default_timeout=5.0,
            ),
            backend="ustor",
            runtime=runtime,
        )
        with system:
            # Capture the SUBMIT as sent, then complete the write.
            connection = system.connections[0]
            sent = []
            original = connection.send_message
            connection.send_message = lambda m: (sent.append(m), original(m))
            session = system.session(0)
            assert session.write_sync(b"first") == 1
            system.run_until_quiescent(timeout=2.0)
            submit = next(m for m in sent if m.kind == "SUBMIT")
            runtime.run_coroutine(host.stop())

            restarted = NetServerHost(1, port=host.port, storage=storage)
            runtime.run_coroutine(restarted.start())
            system.hosts.append(restarted)
            # The journal died with the old process but the floor was
            # recovered from disk: the stale SUBMIT is dropped, not
            # re-applied (no duplicate pending entry), and not answered.
            from repro.net.wire import message_to_payload

            pending_before = len(restarted.node.state.pending)
            restarted._handle_client_payload(0, message_to_payload(submit))
            assert restarted.submits_dropped_stale == 1
            assert len(restarted.node.state.pending) == pending_before
            assert restarted.node.state.mem[0].timestamp == 1


class _CommitCounter(UstorServer):
    """The honest server, counting each COMMIT it applies, per ``(client,
    t)``: a version-less COMMIT is applied when its ``t`` is the one the
    state expects (:func:`~repro.ustor.server.apply_commit`)."""

    def __init__(self, num_clients: int, name: str, **kwargs) -> None:
        super().__init__(num_clients, name, **kwargs)
        self.applied: dict[tuple[int, int], int] = {}

    def handle_commit(self, src, message) -> None:
        client = int(src[1:]) - 1
        expected = self.state.expected[client]
        super().handle_commit(src, message)
        if expected is not None and expected[0] == message.timestamp:
            key = (client, message.timestamp)
            self.applied[key] = self.applied.get(key, 0) + 1


def _counting(num_clients: int, name: str, *, storage: str = "memory"):
    from repro.store.engine import make_engine

    return _CommitCounter(
        num_clients, name, engine=make_engine(storage, num_clients)
    )


def _lose_next_reply(host: NetServerHost, *, then_stop_listening: bool) -> list:
    """Arm ``host`` to drop client 0's next REPLY frame together with its
    connection (after journaling it, as a crash between the two would);
    optionally stop accepting connections too, so the retransmission can
    only reach a restarted host.  Returns a list that gets the lost
    frame."""
    lost: list[bytes] = []
    write = host._write_frame

    def lossy(dst: str, payload: bytes) -> None:
        if dst == "C1" and not lost:
            lost.append(payload)
            host._connections[dst].abort()
            if then_stop_listening:
                host._listener.close()
            return
        write(dst, payload)

    host._write_frame = lossy
    return lost


def _verifies(system, client: int, signed) -> bool:
    version = signed.version
    return system.keystore.verifier().verify(
        client, signed.commit_sig, "COMMIT", version.vector, version.digests
    )


class TestPiggybackedCommitRetransmitted:
    """A dropped connection makes the client retransmit a SUBMIT that
    carries the previous operation's COMMIT: that COMMIT is applied once,
    whether the retransmission is answered from the reply journal or
    dropped as stale by a restarted host, and ``SVER[i]`` verifies."""

    def _open(self, storage: str):
        runtime = NetRuntime()
        host = NetServerHost(
            2,
            storage=storage,
            server_factory=lambda n, name: _counting(n, name, storage=storage),
        )
        runtime.run_coroutine(host.start())
        system = open_system(
            SystemConfig(
                2,
                transport="tcp",
                endpoints=(host.endpoint,),
                commit_piggyback=True,
                default_timeout=10.0,
            ),
            backend="ustor",
            runtime=runtime,
        )
        system.hosts.append(host)
        system.owns_runtime = True
        return system, host, runtime

    def test_journal_answered(self):
        system, host, _runtime = self._open("memory")
        with system:
            session = system.session(0)
            assert session.write_sync(b"one") == 1
            lost = _lose_next_reply(host, then_stop_listening=False)
            # SUBMIT 2 carries COMMIT 1; its REPLY dies with the
            # connection, the client reconnects and retransmits it.
            assert session.write_sync(b"two") == 2
            assert lost and host.submits_deduplicated == 1
            assert system.connections[0].reconnects == 1
            assert session.write_sync(b"three") == 3  # carries COMMIT 2
            state = host.node.state
            assert host.node.applied == {(0, 1): 1, (0, 2): 1}
            assert state.sver[0].version.vector[0] == 2
            assert _verifies(system, 0, state.sver[0])
            assert not system.clients[0].failed

    def test_stale_dropped_after_restart(self, tmp_path):
        storage = f"dir:{tmp_path / 'srv'}"
        system, host, runtime = self._open(storage)
        with system:
            session = system.session(0)
            assert session.write_sync(b"one") == 1
            lost = _lose_next_reply(host, then_stop_listening=True)
            handle = session.write(b"two")  # SUBMIT 2 carries COMMIT 1
            assert runtime.pump_until(lambda: bool(lost), timeout=5.0)
            assert host.node.applied == {(0, 1): 1}
            runtime.run_coroutine(host.stop())
            restarted = NetServerHost(
                2,
                port=host.port,
                storage=storage,
                server_factory=lambda n, name: _counting(n, name, storage=storage),
            )
            runtime.run_coroutine(restarted.start())
            system.hosts.append(restarted)
            # The retransmitted SUBMIT 2 is stale (applied before the
            # restart, its REPLY journaled only in the dead process): it
            # is dropped, piggybacked COMMIT 1 with it, and op 2 times out.
            assert runtime.pump_until(
                lambda: restarted.submits_dropped_stale or handle.done(),
                timeout=5.0,
            )
            assert restarted.submits_dropped_stale == 1
            with pytest.raises(OperationTimeout):
                handle.result(0.2)
            assert restarted.node.applied == {}
            state = restarted.node.state
            assert state.sver[0].version.vector[0] == 1  # COMMIT 1, once
            assert _verifies(system, 0, state.sver[0])
            assert state.expected[0][0] == 2 and state.mem[0].timestamp == 2


class TestHostConfig:
    def test_group_commit_server_rejected(self):
        runtime = NetRuntime()
        host = NetServerHost(
            2,
            server_factory=lambda n, name: UstorServer(
                n, name=name, group_commit=True
            ),
        )
        try:
            with pytest.raises(ConfigurationError, match="group_commit"):
                runtime.run_coroutine(host.start())
        finally:
            runtime.close()

    def test_parse_endpoint(self):
        assert parse_endpoint("10.0.0.1:4800") == ("10.0.0.1", 4800)
        for bad in ("nohost", ":1", "h:", "h:port", "h:0", "h:65536", "h:-1", 4800):
            with pytest.raises(ConfigurationError):
                parse_endpoint(bad)

    def test_config_parses_endpoints_before_anything_connects(self):
        for bad in ("nohost", "127.0.0.1:99999", "127.0.0.1:1,nohost"):
            with pytest.raises(ConfigurationError, match="'host:port'"):
                SystemConfig(num_clients=1, transport="tcp", endpoints=bad)


class TestConfigAndBackends:
    def test_transport_must_be_sim_or_tcp(self):
        with pytest.raises(ConfigurationError, match="transport"):
            SystemConfig(num_clients=1, transport="carrier-pigeon")

    def test_endpoints_require_tcp(self):
        with pytest.raises(ConfigurationError, match="transport='tcp'"):
            SystemConfig(num_clients=1, endpoints=("h:1",))

    def test_trace_path_requires_tcp(self):
        with pytest.raises(ConfigurationError, match="transport='tcp'"):
            SystemConfig(num_clients=1, trace_path="x.jsonl")

    def test_tcp_requires_endpoints(self):
        with pytest.raises(ConfigurationError, match="endpoints"):
            SystemConfig(num_clients=1, transport="tcp")

    def test_endpoints_string_is_split(self):
        config = SystemConfig(
            num_clients=1, transport="tcp", endpoints="h:1, h:2", replicas=2
        )
        assert config.endpoints == ("h:1", "h:2")

    def test_tcp_needs_one_endpoint_per_replica(self):
        with pytest.raises(ConfigurationError, match="one endpoint per replica"):
            SystemConfig(
                num_clients=1, transport="tcp", endpoints="h:1,h:2"
            )
        with pytest.raises(ConfigurationError, match="one endpoint per replica"):
            SystemConfig(
                num_clients=1, transport="tcp", endpoints="h:1", replicas=3
            )

    def test_server_name_is_tcp_only(self):
        with pytest.raises(ConfigurationError, match="transport='tcp'"):
            SystemConfig(num_clients=1, server_name="S0")

    @pytest.mark.parametrize(
        "knob",
        [
            {"storage": "log"},
            {"server_outages": (Fault("down", None, 1.0, 2.0),)},
            {"batching": True},
            {"server_factory": lambda n, name: None},
            {"shards": 2},
        ],
    )
    def test_server_side_knobs_rejected_over_tcp(self, knob):
        with pytest.raises(ConfigurationError, match="own process"):
            SystemConfig(
                num_clients=2, transport="tcp", endpoints=("h:1",), **knob
            )

    @pytest.mark.parametrize("backend", ["lockstep", "cluster"])
    def test_simulator_only_backends_refuse_tcp(self, backend):
        # The lock-step baseline is no backend: build_deployment refuses
        # it the socket world, as open_system refuses the cluster.
        config = SystemConfig(
            num_clients=2, transport="tcp", endpoints=("h:1",)
        )
        with pytest.raises(ConfigurationError, match="simulator.only"):
            if backend == "lockstep":
                build_deployment(config, lockstep_protocol())
            else:
                open_system(config, backend=backend)

    def test_open_system_tcp_end_to_end(self):
        # The full facade path: SystemConfig -> open_system -> NetSystem,
        # against a real `repro serve` OS process (the backend owns its
        # runtime, so the server cannot share the client loop).
        from repro.net.supervisor import ServerProcess

        with ServerProcess(2) as proc:
            system = open_system(
                SystemConfig(
                    num_clients=2,
                    transport="tcp",
                    endpoints=(proc.endpoint,),
                    default_timeout=10.0,
                ),
                backend="ustor",
            )
            try:
                assert system.backend_name == "ustor"
                assert system.session(0).write_sync(b"via-config") == 1
                value, _t = system.session(1).read_sync(0)
                assert value == b"via-config"
            finally:
                system.close()
