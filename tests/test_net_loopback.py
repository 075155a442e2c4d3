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
  reconnect + retransmission, exactly once.
"""

from __future__ import annotations

import random

import pytest

from repro.api import SystemConfig, open_system
from repro.api.errors import OperationTimeout
from repro.common.errors import ConfigurationError
from repro.consistency.causal import check_causal_consistency
from repro.consistency.linearizability import check_linearizability
from repro.consistency import validate_weak_fork_linearizability
from repro.net.client import NetRuntime, open_tcp_system, parse_endpoint
from repro.net.server import NetServerHost
from repro.ustor.byzantine import UnresponsiveServer
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
):
    """A host and its clients sharing one pumped event loop."""
    runtime = NetRuntime()
    host = NetServerHost(
        num_clients, storage=storage, server_factory=server_factory
    )
    runtime.run_coroutine(host.start())
    system = open_tcp_system(
        num_clients,
        (host.endpoint,),
        runtime=runtime,
        trace_path=str(trace_path) if trace_path else None,
        default_timeout=default_timeout,
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
            views = build_client_views(history, system.recorder, system.clients)
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
            open_tcp_system(1, ("127.0.0.1:1",), connect_timeout=0.3)

    def test_wrong_server_name_fails_handshake(self):
        runtime = NetRuntime()
        host = NetServerHost(1, server_name="S")
        runtime.run_coroutine(host.start())
        try:
            with pytest.raises(ConfigurationError, match="answered as"):
                open_tcp_system(
                    1,
                    (host.endpoint,),
                    runtime=runtime,
                    server_name="T",
                    connect_timeout=2.0,
                )
        finally:
            runtime.run_coroutine(host.stop())
            runtime.close()


class TestCrashRecovery:
    def test_server_restart_over_durable_dir_storage(self, tmp_path):
        storage = f"dir:{tmp_path / 'srv'}"
        runtime = NetRuntime()
        host = NetServerHost(2, storage=storage)
        runtime.run_coroutine(host.start())
        port = host.port
        system = open_tcp_system(
            2, (host.endpoint,), runtime=runtime, default_timeout=10.0
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
        system = open_tcp_system(
            1, (host.endpoint,), runtime=runtime, default_timeout=5.0
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
        for bad in ("nohost", ":1", "h:", "h:port"):
            with pytest.raises(ConfigurationError):
                parse_endpoint(bad)


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
            {"server_outages": ((1.0, 2.0),)},
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

    @pytest.mark.parametrize("backend", ["faust", "lockstep", "unchecked", "cluster"])
    def test_only_ustor_backend_speaks_tcp(self, backend):
        config = SystemConfig(
            num_clients=2, transport="tcp", endpoints=("h:1",)
        )
        with pytest.raises(ConfigurationError, match="simulator-only"):
            open_system(config, backend=backend)

    def test_open_system_tcp_end_to_end(self):
        # The full facade path: SystemConfig -> UstorBackend -> NetSystem,
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
