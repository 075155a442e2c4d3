"""The adversary catalogue and what every adversary inherits from the
honest SUBMIT path: counter attestation, the server's own counters, the
``first_deviation_at`` stamp, validated arguments — and USTOR's theorem
(Section 5), that every run against any of them is weak
fork-linearizable."""

from __future__ import annotations

import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import OperationFailed, SystemConfig, open_system
from repro.api.backends import build_deployment
from repro.baselines.lockstep import TamperingLockStepServer, lockstep_protocol
from repro.cli import SERVERS, main
from repro.common.errors import ConfigurationError
from repro.common.types import OpKind
from repro.consistency import validate_weak_fork_linearizability
from repro.obs.health import HealthMonitor
from repro.obs.registry import Registry, use_registry
from repro.replica.counter import CounterVerifier, MonotonicCounter
from repro.ustor.byzantine import (
    ADVERSARIES,
    FakePendingServer,
    Fig3Server,
    RollbackServer,
    SplitBrainServer,
    TamperingServer,
    UnresponsiveServer,
)
from repro.ustor.fuzz import RandomDeviationServer
from repro.ustor.messages import ReplyMessage
from repro.ustor.viewhistory import build_client_views
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts

from test_ustor_server import submit

README = Path(__file__).parent.parent / "README.md"

#: The catalogue entries that serve ``self.state`` and corrupt the REPLY.
REPLY_MUTATORS = (
    "tampering",
    "forging",
    "wrong-proof",
    "fake-pending",
    "self-echo",
    "bad-reader-version",
    "stale-read",
    "lagging-reader-version",
    "random-deviation",
)


class _Wire:
    """Scheduler and network stub: a clock, and the sends it was handed."""

    now = 0.0

    def __init__(self):
        self.sent = []

    def send(self, src, dst, message):
        self.sent.append((dst, message))


def _bound(name, num_clients=3):
    wire = _Wire()
    server = ADVERSARIES[name].factory(num_clients, "S")
    server.bind(wire, wire)
    return server, wire


def _drive(system, num_clients, ops, seed):
    scripts = generate_scripts(
        num_clients,
        WorkloadConfig(ops_per_client=ops, read_fraction=0.5, mean_think_time=1.0),
        random.Random(seed),
    )
    driver = Driver(system)
    driver.attach_all(scripts)
    system.run(until=500.0)
    return driver


class TestCatalogue:
    def test_declared_once_and_read_by_the_cli(self, capsys):
        assert list(SERVERS) == list(ADVERSARIES)
        assert len(ADVERSARIES) == 16 and "correct" in ADVERSARIES
        assert main(["attacks"]) == 0
        out = capsys.readouterr().out
        for name, adversary in ADVERSARIES.items():
            (line,) = [l for l in out.splitlines() if l.split()[:1] == [name]]
            assert adversary.note in line
            assert line.endswith("[tcp]") == adversary.tcp
            assert line in README.read_text(), "regenerate README's sample"

    @pytest.mark.parametrize("name", ADVERSARIES)
    def test_every_behaviour_runs_through_repro_run(self, name, capsys):
        assert main(["run", "--clients", "4", "--ops", "4", "--server", name]) == 0
        assert f"server={name}" in capsys.readouterr().out


class TestInheritedFromTheHonestPath:
    @pytest.mark.parametrize("name", ADVERSARIES)
    def test_reply_carries_a_valid_attestation(self, name):
        server, wire = _bound(name)
        server.attach_counter(MonotonicCounter("S"))
        verifier = CounterVerifier()
        # Figure 3's schedule, so its crafted join REPLY is among them.
        requests = [
            submit(0, OpKind.WRITE, 0, 1, b"u"),
            submit(1, OpKind.READ, 0, 1),
            submit(1, OpKind.READ, 0, 2),
        ]
        for request in requests:
            before = len(wire.sent)
            server.on_message(f"C{request.invocation.client + 1}", request)
            for _dst, reply in wire.sent[before:]:
                assert isinstance(reply, ReplyMessage)
                violation = verifier.check("S", reply, request.invocation.submit_sig)
                # Authentic, bound to this SUBMIT, moving forward; only a
                # state chooser may be caught serving a branch that lags.
                assert violation is None or "rolled back" in violation
        assert wire.sent or name == "unresponsive"
        assert server.submits_handled == len(wire.sent)

    @pytest.mark.parametrize("name", ADVERSARIES)
    def test_the_attestation_is_all_a_counter_adds_to_a_reply(self, name):
        """The attested REPLY is rebuilt field by field on the SUBMIT path:
        it must stay the plain one plus an attestation, whatever fields
        ``ReplyMessage`` grows."""
        plain, plain_wire = _bound(name)
        attested, attested_wire = _bound(name)
        attested.attach_counter(MonotonicCounter("S"))
        requests = [
            submit(0, OpKind.WRITE, 0, 1, b"u"),
            submit(1, OpKind.READ, 0, 1),
            submit(1, OpKind.READ, 0, 2),
        ]
        for request in requests:
            for server in (plain, attested):
                server.on_message(f"C{request.invocation.client + 1}", request)
        assert len(plain_wire.sent) == len(attested_wire.sent)
        for (dst, reply), (twin_dst, twin) in zip(plain_wire.sent, attested_wire.sent):
            assert reply.attestation is None and twin.attestation is not None
            assert (dst, reply) == (twin_dst, replace(twin, attestation=None))

    @pytest.mark.parametrize("name", REPLY_MUTATORS)
    def test_byzantine_replica_is_masked_not_convicted_for_bookkeeping(self, name):
        system = open_system(
            SystemConfig(
                num_clients=3,
                seed=1,
                replicas=3,
                counter="durable",
                replica_server_factories={1: ADVERSARIES[name].factory},
            ),
            backend="ustor",
        )
        with system:
            driver = _drive(system, 3, ops=6, seed=1)
            assert driver.stats.total_completed() == 18
            assert not any(c.failed for c in system.clients)
            stats = [c.quorum_coordinator.stats() for c in system.clients]
            assert not any(s["convicted"] for s in stats)
            # What the replica did is what the quorum saw.
            assert sum(s["masked_deviations"] for s in stats) >= 1

    def test_server_counts_its_own_submits_under_attack(self):
        with use_registry(Registry()) as registry:
            system = open_system(
                SystemConfig(
                    num_clients=3, seed=1, server_factory=SERVERS["tampering"]
                ),
                backend="ustor",
            )
            with system:
                _drive(system, 3, ops=6, seed=1)
                server = system.server
                answered = system.trace.message_count("REPLY")
                assert answered > 0
                HealthMonitor(system).refresh()
                assert registry.get("ustor.server.submits").value == answered
                assert server.submits_handled == answered
                assert server.max_pending_len > 0


class TestFirstDeviationStamp:
    @pytest.mark.parametrize("name", ADVERSARIES)
    def test_set_on_every_adversary_that_deviated(self, name):
        system = open_system(
            SystemConfig(num_clients=4, seed=2, server_factory=SERVERS[name]),
            backend="ustor",
        )
        with system:
            _drive(system, 4, ops=8, seed=2)
            stamp = system.server.first_deviation_at
            if name == "correct":
                assert stamp is None
            else:
                assert stamp is not None and 0.0 < stamp <= system.now

    def test_stale_read_before_any_write_is_not_a_deviation(self):
        server, wire = _bound("stale-read")
        server.on_message("C2", submit(1, OpKind.READ, 0, 1))
        assert len(wire.sent) == 1 and server.first_deviation_at is None


def _one_fail_each(system) -> list[str]:
    """Assert every failed client output ``fail_i`` once per shard, with
    its one reason, and nobody else did; return the reasons."""
    events = system.notifications.failure_events()
    reasons = []
    for client in system.clients:
        mine = [e for e in events if e.client == client.client_id]
        if not client.failed:
            assert mine == [], client.name
            continue
        assert [e.shard for e in mine] == [0], client.name
        assert mine[0].reason == client.fail_reason == client.halt_reason
        reasons.append(client.fail_reason)
    return reasons


class TestOneFailPerClient:
    @pytest.mark.parametrize("backend", ["ustor", "faust"])
    @pytest.mark.parametrize("name", ADVERSARIES)
    def test_each_failed_client_outputs_one_reason(self, name, backend):
        system = open_system(
            SystemConfig(num_clients=4, seed=2, server_factory=SERVERS[name]),
            backend=backend,
        )
        with system:
            _drive(system, 4, ops=8, seed=2)
            reasons = _one_fail_each(system)
        if backend == "faust":
            for reason in reasons:
                # A check of Algorithm 1 (it names its line) is USTOR's
                # detection, whether caught here or relayed by a peer.
                caught = re.sub(r"^(FAILURE alert from C\d+: )+", "", reason)
                if re.search(r"\(line \d+\)", caught):
                    assert caught.startswith("USTOR detection: "), reason

    def test_lockstep_tampering_server(self):
        system = build_deployment(
            SystemConfig(
                2,
                seed=4,
                server_factory=lambda n, name: TamperingLockStepServer(n, 0, name=name),
            ),
            lockstep_protocol(),
        )
        writer, reader = system.sessions()
        writer.write_sync(b"genuine")
        with pytest.raises(OperationFailed):
            reader.read_sync(0)
        assert _one_fail_each(system) == [
            "read value does not match the committed write"
        ]


class TestWeakForkLinearizable:
    @pytest.mark.parametrize("backend", ["ustor", "faust"])
    @pytest.mark.parametrize("name", ADVERSARIES)
    def test_every_run_has_valid_views(self, name, backend):
        # The protocol's own witnesses: each client's view rebuilt from
        # the view-history records its accepted REPLYs left behind.
        system = open_system(
            SystemConfig(num_clients=4, seed=2, server_factory=SERVERS[name]),
            backend=backend,
        )
        with system:
            _drive(system, 4, ops=20, seed=2)
            history = system.history()
            views = build_client_views(history, system.clients)
            result = validate_weak_fork_linearizability(history, views)
        assert result.ok, result.violation


class TestArgumentsValidatedOnce:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: Fig3Server(1, writer=0, victim=1),
            lambda: Fig3Server(3, writer=3, victim=1),
            lambda: Fig3Server(3, writer=1, victim=1),
            lambda: TamperingServer(3, target_register=3),
            lambda: TamperingServer(3, target_register=-1),
            lambda: UnresponsiveServer(3, victims={0, 3}),
            lambda: FakePendingServer(3, ghost_client=3),
            lambda: SplitBrainServer(3, groups=[{0}, {1}], fork_time=0.0),
            lambda: SplitBrainServer(2, groups=[{0, 1}, {1}], fork_time=0.0),
            lambda: SplitBrainServer(2, groups=[{0, 1, 2}], fork_time=0.0),
            lambda: RollbackServer(3, snapshot_after_submits=4, rollback_after_submits=4),
            lambda: RandomDeviationServer(3, deviation_probability=1.5, seed=0),
        ],
    )
    def test_out_of_range_arguments_are_configuration_errors(self, build):
        with pytest.raises(ConfigurationError):
            build()

    def test_cli_refuses_instead_of_pretending_to_attack(self, capsys):
        assert main(["run", "--server", "figure3", "--clients", "1"]) != 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and "victim=1 names none" in out
