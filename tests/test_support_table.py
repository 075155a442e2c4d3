"""The support table (``repro.api.config.FEATURES``) is complete and truthful.

One parametrised test walks every ``(backend, transport, feature)`` cell:
outside the supported set ``open_system`` refuses with a message naming
the knob *before* anything is built or connected; inside it the
deployment opens and completes a write (tcp cells against loopback hosts
sharing the client's event loop, as in ``tests/test_net_loopback.py``).
``test_baseline_cell`` holds the lock-step baseline, which no backend
names, to the same promise through ``build_deployment``.  A second test
keeps the table complete: every ``SystemConfig`` field is
claimed by exactly one feature or declared universal, so the next knob
cannot be silently ignored.

``test_one_loop_one_surface`` then opens a deployment every way there is
— each backend on the simulator, the lock-step baseline through
``build_deployment``, ``ustor`` and ``faust`` over loopback tcp with one
and three replicas, the replay of a recorded run — and checks that each goes through :func:`repro.workloads.runner.
wire_deployment` exactly once per deployment and hands back a system
that answers the same calls with the same meaning.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from collections import Counter

import pytest

import repro.api.backends as backends_module
import repro.api.config as config_module
import repro.cluster.backend as cluster_backend
import repro.net.client as net_client
import repro.workloads.runner as runner
from repro.api import BACKENDS, SystemConfig, open_system
from repro.api.backends import build_deployment, protocol_for
from repro.api.config import (
    FEATURES,
    TRANSPORTS,
    UNIVERSAL_FIELDS,
    check_supported,
)
from repro.baselines.lockstep import LockStepServer, lockstep_protocol
from repro.cli import SERVERS
from repro.common.errors import ConfigurationError
from repro.history.history import History
from repro.net.client import NetRuntime
from repro.net.server import NetServerHost
from repro.net.trace import replay_trace
from repro.obs.tracing import SpanLog
from repro.sim.network import FixedLatency

BY_NAME = {feature.name: feature for feature in FEATURES}
NUM_CLIENTS = 3


def asking(feature: str) -> dict:
    """``SystemConfig`` kwargs that ask for ``feature`` (and for nothing
    else beyond what its own validation demands)."""
    honest = SERVERS["correct"]
    return {
        "storage": {"storage": "log"},
        "batching": {"batching": True},
        "checkpoint": {"checkpoint": True},
        "membership": {"checkpoint": True, "membership": True},
        "shards": {"shards": 2},
        "replicas": {"replicas": 3},
        "replica_factories": {"replica_server_factories": {0: honest}},
        "counter": {"counter": "durable"},
        "commit_piggyback": {"commit_piggyback": True},
        "wire": {"server_name": "S-wire"},
        "trace": {"trace_path": os.devnull},
        "latency": {"latency": FixedLatency(2.0)},
        "server_factory": {"server_factory": honest},
    }[feature]


@pytest.fixture
def loopback(monkeypatch):
    """Start loopback hosts for a tcp config; the tcp world is handed the
    hosts' runtime so one pumped loop serves both sides."""
    runtime = NetRuntime()
    hosts = []
    monkeypatch.setattr(
        net_client,
        "TcpWorld",
        functools.partial(net_client.TcpWorld, runtime=runtime),
    )

    def start(
        replicas: int = 1, counter: str | None = None, name: str = "S"
    ) -> tuple[str, ...]:
        names = [name] if replicas == 1 else [f"{name}/r{k}" for k in range(replicas)]
        for name in names:
            host = NetServerHost(NUM_CLIENTS, server_name=name, counter=counter)
            runtime.run_coroutine(host.start())
            hosts.append(host)
        return tuple(host.endpoint for host in hosts)

    yield start
    for host in hosts:
        runtime.run_coroutine(host.stop())
    runtime.close()


def test_asking_covers_every_feature():
    for feature in FEATURES:
        assert set(asking(feature.name)) & set(feature.fields)


@pytest.mark.net
@pytest.mark.parametrize("feature_name", sorted(BY_NAME))
@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_cell(backend, transport, feature_name, monkeypatch, loopback):
    kwargs = {"num_clients": NUM_CLIENTS, **asking(feature_name)}
    if backend in BY_NAME[feature_name].runs_on(transport):
        if transport == "tcp":
            kwargs.update(
                transport="tcp",
                default_timeout=10.0,
                endpoints=loopback(
                    kwargs.get("replicas", 1),
                    kwargs.get("counter"),
                    kwargs.get("server_name", "S"),
                ),
            )
        with open_system(SystemConfig(**kwargs), backend=backend) as system:
            assert system.session(0).write_sync(b"x") == 1
        return

    def refuse_to_build(*args, **kwargs):
        raise AssertionError("a rejected config reached a builder")

    monkeypatch.setattr(backends_module, "build_deployment", refuse_to_build)
    monkeypatch.setattr(cluster_backend, "open_cluster_system", refuse_to_build)
    if transport == "tcp":
        # Nothing listens there: a connection attempt would be an error
        # of a different kind (and seconds later).
        kwargs.update(
            transport="tcp",
            endpoints=("127.0.0.1:1",) * kwargs.get("replicas", 1),
        )
    with pytest.raises(ConfigurationError) as refusal:
        open_system(SystemConfig(**kwargs), backend=backend)
    message = str(refusal.value)
    if "simulator-only" not in message:
        assert any(f"{field}=" in message for field in asking(feature_name))
        assert f"transport={transport!r}" in message


#: The cells the lock-step baseline runs: on the simulator only.
BASELINE_RUNS = {"latency", "server_factory"}


@pytest.mark.parametrize("feature_name", sorted(BY_NAME))
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_baseline_cell(transport, feature_name, monkeypatch):
    kwargs = {"num_clients": NUM_CLIENTS, **asking(feature_name)}
    if transport == "sim" and feature_name in BASELINE_RUNS:
        if feature_name == "server_factory":
            kwargs["server_factory"] = lambda n, name: LockStepServer(n, name=name)
        system = build_deployment(SystemConfig(**kwargs), lockstep_protocol())
        assert system.session(0).write_sync(b"x") == 1
        return

    def refuse_to_build(*args, **kwargs):
        raise AssertionError("a rejected config reached a builder")

    monkeypatch.setattr(runner, "wire_deployment", refuse_to_build)
    monkeypatch.setattr(runner, "SimWorld", refuse_to_build)
    monkeypatch.setattr(net_client, "TcpWorld", refuse_to_build)
    if transport == "tcp":
        kwargs.update(
            transport="tcp",
            endpoints=("127.0.0.1:1",) * kwargs.get("replicas", 1),
        )
    with pytest.raises(ConfigurationError) as refusal:
        build_deployment(SystemConfig(**kwargs), lockstep_protocol())
    message = str(refusal.value)
    if "simulator only" not in message:
        assert any(f"{field}=" in message for field in asking(feature_name))
        assert f"transport={transport!r}" in message


@pytest.mark.parametrize("stack", ["faust", "ustor"])
def test_the_baseline_rule_leaves_the_ustor_stack_alone(stack):
    # build_deployment's own check is for protocols outside the USTOR
    # stack: a USTOR-stack protocol built directly keeps its storage
    # engine, replicas and counters.
    config = SystemConfig(
        num_clients=NUM_CLIENTS, storage="log", replicas=3, counter="durable"
    )
    system = build_deployment(config, protocol_for(stack, config))
    assert len(system.replica_servers) == 3
    assert system.session(0).write_sync(b"x") == 1


def test_every_config_field_is_claimed_exactly_once():
    claims = Counter(field for feature in FEATURES for field in feature.fields)
    claims.update(UNIVERSAL_FIELDS)
    names = {field.name for field in dataclasses.fields(SystemConfig)}
    assert set(claims) == names
    assert [name for name, count in claims.items() if count != 1] == []
    table_backends = {
        backend for feature in FEATURES for t in TRANSPORTS
        for backend in feature.runs_on(t)
    }
    assert table_backends == set(BACKENDS)


def test_flipping_one_cell_flips_the_verdict(monkeypatch):
    config = SystemConfig(
        num_clients=2, transport="tcp", endpoints=("h:1",), trace_path=os.devnull
    )
    with pytest.raises(ConfigurationError, match="trace_path="):
        check_supported(config, "faust")
    flipped = tuple(
        dataclasses.replace(f, tcp=f.tcp + ("faust",)) if f.name == "trace" else f
        for f in FEATURES
    )
    monkeypatch.setattr(config_module, "FEATURES", flipped)
    check_supported(config, "faust")


def test_span_log_attached_to_a_cluster_hears_every_shard():
    # The log listens to each shard's recorder, so a cluster is traced on
    # both of its shards.
    system = open_system(SystemConfig(num_clients=2, shards=2), backend="cluster")
    log = SpanLog.attach(system)
    for client in range(2):
        system.session(client).write_sync(b"traced")
    writes = [r for r in log.records if r["name"] == "op:write"]
    assert sorted(r["args"]["register"] for r in writes) == [0, 1]
    assert {system.shard_of(r["args"]["register"]) for r in writes} == {0, 1}


# --------------------------------------------------------------------- #
# One wiring loop, one system surface
# --------------------------------------------------------------------- #


@pytest.fixture
def wired(monkeypatch):
    """Spy on the one wiring loop: every system it returns, in order."""
    systems = []
    wire = runner.wire_deployment

    def spy(*args, **kwargs):
        system = wire(*args, **kwargs)
        systems.append(system)
        return system

    monkeypatch.setattr(runner, "wire_deployment", spy)
    return systems


def check_surface(system, *, step: float, invoke: bool = True) -> None:
    """The calls every deployment answers, with the same meaning in every
    world (``step`` is a short wait on the world's clock)."""
    assert system.client(0) is system.clients[0]
    auditor = system.attach_audit()
    assert auditor.every == system.audit_every
    auditor.stop()

    # run(until=) is an absolute bound and returns the events fired by
    # *this* call, not a lifetime total.
    for _ in range(3):
        system.scheduler.schedule(step / 2, lambda: None)
    target = system.now + step
    assert system.run(until=target) >= 3
    assert system.now >= target
    assert system.run(until=target) == 0

    assert system.run_until(lambda: True) is True
    assert system.run_until(lambda: False, timeout=step) is False

    if invoke:
        system.client(0).write(b"surface")
    before = system.now
    system.run_until_quiescent()  # no arguments: the world's own budget
    assert not system.client(0).busy
    assert system.now - before < system.quiescence_timeout
    history = system.history()
    assert isinstance(history, History) and len(history) >= 1

    system.close()
    system.close()


@pytest.mark.net
@pytest.mark.parametrize(
    "backend, transport, replicas, loops",
    [
        ("faust", "sim", 1, 1),
        ("ustor", "sim", 1, 1),
        ("lockstep", "sim", 1, 1),  # the baseline, through build_deployment
        ("cluster", "sim", 1, 2),  # once per shard
        ("ustor", "tcp", 1, 1),
        ("ustor", "tcp", 3, 1),
        ("faust", "tcp", 1, 1),
        ("faust", "tcp", 3, 1),
    ],
)
def test_one_loop_one_surface(backend, transport, replicas, loops, wired, loopback):
    kwargs = {"num_clients": NUM_CLIENTS}
    if backend == "cluster":
        kwargs["shards"] = 2
    if transport == "tcp":
        kwargs.update(
            transport="tcp", replicas=replicas, endpoints=loopback(replicas)
        )
    config = SystemConfig(**kwargs)
    if backend == "lockstep":
        system = build_deployment(config, lockstep_protocol())
    else:
        system = open_system(config, backend=backend)
    with system:
        assert len(wired) == loops
        deployments = system.shards
        assert [id(d) for d in deployments] == [id(w) for w in wired]
        if backend != "cluster":
            assert system is wired[0]
        assert system.session(0).write_sync(b"x") == 1
        for deployment in deployments:
            check_surface(deployment, step=0.05 if transport == "tcp" else 5.0)
    system.close()  # after the with-block already closed it


@pytest.mark.net
def test_replay_goes_through_the_same_loop(wired, loopback, tmp_path):
    trace_path = tmp_path / "run.jsonl"
    config = SystemConfig(
        num_clients=NUM_CLIENTS,
        transport="tcp",
        endpoints=loopback(),
        trace_path=str(trace_path),
    )
    with open_system(config, backend="ustor") as system:
        assert system.session(0).write_sync(b"recorded") == 1
        assert system.session(1).read_sync(0)[0] == b"recorded"
        system.run_until_quiescent()
    del wired[:]
    result = replay_trace(str(trace_path))
    assert result.ok, result.divergences
    assert len(wired) == 1
    assert wired[0].clients == result.clients
    # The replayed clients already ran the recorded operations; there is
    # no server to answer a new one.
    check_surface(wired[0], step=5.0, invoke=False)


def test_default_timeout_resolves_per_transport():
    assert SystemConfig(num_clients=1).default_timeout == 1_000.0
    tcp = SystemConfig(num_clients=1, transport="tcp", endpoints=("h:1",))
    assert tcp.default_timeout == 30.0
    assert SystemConfig(num_clients=1, default_timeout=7.0).default_timeout == 7.0
    explicit = SystemConfig(
        num_clients=1, transport="tcp", endpoints=("h:1",), default_timeout=5.0
    )
    assert explicit.default_timeout == 5.0
