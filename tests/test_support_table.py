"""The support table (``repro.api.config.FEATURES``) is complete and truthful.

One parametrised test walks every ``(backend, transport, feature)`` cell:
outside the supported set ``open_system`` refuses with a message naming
the knob *before* anything is built or connected; inside it the
deployment opens and completes a write (tcp cells against loopback hosts
sharing the client's event loop, as in ``tests/test_net_loopback.py``).
A second test keeps the table complete: every ``SystemConfig`` field is
claimed by exactly one feature or declared universal, so the next knob
cannot be silently ignored.

``test_one_loop_one_surface`` then opens a deployment every way there is
— each backend on the simulator, ``ustor`` over loopback tcp with one and
three replicas, the replay of a recorded run — and checks that each goes
through :func:`repro.workloads.runner.wire_deployment` exactly once per
deployment and hands back a system that answers the same calls with the
same meaning.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter

import pytest

import repro.api.config as config_module
import repro.net.client as net_client
import repro.workloads.runner as runner
from repro.api import BACKENDS, ClusterBackend, SystemConfig, open_system
from repro.api.config import (
    FEATURES,
    TRANSPORTS,
    UNIVERSAL_FIELDS,
    check_supported,
)
from repro.cli import BASELINE_SERVERS, SERVERS
from repro.common.errors import ConfigurationError
from repro.history.history import History
from repro.net.client import NetRuntime
from repro.net.server import NetServerHost
from repro.net.trace import replay_trace
from repro.obs.tracing import SpanLog
from repro.sim.network import FixedLatency

BY_NAME = {feature.name: feature for feature in FEATURES}
NUM_CLIENTS = 3


def asking(feature: str, backend: str) -> dict:
    """``SystemConfig`` kwargs that ask for ``feature`` (and for nothing
    else beyond what its own validation demands)."""
    honest = BASELINE_SERVERS.get(backend, SERVERS)["correct"]
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
        "wire": {"trace_ids": True},
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

    def start(replicas: int = 1, counter: str | None = None) -> tuple[str, ...]:
        names = ["S"] if replicas == 1 else [f"S/r{k}" for k in range(replicas)]
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
        assert set(asking(feature.name, "cluster")) & set(feature.fields)


@pytest.mark.net
@pytest.mark.parametrize("feature_name", sorted(BY_NAME))
@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_cell(backend, transport, feature_name, monkeypatch, loopback):
    kwargs = {"num_clients": NUM_CLIENTS, **asking(feature_name, backend)}
    if backend in BY_NAME[feature_name].runs_on(transport):
        if transport == "tcp":
            kwargs.update(
                transport="tcp",
                default_timeout=10.0,
                endpoints=loopback(kwargs.get("replicas", 1), kwargs.get("counter")),
            )
        with open_system(SystemConfig(**kwargs), backend=backend) as system:
            assert system.session(0).write_sync(b"x") == 1
        return

    def refuse_to_build(self, config):
        raise AssertionError("a rejected config reached the opener")

    for cls in {type(b) for b in BACKENDS.values()}:
        monkeypatch.setattr(cls, "_open", refuse_to_build)
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
        assert any(f"{field}=" in message for field in asking(feature_name, backend))
        assert f"transport={transport!r}" in message


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
    config = SystemConfig(num_clients=2, batching=True)
    with pytest.raises(ConfigurationError, match="batching="):
        check_supported(config, "lockstep")
    flipped = tuple(
        dataclasses.replace(f, sim=f.sim + ("lockstep",))
        if f.name == "batching"
        else f
        for f in FEATURES
    )
    monkeypatch.setattr(config_module, "FEATURES", flipped)
    check_supported(config, "lockstep")


def test_span_log_attached_on_every_way_in():
    # Only the free open_system() used to attach it (and only to the
    # facade, which a cluster's per-shard sessions never read).
    log = SpanLog()
    system = ClusterBackend().open_system(
        SystemConfig(num_clients=2, shards=2, span_log=log)
    )
    system.session(0).write_sync(b"traced")
    assert log.records


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
        ("lockstep", "sim", 1, 1),
        ("unchecked", "sim", 1, 1),
        ("cluster", "sim", 1, 2),  # once per shard
        ("ustor", "tcp", 1, 1),
        ("ustor", "tcp", 3, 1),
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
    with open_system(SystemConfig(**kwargs), backend=backend) as system:
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
