"""One fault schedule, one liveness answer.

Every fault kind, on every target it applies to, goes through the
deployment's one :class:`~repro.sim.faults.FaultInjector` — a spy on the
lifecycle methods proves nothing else in ``src/repro`` crashes, restarts,
pauses, resumes or disconnects a process on a schedule's behalf — leaves
exactly the trace note its kind names, and is skipped for a client that
has already halted.  "Has this client stopped?" is one property pair,
``halted``/``halt_reason``, table-tested on all four client types.  The
overlap rule is one function; the regressions at the bottom are the ways
its three former copies disagreed.
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace

import pytest

from repro.api import FaustParams, SystemConfig, open_system
from repro.api.backends import build_deployment
from repro.baselines.lockstep import lockstep_protocol
from repro.cli import main as repro_main
from repro.common.errors import ConfigurationError
from repro.faust.checkpoint import CheckpointPolicy
from repro.sim.faults import FAULT_KINDS, Fault, FaultInjector, overlap, plan_windows
from repro.sim.offline import OfflineChannel
from repro.sim.process import Node
from repro.workloads.generator import OpenLoopConfig
from repro.workloads.scale import ScaleConfig, run_scale

QUIET = FaustParams(enable_dummy_reads=False, enable_probes=False)

#: name -> (backend, SystemConfig overrides); "lockstep" is the
#: baseline, which ``build_deployment`` builds (its server keeps no log).
DEPLOYMENTS = {
    "faust": ("faust", dict(num_clients=3)),
    "ustor": ("ustor", dict(num_clients=3)),
    "cluster": ("cluster", dict(num_clients=4, shards=2)),
    "replicas": ("faust", dict(num_clients=3, replicas=3, counter="durable")),
    "lockstep": ("lockstep", dict(num_clients=3)),
}


def deploy(name: str, **overrides):
    backend, knobs = DEPLOYMENTS[name]
    config = dict(seed=7, faust=QUIET, **knobs)
    config.update(overrides)
    if backend == "lockstep":
        return build_deployment(SystemConfig(**config), lockstep_protocol())
    config.setdefault("storage", "log")
    return open_system(SystemConfig(**config), backend=backend)


def servers_of(system) -> list:
    return [s for d in system.shards for s in d.replica_servers]


def notes_of(system) -> list[tuple[str, str]]:
    """Every (who, what) trace note of the deployment, shards included."""
    found = []
    for trace in [system.trace] + [d.trace for d in system.shards if d is not system]:
        found += [(note.source, note.kind) for note in trace.notes]
    return found


# --------------------------------------------------------------------- #
# The spy: who calls the lifecycle methods?
# --------------------------------------------------------------------- #

LIFECYCLE = ("crash", "restart", "pause", "resume", "set_online")
#: The injector, and the cluster's per-shard fan-out of what it asked for.
ALLOWED_CALLERS = ("repro.sim.faults", "repro.cluster.system")


def _all_subclasses(cls) -> list:
    return [cls] + [s for sub in cls.__subclasses__() for s in _all_subclasses(sub)]


@pytest.fixture()
def lifecycle_calls(monkeypatch):
    """Record ``(method, calling module)`` of every lifecycle call made
    from outside the method's own ``super()`` chain."""
    from repro.cluster.system import ClusterClient, _ClusterOffline

    calls: list[tuple[str, str]] = []

    def spy_on(cls, name):
        original = cls.__dict__[name]

        def spied(self, *args, **kwargs):
            caller = sys._getframe(1)
            if caller.f_code.co_name not in (name, "spied"):
                calls.append((name, caller.f_globals["__name__"]))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, spied)

    for cls in _all_subclasses(Node) + [ClusterClient, OfflineChannel, _ClusterOffline]:
        for name in LIFECYCLE:
            if name in cls.__dict__:
                spy_on(cls, name)
    return calls


def assert_only_the_injector_acted(calls) -> None:
    assert calls, "the scenario performed no lifecycle transition at all"
    strangers = [c for c in calls if c[1] not in ALLOWED_CALLERS]
    assert not strangers, strangers


# --------------------------------------------------------------------- #
# Every kind x every target, through the one injector
# --------------------------------------------------------------------- #


def test_the_vocabulary_is_four_kinds():
    assert FAULT_KINDS == ("down", "crash-forever", "crash-restart", "away")


@pytest.mark.parametrize("name", ["faust", "ustor", "cluster", "replicas"])
def test_down_whole_service(name, lifecycle_calls):
    system = deploy(name)
    system.faults.add(Fault("down", None, 5.0, 10.0))
    system.run(until=6.0)
    assert all(s.crashed for s in servers_of(system))
    system.run(until=20.0)
    assert not any(s.crashed for s in servers_of(system))
    for server in servers_of(system):
        assert (server.name, "server-crash") in notes_of(system)
        assert (server.name, "server-restart") in notes_of(system)
    assert_only_the_injector_acted(lifecycle_calls)


def test_down_one_shard(lifecycle_calls):
    system = deploy("cluster")
    system.faults.add(Fault("down", (1, None), 5.0, 10.0))
    system.run(until=6.0)
    assert [s.crashed for s in system.servers] == [False, True]
    system.run(until=20.0)
    assert not any(s.crashed for s in system.servers)
    assert notes_of(system) == [("S1", "server-crash"), ("S1", "server-restart")]
    assert_only_the_injector_acted(lifecycle_calls)


def test_down_one_replica(lifecycle_calls):
    system = deploy("replicas")
    system.faults.add(Fault("down", (None, 1), 5.0, 10.0))
    system.run(until=6.0)
    assert [s.crashed for s in servers_of(system)] == [False, True, False]
    # The honest majority masks it: operations complete during the outage.
    assert system.session(0).write_sync(b"masked") == 1
    system.run(until=20.0)
    assert not any(s.crashed for s in servers_of(system))
    assert ("S/r1", "server-crash") in notes_of(system)
    assert ("S/r1", "server-restart") in notes_of(system)
    assert_only_the_injector_acted(lifecycle_calls)


def test_down_one_replica_of_one_shard():
    system = deploy("cluster", replicas=3, counter="durable")
    system.faults.add(Fault("down", (1, 2), 5.0, 10.0))
    system.run(until=6.0)
    assert [s.name for s in servers_of(system) if s.crashed] == ["S1/r2"]


def test_a_config_declared_outage_of_one_replica_is_masked():
    system = deploy("replicas", server_outages=(Fault("down", (None, 1), 5.0, 10.0),))
    system.run(until=6.0)
    assert [s.crashed for s in servers_of(system)] == [False, True, False]
    assert system.session(0).write_sync(b"masked") == 1  # during the outage
    assert system.now < 15.0
    system.run(until=20.0)
    assert not any(s.crashed for s in servers_of(system))


def test_shard_zero_of_an_unsharded_deployment_is_its_server():
    system = deploy("faust")
    system.faults.add(Fault("down", (0, None), 5.0, 10.0))
    system.run(until=6.0)
    assert system.server.crashed
    assert notes_of(system) == [("S", "server-crash")]
    with pytest.raises(ConfigurationError, match="overlap"):
        system.faults.add(Fault("down", None, 10.0, 10.0))  # the same server


@pytest.mark.parametrize("name", ["faust", "ustor", "cluster", "lockstep"])
def test_crash_forever(name, lifecycle_calls):
    system = deploy(name)
    system.faults.add(Fault("crash-forever", 1, 5.0))
    system.run(until=50.0)
    assert [c.crashed for c in system.clients[:3]] == [False, True, False]
    assert notes_of(system) == [("C2", "client-crash")]
    assert_only_the_injector_acted(lifecycle_calls)


def test_a_cluster_trace_answers_note_queries_like_any_trace():
    system = deploy("cluster")
    system.faults.add(Fault("crash-forever", 1, 5.0))
    system.run(until=10.0)
    [note] = system.trace.notes_of_kind("client-crash")
    assert (note.time, note.source) == (5.0, "C2")
    assert system.trace.first_note("client-crash", source="C2") is note
    assert system.trace.message_count() == sum(
        shard.trace.message_count() for shard in system.shards
    )


@pytest.mark.parametrize("name", ["faust", "ustor", "cluster", "lockstep"])
def test_crash_restart(name, lifecycle_calls):
    system = deploy(name)
    system.faults.add(Fault("crash-restart", 1, 5.0, 10.0))
    system.run(until=6.0)
    assert system.clients[1].crashed and system.clients[1].halted
    system.run(until=20.0)
    assert not system.clients[1].halted
    assert notes_of(system) == [("C2", "client-crash"), ("C2", "client-restart")]
    assert system.session(1).write_sync(b"back") == 1
    assert_only_the_injector_acted(lifecycle_calls)


@pytest.mark.parametrize("name", ["faust", "ustor", "cluster", "lockstep"])
def test_away(name, lifecycle_calls):
    system = deploy(name)
    system.faults.add(Fault("away", 1, 5.0, 10.0))
    system.run(until=6.0)
    client = system.clients[1]
    assert not system.offline.is_online("C2")
    assert not client.halted and client.halt_reason is None  # away is not halted
    system.run(until=20.0)
    assert system.offline.is_online("C2")
    assert notes_of(system) == [("C2", "client-away"), ("C2", "client-return")]
    assert_only_the_injector_acted(lifecycle_calls)


def test_away_stops_and_restarts_the_fail_aware_timers():
    system = deploy("faust", faust=FaustParams())
    system.faults.add(Fault.parse("lease-expiry:1@5+10"))  # the CLI's spelling
    system.run(until=6.0)
    assert system.clients[1]._dummy_timer is None
    system.run(until=20.0)
    assert system.clients[1]._dummy_timer is not None


def test_acting_now(lifecycle_calls):
    system = deploy("faust")
    system.faults.away(2)
    assert not system.offline.is_online("C3")
    system.faults.back(2)
    assert system.offline.is_online("C3")
    system.faults.away(1, duration=10.0)  # claims [now, now + 10) as well
    with pytest.raises(ConfigurationError, match="overlap"):
        system.faults.add(Fault("crash-restart", 1, 5.0, 2.0))
    system.run(until=11.0)
    assert system.offline.is_online("C2")
    assert_only_the_injector_acted(lifecycle_calls)


def test_listeners_hear_actual_transitions_only():
    system = deploy("faust")
    heard = []
    system.faults.add_listener(lambda client, away: heard.append((client, away)))
    system.faults.add(Fault("away", 0, 5.0, 10.0))
    system.faults.add(Fault("away", 1, 5.0, 10.0))
    system.clients[1].crash()  # halted before its window opens: skipped
    system.run(until=20.0)
    assert heard == [(0, True), (0, False)]


@pytest.mark.parametrize("kind", ["crash-forever", "crash-restart", "away"])
@pytest.mark.parametrize("how", ["crashed", "failed"])
def test_client_faults_skip_a_client_that_already_halted(kind, how):
    system = deploy("faust")
    client = system.clients[1]
    if how == "crashed":
        client.crash()
    else:
        client._fail("caught the server earlier", ustor=False)
    duration = None if kind == "crash-forever" else 10.0
    system.faults.add(Fault(kind, 1, 5.0, duration))
    system.run(until=20.0)
    # Nothing happens to it — except that the end of a crash-restart window
    # means "up from here", so it revives a client that was merely crashed
    # (never one that output fail: that one stays halted).
    revived = kind == "crash-restart" and how == "crashed"
    assert [n for n in notes_of(system) if n[1].startswith("client-")] == (
        [("C2", "client-restart")] if revived else []
    )
    assert client.crashed == (how == "crashed" and not revived)
    assert client.halted != revived


def test_server_faults_skip_a_server_already_down():
    system = deploy("faust")
    system.server.crash()
    system.faults.add(Fault("down", None, 5.0, 10.0))
    system.run(until=6.0)
    assert ("S", "server-crash") not in notes_of(system)
    system.run(until=20.0)  # ...but the window's end still brings it back
    assert not system.server.crashed


def test_targets_are_validated():
    single, cluster = deploy("faust"), deploy("cluster")
    with pytest.raises(ConfigurationError, match="shard 1 out of range"):
        single.faults.add(Fault("down", (1, None), 5.0, 5.0))
    with pytest.raises(ConfigurationError, match="replica 3"):
        single.faults.add(Fault("down", (None, 3), 5.0, 5.0))
    with pytest.raises(ConfigurationError, match="shard 2"):
        cluster.faults.add(Fault("down", (2, None), 5.0, 5.0))
    for bad in (Fault("away", 9, 5.0, 5.0), Fault("away", None, 5.0, 5.0)):
        with pytest.raises(Exception, match="names client"):
            cluster.faults.add(bad)
    for kind, start, duration in [
        ("asleep", 1.0, 1.0),
        ("away", -1.0, 1.0),
        ("away", 1.0, 0.0),
        ("down", 1.0, None),
        ("crash-forever", 1.0, 1.0),
    ]:
        with pytest.raises(ConfigurationError):
            Fault(kind, 0, start, duration)


@pytest.mark.net
@pytest.mark.parametrize("target", [(0, 0), (0, None), (None, 0)])
def test_a_tcp_deployment_has_no_co_located_server_to_crash(target):
    # The server is another process, so the refusal says that, whichever
    # replica the target names — not "replica 0 out of range".
    from repro.net.client import NetRuntime
    from repro.net.server import NetServerHost

    runtime = NetRuntime()
    try:
        host = NetServerHost(2)
        runtime.run_coroutine(host.start())
        with open_system(
            SystemConfig(2, transport="tcp", endpoints=(host.endpoint,)),
            backend="ustor",
            runtime=runtime,
        ) as system:
            system.hosts.append(host)
            with pytest.raises(ConfigurationError, match="no co-located server"):
                system.faults.add(Fault("down", target, 1.0, 1.0))
    finally:
        runtime.close()


@pytest.mark.parametrize(
    "start, duration",
    [(float("nan"), 5.0), (float("inf"), 5.0), (5.0, float("nan"))],
    ids=["nan-start", "inf-start", "nan-duration"],
)
def test_nan_and_infinite_start_are_refused(start, duration):
    # NaN compares false both ways, so each check must be one NaN fails.
    for kind in ("down", "away", "crash-restart"):
        with pytest.raises(ConfigurationError):
            Fault(kind, 0, start, duration)


@pytest.mark.parametrize(
    "target",
    [1, (0,), (0, 1, 2), [0, None], ("a", None), (True, None), (None, -1), (0, 1.0)],
    ids=repr,
)
def test_a_malformed_down_target_is_a_configuration_error(target):
    with pytest.raises(ConfigurationError, match=r"\(shard, replica\) pair"):
        Fault("down", target, 5.0, 5.0)


def test_an_endless_down_window_stays_legal():
    assert Fault("down", None, 5.0, float("inf")).end == float("inf")


def test_the_injector_takes_the_deployment_and_nothing_to_tune():
    import inspect

    assert list(inspect.signature(FaultInjector).parameters) == ["system"]


# --------------------------------------------------------------------- #
# One liveness answer, on all four client types
# --------------------------------------------------------------------- #

#: Client type -> the backend that runs it ("lockstep": the baseline,
#: which ``build_deployment`` builds).
CLIENT_TYPES = {
    "UstorClient": "ustor",
    "FaustClient": "faust",
    "LockStepClient": "lockstep",
    "ClusterClient": "cluster",
}


def client_of(type_name: str):
    backend = CLIENT_TYPES[type_name]
    knobs = dict(num_clients=4, seed=3, faust=QUIET)
    if backend == "cluster":
        knobs["shards"] = 2
    if backend == "lockstep":
        system = build_deployment(SystemConfig(**knobs), lockstep_protocol())
    else:
        system = open_system(SystemConfig(**knobs), backend=backend)
    client = system.clients[1]
    assert type(client).__name__ == type_name
    if backend == "cluster":
        system.session(1).write_sync(b"touch the home shard")
    return system, client


def _home_instance(system, client):
    """The protocol client itself (its home-shard one, on a cluster)."""
    if hasattr(client, "instance"):
        return client.instance(system.shard_of(client.client_id))
    return client


@pytest.mark.parametrize("type_name", CLIENT_TYPES)
def test_liveness_pair_up_crashed_away(type_name):
    system, client = client_of(type_name)
    assert (client.halted, client.halt_reason) == (False, None)
    system.faults.away(1)
    assert (client.halted, client.halt_reason) == (False, None)
    system.faults.back(1)
    client.crash()
    assert (client.halted, client.halt_reason) == (True, "crashed")


@pytest.mark.parametrize(
    "type_name, reason",
    [
        ("UstorClient", "boom"),
        ("LockStepClient", "boom"),
        ("FaustClient", "USTOR detection: boom"),
        ("ClusterClient", "USTOR detection: boom"),
    ],
)
def test_liveness_pair_ustor_failed(type_name, reason):
    system, client = client_of(type_name)
    _home_instance(system, client)._fail("boom")
    assert (client.halted, client.halt_reason) == (True, reason)
    assert client.failed and not client.crashed
    client.crash()  # the fail stays the reason
    assert client.halt_reason == reason


@pytest.mark.parametrize("type_name", ["FaustClient", "ClusterClient"])
def test_liveness_pair_faust_failed(type_name):
    system, client = client_of(type_name)
    _home_instance(system, client)._fail("forked", ustor=False)
    assert (client.halted, client.halt_reason) == (True, "forked")
    assert client.failed and client.fail_reason == "forked"


def test_cluster_client_is_not_halted_by_a_shard_it_never_touched():
    system, client = client_of("ClusterClient")
    home = system.shard_of(1)
    client.instance(1 - home)._fail("forked elsewhere", ustor=False)
    assert (client.halted, client.halt_reason) == (False, None)
    client.instance(home)._fail("forked at home", ustor=False)
    assert (client.halted, client.halt_reason) == (True, "forked at home")


def test_sessions_refuse_a_halted_client_with_the_pair():
    from repro.api import OperationFailed
    from repro.common.errors import ProtocolError

    system, client = client_of("FaustClient")
    session = system.session(1)
    handle = session.write(b"in flight")
    client.crash()
    with pytest.raises(OperationFailed, match="C2 crashed mid-operation"):
        handle.result()
    with pytest.raises(ProtocolError, match="C2 has crashed"):
        session.write(b"refused")


# --------------------------------------------------------------------- #
# One overlap rule (regressions: its three copies disagreed)
# --------------------------------------------------------------------- #


def test_overlap_is_half_open_and_forever_covers_everything_after():
    assert overlap([(10, 5), (15, 5), (0, 10)]) is None
    assert overlap([(20, 10), (10, 50)]) == ((10, 50), (20, 10))
    assert overlap([(30, 1), (10, None)]) == ((10, None), (30, 1))
    assert overlap([(30, None), (10, 20)]) is None


def test_nested_client_window_is_refused_not_cut_short():
    system = deploy("faust")
    system.faults.add(Fault("away", 0, 10.0, 50.0))
    with pytest.raises(ConfigurationError, match=r"start=20.0.*start=10.0"):
        system.faults.add(Fault("away", 0, 20.0, 10.0))
    system.run(until=35.0)
    assert not system.offline.is_online("C1")  # still inside [10, 60)


def test_churn_outage_sees_the_windows_the_config_declared():
    system = deploy("faust", server_outages=(Fault("down", None, 10.0, 50.0),))
    with pytest.raises(ConfigurationError, match=r"start=20.0.*start=10.0"):
        system.faults.add(Fault("down", None, 20.0, 10.0))
    system.run(until=35.0)
    assert system.server.crashed  # still inside [10, 60)


def test_global_and_shard_windows_clash_at_configuration_time(capsys):
    with pytest.raises(ConfigurationError, match=r"shard 1: .*\(25.0, 20.0\)"):
        SystemConfig(
            num_clients=4,
            shards=2,
            storage="log",
            server_outages=(
                Fault("down", None, 30.0, 10.0),
                Fault("down", (1, None), 25.0, 20.0),
            ),
        )
    code = repro_main(
        "run --backend cluster --clients 4 --shards 2 --storage log "
        "--shard-outage 1 25 20 --outage 30 10".split()
    )
    assert code == 2  # a configuration error, not "deployment unreachable"
    assert "shard 1: server outage windows overlap" in capsys.readouterr().out


def test_a_replica_window_clashes_with_a_whole_service_one_at_configuration_time():
    with pytest.raises(
        ConfigurationError,
        match=r"^replica 1: server outage windows overlap: \(5.0, 10.0\) and \(8.0, 4.0\)$",
    ):
        SystemConfig(
            num_clients=3,
            replicas=3,
            storage="log",
            server_outages=(
                Fault("down", (None, 1), 5.0, 10.0),
                Fault("down", None, 8.0, 4.0),
            ),
        )


@pytest.mark.parametrize(
    "outages, match",
    [
        ((Fault("away", 0, 5.0, 5.0),), "down Faults"),
        (((5.0, 5.0),), "down Faults"),
        ((Fault("down", (2, None), 5.0, 5.0),), "shard 2"),
        ((Fault("down", (None, 1), 5.0, 5.0),), "replica 1"),
    ],
)
def test_server_outages_are_down_faults_on_servers_that_exist(outages, match):
    with pytest.raises(ConfigurationError, match=match):
        SystemConfig(num_clients=4, shards=2, storage="log", server_outages=outages)


@pytest.mark.parametrize(
    "flags",
    [
        "--outage nan 5 --storage log",
        "--timeout nan",
        "--outage inf 5 --storage log",
        "--backend cluster --shards 2 --shard-outage 1 nan 5 --storage log",
    ],
)
def test_run_refuses_a_nan_window_or_timeout(flags, capsys):
    code = repro_main(f"run --clients 2 --ops 4 {flags}".split())
    assert code == 2
    assert "restart" not in capsys.readouterr().out


def test_random_planner_skips_a_conflicting_draw():
    system = deploy("faust", num_clients=2)
    rng = random.Random(7)
    added = []
    for window in plan_windows(rng, "away", 30, 50.0, 20.0):
        fault = replace(window, target=rng.choice((0, 1)))
        if system.faults.conflict(fault) is None:
            added.append(system.faults.add(fault))
    assert 0 < len(added) < 30
    for client in (0, 1):
        mine = sorted((w for w in added if w.target == client), key=lambda w: w.start)
        for first, second in zip(mine, mine[1:]):
            assert first.end <= second.start


def test_scale_churn_leaves_a_slot_inside_a_fault_window_alone(monkeypatch):
    taken = []
    away = FaultInjector.away

    def spy(self, client_id, duration=None):
        taken.append((client_id, self._system.now))
        away(self, client_id, duration)

    monkeypatch.setattr(FaultInjector, "away", spy)
    report = run_scale(
        ScaleConfig(
            num_clients=4,
            seed=11,
            open_loop=OpenLoopConfig(rate=0.2, duration=300.0),
            checkpoint=CheckpointPolicy(interval=8, keep_tail=2),
            churn_windows=40,
            churn_mean_duration=3.0,
            client_faults=("lease-expiry:1@50+200",),
            sample_every=50.0,
        )
    )
    during = [slot for slot, at in taken if 45.0 <= at < 250.0]
    assert len(during) >= 10 and 1 not in during
    assert report.failed_clients == 0
