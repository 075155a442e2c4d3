"""Checkpointing is an optimization, not a semantic.

With ``SystemConfig(checkpoint=...)`` clients co-sign checkpoints, the
server truncates its pending list, and the recorder/checkers compact —
but the protocol's observable behaviour must not move: identical
operation outcomes, histories, final versions (vectors AND digest
chains), checker verdicts and stability notifications as the same
seeded run without checkpointing, on every backend that supports the
knob (faust, cluster, replicated cluster).  Rollback across a checkpoint
must still be detected — the whole point of authenticated cuts is that
pruning history does not prune evidence.  Backends that cannot honour
the knob reject it loudly.
"""

from __future__ import annotations

import pytest

from repro.api import (
    CheckpointPolicy,
    FaustParams,
    StabilityNotification,
    SystemConfig,
    open_system,
)
from repro.api.backends import build_deployment
from repro.baselines.lockstep import lockstep_protocol
from repro.common.errors import ConfigurationError
from repro.consistency import (
    attach_incremental_checkers,
    check_causal_consistency,
    check_linearizability,
)
from repro.faust.validator import validate_fail_aware_run
from repro.sim.network import FixedLatency
from repro.ustor.byzantine import RollbackServer
from repro.workloads.generator import unique_value

#: interval=16 with 4 clients * 2 ops * 24 phases gives a dozen installs.
POLICY = CheckpointPolicy(interval=16, keep_tail=2)

BACKENDS = ("faust", "cluster", "replica")


def _policy(backend: str) -> CheckpointPolicy:
    """Sharded deployments see half the ops per shard system, so the
    interval halves to yield a comparable number of installs."""
    if backend == "faust":
        return POLICY
    return CheckpointPolicy(interval=8, keep_tail=2)


def _config(backend: str, seed: int, checkpoint, **overrides) -> SystemConfig:
    return SystemConfig(
        num_clients=4,
        seed=seed,
        latency=FixedLatency(1.0),
        offline_latency=FixedLatency(0.5),
        storage="log",
        checkpoint=checkpoint,
        shards=2 if backend == "cluster" else 1,
        replicas=2 if backend == "replica" else 1,
        # Dummy reads stay off (they would touch the server and change
        # the byte-level schedule between runs); probes are offline-only
        # VERSION gossip and are needed on sharded deployments, where a
        # client can never observe a peer's version for a shard that
        # holds none of the peer's registers.
        faust=FaustParams(
            enable_dummy_reads=False,
            enable_probes=True,
            probe_check_period=2.0,
        ),
        **overrides,
    )


def _open(backend: str, seed: int, checkpoint, **overrides):
    name = "cluster" if backend == "replica" else backend
    system = open_system(
        _config(backend, seed, checkpoint, **overrides), backend=name
    )
    recorders = (
        [shard.recorder for shard in system.shards]
        if backend != "faust"
        else [system.recorder]
    )
    incremental = [attach_incremental_checkers(rec) for rec in recorders]
    return system, recorders, incremental


def _instances(system, backend: str):
    if backend == "faust":
        return list(system.clients)
    return [inst for proxy in system.clients for inst in proxy.instances]


def _run_phases(backend: str, seed: int, checkpoint, phases: int = 24):
    """Each phase: every client writes, then reads round-robin.

    The rotating read target makes every client's version visible to
    every other client within a few phases, which is what advances the
    all-clients stability cut (dummy reads and probes are off to keep
    runs byte-comparable).
    """
    system, recorders, incremental = _open(backend, seed, checkpoint)
    # The hub keeps no stable_i stream: record it from the start.
    stable = system.notifications.subscribe(kinds=StabilityNotification)
    sessions = system.sessions()
    handles = []
    for phase in range(phases):
        for client, session in enumerate(sessions):
            handles.append(session.write(unique_value(client, phase, 20)))
            handles.append(session.read((client + phase) % len(sessions)))
            system.run(until=system.now + 0.013)  # stagger: no ties
        for session in sessions:
            session.barrier(timeout=50_000)
        system.run(until=system.now + 0.1)
    system.run(until=system.now + 20.0)  # let shares in flight settle
    return system, recorders, incremental, handles, stable


def _collect(system, backend: str, handles, recorders, incremental, stable):
    outcomes = [
        (h.kind, h.register,
         bytes(h.result().value) if isinstance(h.result().value, bytes)
         else h.result().value,
         h.result().timestamp)
        for h in handles
    ]
    histories = (
        [rec.history().complete() for rec in recorders]
    )
    per_client_ops = [
        [
            (op.client, op.kind, op.register,
             bytes(op.value) if isinstance(op.value, bytes) else op.value,
             op.timestamp, round(op.invoked_at, 6), round(op.responded_at, 6))
            for client in history.clients()
            for op in history.restrict_to_client(client)
        ]
        for history in histories
    ]
    instances = _instances(system, backend)
    versions = [(tuple(i.version.vector), i.version.digests) for i in instances]
    stable_cuts = [
        (e.client, e.shard, e.cut) for e in stable.events
    ]
    verdicts = [
        (check_linearizability(history).ok, check_causal_consistency(history).ok)
        for history in histories
    ]
    incremental_ok = [
        {name: checker.result().ok for name, checker in attached.items()}
        for attached in incremental
    ]
    return {
        "outcomes": outcomes,
        "ops": per_client_ops,
        "versions": versions,
        "stable_cuts": stable_cuts,
        "verdicts": verdicts,
        "incremental": incremental_ok,
    }


@pytest.mark.parametrize("backend", BACKENDS)
def test_checkpointing_on_equals_off(backend):
    """Same seed, checkpointing on vs off: identical observable run."""
    seed = 2026
    sys_off, rec_off, inc_off, handles_off, stable_off = _run_phases(
        backend, seed, None
    )
    off = _collect(sys_off, backend, handles_off, rec_off, inc_off, stable_off)
    sys_on, rec_on, inc_on, handles_on, stable_on = _run_phases(
        backend, seed, _policy(backend)
    )
    on = _collect(sys_on, backend, handles_on, rec_on, inc_on, stable_on)

    # The off-run history is complete; the on-run history was compacted,
    # so the retained suffix must be a suffix of the off-run's ops.
    for shard_on, shard_off in zip(on["ops"], off["ops"]):
        remaining = set(map(tuple, shard_on))
        assert remaining <= set(map(tuple, shard_off))
    assert on["outcomes"] == off["outcomes"]
    assert on["versions"] == off["versions"]
    assert on["stable_cuts"] == off["stable_cuts"]
    assert on["verdicts"] == off["verdicts"]
    assert all(ok for run in (on, off)
               for shard in run["incremental"] for ok in shard.values())
    assert all(ok for shard in on["verdicts"] for ok in shard)

    # ...and the bounded-state machinery actually ran: checkpoints were
    # installed by every client and history really was compacted.
    instances = _instances(sys_on, backend)
    installs = [i.checkpoint_manager.installed.seq for i in instances]
    assert min(installs) >= (3 if backend == "faust" else 2), installs
    assert all(rec.compacted_ops > 0 for rec in rec_on)
    assert sum(len(rec.history()) for rec in rec_on) < sum(
        len(rec.history()) for rec in rec_off
    )
    assert not any(i.failed for i in instances)


def test_checkpointed_run_passes_definition5():
    """The full fail-aware validator accepts a checkpointed (compacted)
    run against a correct server — Definition 5 end to end."""
    system, *_ = _run_phases("faust", 7, POLICY)
    report = validate_fail_aware_run(system, server_correct=True)
    assert report.ok, report.render()


def test_server_truncates_and_compacts_behind_checkpoints():
    system, *_ = _run_phases("faust", 11, POLICY)
    server = system.server
    assert server.checkpoints_handled >= 3
    assert server.last_checkpoint_seq == server.checkpoints_handled
    # Every install forced a snapshot + WAL truncation, so the live WAL
    # only holds records since the last checkpoint.
    engine = server.engine
    assert engine.snapshots_taken >= server.checkpoints_handled
    assert engine.records_since_checkpoint < 3 * POLICY.interval


@pytest.mark.parametrize("checkpoint", (None, POLICY))
def test_rollback_across_checkpoint_is_detected(checkpoint):
    """A server that 'recovers' from a pre-checkpoint snapshot forks its
    clients into the folded past.  Pruned history must not mean pruned
    evidence: detection fires exactly as without checkpointing."""
    seed = 4242
    # Snapshot early, roll back late: by the rollback point the on-run
    # has installed checkpoints PAST the snapshot, so the replayed state
    # predates the latest authenticated cut.  The crash lands on the
    # FIRST submit of a phase with an outage shorter than the commit
    # round-trip: the phase's remaining submits are held and answered
    # from the stale state before any client's COMMIT can quietly repair
    # the server's version table (a longer outage lets held COMMITs mask
    # the rollback entirely — the attack fizzles, nothing stale is ever
    # served, and there is correctly nothing to detect).
    factory = lambda n, name: RollbackServer(  # noqa: E731
        n,
        snapshot_after_submits=12,
        rollback_after_submits=113,
        outage=1.0,
        name=name,
    )
    sys_evil, _rec_evil, _inc = _open(
        "faust", seed, checkpoint, server_factory=factory
    )
    sessions = sys_evil.sessions()
    failed_at = None
    for phase in range(24):
        for client, session in enumerate(sessions):
            try:
                session.write(unique_value(client, phase, 20))
                session.read((client + phase) % len(sessions))
            except Exception:  # noqa: BLE001 - failed sessions refuse ops
                pass
            sys_evil.run(until=sys_evil.now + 0.013)
        sys_evil.run(until=sys_evil.now + 8.0)
        if sys_evil.notifications.failure_events():
            failed_at = phase
            break
    assert failed_at is not None, "rollback went undetected"
    assert sys_evil.server.restarts == 1
    failed = [c for c in sys_evil.clients if c.failed]
    # Detection is system-wide and identical to the checkpoint-free run:
    # every client fails, in the same phase (14, right after the crash).
    assert len(failed) == len(sys_evil.clients)
    assert failed_at == 14
    if checkpoint is not None:
        # The rollback really did cross installed checkpoints: the
        # replayed snapshot (12 submits old) predates the latest
        # authenticated cut every client holds.
        installs = [
            c.checkpoint_manager.installed.seq for c in sys_evil.clients
        ]
        assert min(installs) >= 1, installs
        assert sum(
            max(c.checkpoint_manager.installed.cut for c in sys_evil.clients)
        ) > 12


# --------------------------------------------------------------------- #
# Loud rejection everywhere the knob cannot be honoured
# --------------------------------------------------------------------- #


def test_checkpoint_rejected_on_non_faust_backends():
    with pytest.raises(ConfigurationError, match="checkpoint"):
        open_system(SystemConfig(num_clients=2, checkpoint=True), backend="ustor")
    with pytest.raises(ConfigurationError, match="checkpoint"):
        build_deployment(
            SystemConfig(num_clients=2, checkpoint=True), lockstep_protocol()
        )


def test_checkpoint_rejected_on_ustor_sharded_cluster():
    with pytest.raises(ConfigurationError, match="checkpoint"):
        open_system(
            SystemConfig(
                num_clients=2, shards=2, shard_protocol="ustor",
                checkpoint=True,
            ),
            backend="cluster",
        )


def test_checkpoint_rejected_on_tcp_transport():
    # Over tcp checkpoints ride FAUST's offline channel; plain USTOR
    # clients have none to co-sign over.
    config = SystemConfig(
        num_clients=2,
        transport="tcp",
        endpoints=("127.0.0.1:9999",),
        checkpoint=True,
    )
    with pytest.raises(ConfigurationError, match="checkpoint="):
        open_system(config, backend="ustor")


def test_checkpoint_knob_coercion():
    assert SystemConfig(num_clients=2).checkpoint is None
    assert isinstance(
        SystemConfig(num_clients=2, checkpoint=True).checkpoint,
        CheckpointPolicy,
    )
    assert SystemConfig(num_clients=2, checkpoint=False).checkpoint is None
    custom = CheckpointPolicy(interval=5, keep_tail=1)
    assert SystemConfig(num_clients=2, checkpoint=custom).checkpoint is custom
    with pytest.raises(ConfigurationError):
        SystemConfig(num_clients=2, checkpoint="soon")
