"""Batching is an optimization, not a semantic: batched and unbatched
runs of the same seeded workload are equivalent.

The throughput pipeline (``SystemConfig(batching=...)``) may only change
*when machinery runs* — burst delivery events, group-commit WAL appends,
session flush bookkeeping — never what the protocol says.  Per backend
(faust / ustor / cluster) these properties pin:

* **Byte-identical runs.**  On schedules free of same-instant
  cross-client ties (clients staggered by a fraction of the link
  latency, as any real deployment is), batched and unbatched runs
  produce identical per-client operation sequences — kind, register,
  value, protocol timestamp, and times up to the FIFO epsilon — AND
  identical final client versions: vectors and digest chains byte for
  byte.  The digests hash the entire schedule the server showed each
  client, so equality here is equality of the whole protocol view.
* **Tie-break freedom under contention.**  When several clients' bursts
  land at the exact same virtual instant, coalescing may pick a
  different — equally legal — interleaving than the unbatched
  transport's epsilon spacing (the asynchronous network never promised
  cross-link order).  Values and digests may then differ between modes,
  but both runs stay consistent: identical checker verdicts, and the
  streaming incremental checkers agree with the offline ones in both.
* A *timer* flush policy shifts invocation times but never protocol
  content: values, timestamps and verdicts still match the unbatched
  run on staggered schedules.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.api import BatchingPolicy, FaustParams, SystemConfig, open_system
from repro.consistency import (
    attach_incremental_checkers,
    check_causal_consistency,
    check_linearizability,
)
from repro.sim.network import FixedLatency
from repro.workloads.generator import unique_value

BACKENDS = ("ustor", "faust", "cluster")

#: Size-flush policies: every flush happens at submission time, so the
#: virtual-time schedule is identical to the unbatched run.
SYNC_POLICIES = (
    BatchingPolicy(max_batch=1, max_delay=None),
    BatchingPolicy(max_batch=4, max_delay=None),
)

#: On a cluster, register routing splits one client's submissions across
#: per-shard session buffers, so a size > 1 leaves remainders parked
#: until the barrier (their invocation correctly moves there).  The
#: byte-identity property on clusters therefore uses immediate flushes —
#: still exercising the full transport + group-commit pipeline — and the
#: bigger sizes are covered by the content-equivalence tests below.
CLUSTER_SYNC_POLICIES = (BatchingPolicy(max_batch=1, max_delay=None),)


def _sync_policies(backend: str):
    return CLUSTER_SYNC_POLICIES if backend == "cluster" else SYNC_POLICIES


def _config(backend: str, seed: int, batching) -> SystemConfig:
    return SystemConfig(
        num_clients=4,
        seed=seed,
        latency=FixedLatency(1.0),
        storage="log",
        batching=batching,
        shards=2 if backend == "cluster" else 1,
        faust=FaustParams(enable_dummy_reads=False, enable_probes=False),
    )


def _submit(session, client: int, sequence: int, rng) -> object:
    if rng.random() < 0.5:
        return session.write(unique_value(client, sequence, 20))
    return session.read(rng.randrange(4))


def _collect(system, backend: str, handles, incremental):
    outcomes = [
        (h.kind, h.register,
         bytes(h.result().value) if isinstance(h.result().value, bytes)
         else h.result().value,
         h.result().timestamp)
        for h in handles
    ]
    histories = (
        list(system.shard_histories().values())
        if backend == "cluster"
        else [system.history()]
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
    instances = (
        [inst for proxy in system.clients for inst in proxy.instances]
        if backend == "cluster"
        else list(system.clients)
    )
    versions = [(tuple(i.version.vector), i.version.digests) for i in instances]
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
        "verdicts": verdicts,
        "incremental": incremental_ok,
    }


def _open_with_checkers(backend: str, seed: int, batching):
    system = open_system(_config(backend, seed, batching), backend=backend)
    recorders = (
        [shard.recorder for shard in system.shards]
        if backend == "cluster"
        else [system.recorder]
    )
    incremental = [attach_incremental_checkers(rec) for rec in recorders]
    return system, incremental


def _run_staggered(backend: str, seed: int, batching,
                   phases: int = 3, rounds: int = 8):
    """Clients offset by a fraction of the latency: no cross-client ties.

    ``rounds`` per client per phase is kept a multiple of every
    ``max_batch`` under test, so all flushes are size-triggered at
    submission time — a partial batch would (correctly) not be *invoked*
    until the barrier flushes it, which shifts invocation times.
    """
    system, incremental = _open_with_checkers(backend, seed, batching)
    rng = random.Random(seed)
    sessions = system.sessions()
    handles = []
    for _phase in range(phases):
        for client, session in enumerate(sessions):
            for _ in range(rounds):
                handles.append(_submit(session, client, len(handles), rng))
            # The stagger: the next client's submissions land a hair
            # later, so no two clients' messages ever tie at the server.
            system.run(until=system.now + 0.013)
        for session in sessions:
            session.barrier(timeout=50_000)
        system.run(until=system.now + 0.1)
    return _collect(system, backend, handles, incremental)


def _run_contended(backend: str, seed: int, batching,
                   phases: int = 3, rounds: int = 8):
    """Every client submits at the same instant: maximal tie pressure."""
    system, incremental = _open_with_checkers(backend, seed, batching)
    rng = random.Random(seed)
    sessions = system.sessions()
    handles = []
    for _phase in range(phases):
        for _round in range(rounds):
            for client, session in enumerate(sessions):
                handles.append(_submit(session, client, len(handles), rng))
        for session in sessions:
            session.barrier(timeout=50_000)
    return _collect(system, backend, handles, incremental)


@pytest.mark.parametrize("backend", BACKENDS)
def test_batched_equals_unbatched_byte_identical(backend):
    """Size-flush batching: identical histories, digests and verdicts."""
    seed = 1234
    reference = _run_staggered(backend, seed, None)
    for policy in _sync_policies(backend):
        batched = _run_staggered(backend, seed, policy)
        assert batched["outcomes"] == reference["outcomes"], policy
        assert batched["ops"] == reference["ops"], policy
        assert batched["versions"] == reference["versions"], policy
        assert batched["verdicts"] == reference["verdicts"], policy
        assert batched["incremental"] == reference["incremental"], policy
        assert all(
            ok for shard in batched["incremental"] for ok in shard.values()
        )


@pytest.mark.parametrize("backend", BACKENDS)
def test_contended_ties_stay_consistent(backend):
    """Under same-instant contention the tie-break may differ, but both
    runs are consistent and the streaming checkers agree."""
    seed = 99
    reference = _run_contended(backend, seed, None)
    batched = _run_contended(backend, seed, BatchingPolicy(max_batch=4))
    assert batched["verdicts"] == reference["verdicts"]
    assert all(ok for run in (reference, batched)
               for shard in run["incremental"] for ok in shard.values())
    # Per-client timestamps are positional and survive any tie-break.
    assert [o[3] for o in batched["outcomes"]] == [
        o[3] for o in reference["outcomes"]
    ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_timer_flush_preserves_protocol_content(backend):
    """A timer flush shifts timing, never values/timestamps/verdicts."""
    seed = 77
    reference = _run_staggered(backend, seed, None)
    batched = _run_staggered(
        backend, seed, BatchingPolicy(max_batch=64, max_delay=0.003)
    )
    assert batched["outcomes"] == reference["outcomes"]
    assert batched["verdicts"] == reference["verdicts"]
    assert batched["incremental"] == reference["incremental"]


@pytest.mark.fuzz
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [3, 11, 42, 1001, 2026])
def test_batched_equals_unbatched_seed_sweep(backend, seed):
    """The byte-identity property holds across a seed sweep (fuzz tier)."""
    batch = 1 if backend == "cluster" else 2
    reference = _run_staggered(backend, seed, None, phases=4, rounds=8)
    batched = _run_staggered(
        backend, seed, BatchingPolicy(max_batch=batch, max_delay=None),
        phases=4, rounds=8,
    )
    assert batched["outcomes"] == reference["outcomes"]
    assert batched["ops"] == reference["ops"]
    assert batched["versions"] == reference["versions"]
    assert batched["verdicts"] == reference["verdicts"]


def test_batching_rejected_on_baselines():
    """The baseline backends fail loudly rather than silently unbatched."""
    from repro.common.errors import ConfigurationError

    for backend in ("lockstep", "unchecked"):
        with pytest.raises(ConfigurationError):
            open_system(
                SystemConfig(num_clients=2, batching=BatchingPolicy()),
                backend=backend,
            )


def test_batching_policy_validation():
    """Config normalization and validation of the batching knob."""
    from repro.common.errors import ConfigurationError

    assert SystemConfig(num_clients=2).batching is None
    assert isinstance(
        SystemConfig(num_clients=2, batching=True).batching, BatchingPolicy
    )
    assert SystemConfig(num_clients=2, batching=False).batching is None
    with pytest.raises(ConfigurationError):
        SystemConfig(num_clients=2, batching="yes")
    with pytest.raises(ConfigurationError):
        BatchingPolicy(max_batch=0)
    with pytest.raises(ConfigurationError):
        BatchingPolicy(max_delay=-1.0)
    with pytest.raises(ConfigurationError):  # its flush timer set the clock to NaN
        BatchingPolicy(max_delay=float("nan"))
    # The amortizations below the session have no switch of their own.
    assert [f.name for f in dataclasses.fields(BatchingPolicy)] == [
        "max_batch",
        "max_delay",
    ]


def test_driver_via_sessions_engages_batching():
    """The workload driver can route through sessions, which is how the
    CLI engages the batch buffer (a raw client call would bypass it)."""
    from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts

    system = open_system(
        _config("ustor", 5, BatchingPolicy(max_batch=4)), backend="ustor"
    )
    scripts = generate_scripts(
        4,
        WorkloadConfig(ops_per_client=6, read_fraction=0.5, mean_think_time=1.0),
        random.Random(5),
    )
    driver = Driver(system, via_sessions=True)
    driver.attach_all(scripts)
    system.run(until=500)
    assert driver.stats.total_completed() == driver.stats.total_planned() == 24
    # The pipeline actually ran: bursts coalesced and wakeups batched.
    assert system.network.messages_coalesced > 0
    assert system.server.group_commits > 0


def test_driver_via_sessions_runs_on_a_built_deployment():
    """A deployment built without ``open_system`` has the per-client
    session surface too, so the driver can route through it."""
    from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts
    from repro.workloads.runner import SystemBuilder

    system = SystemBuilder(num_clients=2, seed=1).build()
    scripts = generate_scripts(
        2,
        WorkloadConfig(ops_per_client=3, read_fraction=0.5, mean_think_time=1.0),
        random.Random(1),
    )
    driver = Driver(system, via_sessions=True)
    driver.attach_all(scripts)
    system.run(until=200)
    assert driver.stats.total_completed() == driver.stats.total_planned() == 6
    assert system.session(0) is system.session(0)


def test_wait_for_stability_flushes_parked_writes():
    """A blocking stability wait issues what it waits on, even under a
    barrier-only flush policy (regression: burned the whole timeout)."""
    system = open_system(
        SystemConfig(
            num_clients=2,
            seed=11,
            batching=BatchingPolicy(max_batch=64, max_delay=None),
        ),
        backend="faust",
    )
    session = system.session(0)
    session.write(b"stable-me")
    assert session.buffered == 1  # parked, not yet issued
    assert session.wait_for_stability(1, timeout=500)
    assert session.buffered == 0


def test_group_commit_crash_recovery_matches_unbatched():
    """Crash-recovery through batched 'B' WAL frames: the server comes
    back byte-identical to its pre-crash state, the batch frames really
    were written and replayed, and the run ends exactly where the
    unbatched run with the same outage does."""

    def run(batching):
        config = SystemConfig(
            num_clients=4,
            seed=71,
            latency=FixedLatency(1.0),
            storage="log",
            batching=batching,
            server_outages=((9.5, 4.0),),
            faust=FaustParams(enable_dummy_reads=False, enable_probes=False),
        )
        system = open_system(config, backend="faust")
        rng = random.Random(71)
        sessions = system.sessions()
        handles = []
        for phase in range(3):  # ops in flight when the outage hits
            for client, session in enumerate(sessions):
                for _ in range(4):
                    handles.append(_submit(session, client, len(handles), rng))
                system.run(until=system.now + 0.013)
            for session in sessions:
                session.barrier(timeout=50_000)
            system.run(until=system.now + 0.1)
        history = system.history()
        return system, [
            (h.kind, h.register, h.result().value, h.result().timestamp)
            for h in handles
        ], (check_linearizability(history).ok, check_causal_consistency(history).ok)

    reference, ref_outcomes, ref_verdicts = run(None)
    batched, outcomes, verdicts = run(BatchingPolicy(max_batch=4, max_delay=None))

    server = batched.server
    engine = server.engine
    assert server.restarts == 1
    # Group commit actually produced batch frames, and recovery replayed
    # WAL entries back to the exact pre-crash state.
    assert engine.group_commit_batches > 0
    assert engine.group_commit_records > engine.group_commit_batches
    assert server.last_recovery_state == server.last_pre_crash_state
    assert not any(getattr(c, "faust_failed", False) for c in batched.clients)
    # Identical protocol content and verdicts to the unbatched outage run.
    assert outcomes == ref_outcomes
    assert verdicts == ref_verdicts == (True, True)
    assert [tuple(c.version.vector) for c in batched.clients] == [
        tuple(c.version.vector) for c in reference.clients
    ]
    assert [c.version.digests for c in batched.clients] == [
        c.version.digests for c in reference.clients
    ]


def test_auditor_rejects_empty_check_set():
    from repro.common.errors import ConfigurationError

    system = open_system(SystemConfig(num_clients=2, seed=1), backend="ustor")
    with pytest.raises(ConfigurationError):
        system.attach_audit(every=5.0, checks=())


def test_poison_message_does_not_starve_the_drain():
    """A handler exception mid-group-commit must not drop the rest of the
    inbox: applied transitions are logged, the poison delivery is
    consumed (as its own event would be unbatched), and the tail drains
    in a follow-up wakeup (regression)."""
    from repro.common.errors import ProtocolError
    from repro.ustor.messages import CommitMessage

    system = open_system(
        _config("ustor", 3, BatchingPolicy(max_batch=1, max_delay=None)),
        backend="ustor",
    )
    session = system.session(0)
    handle = session.write(b"before-poison")
    handle.result(timeout=2_000)
    server = system.server
    submits_before = server.submits_handled
    # Same-turn injection: a poison COMMIT (non-client source) lands in
    # the SAME drain batch as a real SUBMIT queued behind it.
    zero = system.clients[1].version
    poison = CommitMessage(version=zero, commit_sig=b"x", proof_sig=b"y")
    server.on_message("NOT-A-CLIENT", poison)
    from repro.common.types import OpKind
    from repro.crypto.hashing import hash_register_value
    from repro.ustor.messages import InvocationTuple, SubmitMessage

    signer = system.keystore.signer(1)
    real = SubmitMessage(
        timestamp=1,
        invocation=InvocationTuple(
            client=1,
            opcode=OpKind.WRITE,
            register=1,
            submit_sig=signer.sign("SUBMIT", OpKind.WRITE, 1, 1),
        ),
        value=b"behind-the-poison",
        data_sig=signer.sign("DATA", 1, hash_register_value(b"behind-the-poison")),
    )
    server.on_message("C2", real)
    with pytest.raises(ProtocolError):
        system.run(until=system.now + 50)
    # The drain died on the poison message, but the tail was re-queued
    # and a fresh drain scheduled: resuming the simulation processes the
    # SUBMIT that was queued behind the poison.
    system.run(until=system.now + 50)
    assert server.submits_handled == submits_before + 1
    # ...and the session keeps working afterwards.
    assert session.write(b"after-poison").result(timeout=2_000).timestamp == 2
