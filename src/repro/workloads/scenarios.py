"""The paper's concrete scenarios.

Two are scripted operation by operation: :func:`figure2_scenario` (the
Alice/Bob/Carlos collaboration and its stability cut ``[10, 8, 3]``) and
:func:`figure3_scenario` (the hiding server: a history that is weakly
fork-linearizable but not fork-linearizable).

The other five are rows over one run path (:func:`_run`) and one result
(:class:`ScenarioRun`) — a config, an adversary placement, fault windows,
a random closed-loop workload and the instant latency is measured from:

* :func:`replica_rollback_scenario` — one replica of a group recovers
  from a stale snapshot, or crashes honestly (cluster backend); its
  one-replica corners on the ``faust``/``ustor`` backends are
  :func:`rollback_attack_scenario` (the paper's single server rolled
  back) and :func:`server_outage_scenario` (honest crash-recovery).
* :func:`split_brain_shard_scenario` — some shards' servers fork even
  from odd clients while the rest stay honest (cluster backend); its
  one-shard corner is :func:`split_brain_scenario`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

from repro.api.backends import get_backend
from repro.api.config import FaustParams, SystemConfig
from repro.api.events import FailureNotification
from repro.api.handles import OpHandle, OpResult
from repro.cluster.shardmap import make_shard_map
from repro.common.types import BOTTOM
from repro.history.history import History
from repro.replica.coordinator import group_stats
from repro.sim.faults import Fault
from repro.sim.network import FixedLatency
from repro.store.codec import encode_server_state
from repro.ustor.byzantine import ADVERSARIES, RollbackServer, even_odd_fork
from repro.workloads.generator import DriverStats, WorkloadConfig, run_closed_loop
from repro.workloads.runner import StorageSystem

ALICE, BOB, CARLOS = 0, 1, 2


@dataclass
class Figure2Result:
    """Outcome of the Figure 2 stability-cut scenario."""

    system: StorageSystem
    #: Alice's stability cuts in notification order.
    alice_cuts: list[tuple[int, ...]]

    @property
    def reproduced(self) -> bool:
        """Was the exact cut (10, 8, 3) emitted?"""
        return (10, 8, 3) in self.alice_cuts


def _settle(system: StorageSystem, handle: OpHandle) -> OpResult:
    """Run one operation to completion, then let a moment pass.

    The settle gap makes consecutive scripted operations *strictly* ordered
    in real time (``o <_sigma o'``), as the paper's scenarios assume —
    without it the next invocation lands at the exact virtual instant the
    previous response occurred and the operations count as concurrent.
    """
    result = handle.result(timeout=10_000.0)
    system.run(until=system.now + 0.1)
    return result


def figure2_scenario(
    seed: int = 2, include_carlos_return: bool = True
) -> Figure2Result:
    """Reproduce Figure 2's stability cut ``stable_Alice([10, 8, 3])``.

    Day in Europe: Alice and Bob collaborate; Carlos read Alice's document
    early (up to her 3rd operation) and went to sleep.  Alice keeps
    working; her cut shows consistency with herself up to t=10, with Bob
    up to t=8, with Carlos up to t=3.
    """
    system = get_backend("faust").open_system(
        SystemConfig(
            num_clients=3,
            seed=seed,
            latency=FixedLatency(0.5),
            offline_latency=FixedLatency(3.0),
            faust=FaustParams(
                enable_dummy_reads=False,  # scripted reads make the cut exact
                enable_probes=False,
                delta=200.0,
            ),
        )
    )
    alice, bob, carlos = system.sessions()

    def doc(version: int) -> bytes:
        return f"shared-document-v{version}".encode()

    # Alice edits the document three times (timestamps 1..3).
    for v in range(1, 4):
        _settle(system, alice.write(doc(v)))
    # Carlos catches up on Alice's work, then goes to sleep.
    _settle(system, carlos.read(ALICE))
    _settle(system, alice.read(CARLOS))  # Alice's t=4: learns Carlos
    system.faults.away(CARLOS)

    # Alice keeps editing (t = 5..8).
    for v in range(5, 9):
        _settle(system, alice.write(doc(v)))
    # Bob reads Alice's latest edit; Alice then reads Bob (t=9), and makes
    # one final edit (t=10) — at which point her cut is exactly [10, 8, 3].
    _settle(system, bob.read(ALICE))
    _settle(system, alice.read(BOB))
    _settle(system, alice.write(doc(10)))

    if include_carlos_return:
        # America wakes up: Carlos returns, reads, and background version
        # exchange makes everything stable at every client.
        system.faults.back(CARLOS)
        for client in system.clients:
            client.enable_background(dummy_reads=True, probes=True)
        system.run(until=system.now + 400.0)

    return Figure2Result(system, [cut for _, cut in alice.client.stable_notifications])


@dataclass
class Figure3Result:
    """Outcome of the Figure 3 forking scenario."""

    system: StorageSystem
    #: The three operations, in the order of Figure 3.
    history: History
    #: Whether any USTOR client output fail (must be False: the attack is
    #: designed to pass every check of Algorithm 1).
    ustor_detected: bool


def figure3_scenario(seed: int = 3, faust: bool = False, prepare=None) -> Figure3Result:
    """Run the Figure 3 attack: write1(X1,u); read2(X1)->BOTTOM; read2(X1)->u.

    With ``faust=True`` the clients run the fail-aware layer with probing
    enabled, so the (undetectable-at-USTOR-level) fork is exposed once the
    clients exchange versions offline.  ``prepare(system)`` may adjust the
    opened deployment before the first operation.
    """
    config = SystemConfig(
        num_clients=2,
        seed=seed,
        latency=FixedLatency(0.5),
        offline_latency=FixedLatency(2.0),
        server_factory=ADVERSARIES["figure3"].factory,  # C1 writes, C2 is the victim
        faust=FaustParams(
            enable_dummy_reads=False,
            enable_probes=True,
            delta=20.0,
            probe_check_period=5.0,
        ),
    )
    system = get_backend("faust" if faust else "ustor").open_system(config)
    if prepare is not None:
        prepare(system)
    writer, victim = system.sessions()

    _settle(system, writer.write(b"u"))
    read1 = _settle(system, victim.read(0))
    read2 = _settle(system, victim.read(0))

    assert read1.value is BOTTOM, "the hidden write must be invisible to read 1"
    assert read2.value == b"u", "the rejoin must expose the write to read 2"

    return Figure3Result(
        system=system,
        history=system.history(),
        ustor_detected=bool(system.notifications.failure_events()),
    )


@dataclass
class ScenarioRun:
    """One workload scenario, run: what was placed where, and what the
    deployment said about it by the time the run ended.

    A row supplies the placement; :func:`_run` derives every observation,
    once — ``fail_i`` from the notification hub only (Definition 5's one
    failure output, whichever layer raised it), convictions from the
    ``replica-convicted`` trace notes, and detection times, latency and
    ops-until-signal from those two.
    """

    config: SystemConfig
    system: object
    #: Completion accounting of the closed-loop workload.
    stats: DriverStats
    #: The instant latency is measured from: the fork, or the restart of
    #: the rolled-back (or honestly crashed) server.  ``None``: neither.
    reference: float | None
    #: Every ``fail_i`` output, in emission order; who output it; and when
    #: each of them first did, by client.
    failures: list[FailureNotification]
    failed_clients: frozenset
    detection_times: list[float]
    #: ``replica name -> violation`` for every counter conviction.
    convicted: dict
    #: Did any signal — a ``fail_i`` or a conviction — fire, and the
    #: virtual time from :attr:`reference` to the first one (``nan``:
    #: nothing to time, or the fault went unnoticed).
    detected: bool
    detection_latency: float
    #: Operations that completed between :attr:`reference` and the first
    #: signal — the paper-level cost of detection.  The counter's O(1)
    #: claim is this number staying ~num_clients whatever the workload.
    ops_until_detection: int
    #: Deviant replies an honest quorum outvoted, summed over every client
    #: (0 on the paper's single server: nothing to outvote).
    masked_deviations: int
    #: The clients that touched a forked shard with a user operation, and
    #: whether exactly they were notified.
    expected_detectors: frozenset
    exact_detection: bool
    #: Did every server that restarted recover its exact pre-crash
    #: ``ServerState`` (compared on canonical bytes)?  False with the
    #: volatile engine — a memory-engine restart *is* a rollback (to
    #: zero), and clients treat it as one.
    recovery_byte_identical: bool
    #: Fork rows: the client groups the forking server separates, the
    #: shards it runs on, and the clients scripted never to touch one.
    groups: tuple = ()
    forked_shards: frozenset = frozenset()
    avoiders: frozenset = frozenset()


def _run(
    backend: str,
    num_clients: int,
    seed: int,
    ops_per_client: int,
    delta: float,
    run_for: float,
    config: dict,
    workload: dict | None = None,
    faults: tuple = (),
    prepare=None,
    reference=None,
    **fork,
) -> ScenarioRun:
    """The one run path: open the config on ``backend`` (probing at
    ``delta``), schedule the fault windows, let ``prepare(system)`` adjust
    the deployment, drive a half-reads closed-loop workload drawn from
    ``seed`` until ``run_for``, then read off what happened.  A callable
    ``reference`` is asked once the run is over, given the independent
    deployments behind the system (``system.shards``)."""
    config = SystemConfig(
        num_clients=num_clients,
        seed=seed,
        faust=FaustParams(delta=delta, probe_check_period=delta / 3),
        **config,
    )
    system = get_backend(backend).open_system(config)
    for fault in faults:
        system.faults.add(fault)
    if prepare is not None:
        prepare(system)
    driver = run_closed_loop(
        system,
        WorkloadConfig(ops_per_client, read_fraction=0.5, **(workload or {})),
        random.Random(seed),
        until=run_for,
    )
    shards = system.shards
    if callable(reference):
        reference = reference(shards)

    first_failures = system.notifications.first_failures()
    convictions = [
        note
        for shard in shards
        for note in shard.trace.notes_of_kind("replica-convicted")
    ]
    signals = [*first_failures.values(), *(note.time for note in convictions)]
    # nan compares false: nothing to time, or nothing caught, counts 0 ops.
    since = float("nan") if reference is None else reference
    caught = min(signals, default=float("nan"))
    forked = fork.get("forked_shards", frozenset())
    touched = getattr(system, "touched_shards", lambda client: (0,))
    expected = frozenset(
        c for c in range(num_clients) if forked.intersection(touched(c))
    )
    restarted = [s for shard in shards for s in shard.replica_servers if s.restarts]
    stats = group_stats([c for shard in shards for c in shard.clients]) or {}
    return ScenarioRun(
        config=config,
        system=system,
        stats=driver.stats,
        reference=reference,
        failures=system.notifications.failure_events(),
        failed_clients=frozenset(first_failures),
        detection_times=list(first_failures.values()),
        convicted=dict(note.payload for note in convictions),
        detected=bool(signals),
        detection_latency=caught - since,
        ops_until_detection=sum(
            op.responded_at is not None and since < op.responded_at <= caught
            for shard in shards
            for op in shard.history()
        ),
        masked_deviations=stats.get("masked_deviations", 0),
        expected_detectors=expected,
        exact_detection=first_failures.keys() == expected,
        recovery_byte_identical=bool(restarted)
        and all(
            encode_server_state(s.last_pre_crash_state)
            == encode_server_state(s.last_recovery_state)
            for s in restarted
        ),
        **fork,
    )


def replica_rollback_scenario(
    num_clients: int = 4,
    seed: int = 31,
    ops_per_client: int = 8,
    replicas: int = 3,
    quorum: int | None = None,
    counter: str | None = None,
    rollback_replica: int | None = 1,
    honest_outage: tuple[int, float, float] | None = None,
    storage: str | None = None,
    snapshot_after_submits: int = 2,
    rollback_after_submits: int = 6,
    outage: float = 5.0,
    delta: float = 25.0,
    run_for: float = 2_000.0,
    backend: str = "cluster",
) -> ScenarioRun:
    """The rollback attack against one replica of a k-of-n group.

    ``rollback_replica`` runs a :class:`RollbackServer` (checkpoint
    early, crash, "recover" from the stale snapshot) while the other
    replicas stay honest; ``None`` runs an all-honest group.
    ``honest_outage=(replica, start, duration)`` instead crashes an
    *honest* replica and recovers it from ``storage`` (default: the log) —
    paired with ``counter="volatile"`` it demonstrates the false
    accusation: the replica's state remembers its operations but the reset
    counter does not, so honest recovery becomes indistinguishable from
    misbehaviour.  Latency is measured from that replica's restart.

    The interesting corners: ``replicas=1`` is the paper's single server
    (:func:`rollback_attack_scenario`) — detection waits until the rolled
    state contradicts a client's committed version, so
    ``ops_until_detection`` grows with the workload; at ``replicas=3`` an
    honest majority outvotes the deviant replies (``masked_deviations >
    0``, nothing fails, everything completes); ``counter="durable"``
    convicts the rolled replica on its first post-restart reply, so
    ``ops_until_detection`` stays O(num_clients) whatever the workload.
    """
    attack = rollback_replica is not None
    if honest_outage is not None and attack:
        raise ValueError(
            "honest_outage crashes an honest replica; drop rollback_replica"
        )

    def rollback(n, name):
        return RollbackServer(
            n, snapshot_after_submits, rollback_after_submits, outage, name
        )

    faults, reference = (), None
    if attack:
        # The adversary picks its own moment; ask it once the run is over.
        reference = lambda shards: (
            shards[0].replica_servers[rollback_replica].rollback_restart_time
        )
    elif honest_outage is not None:
        replica, start, duration = honest_outage
        faults = (Fault("down", (None, replica), start, duration),)
        reference = start + duration
    return _run(
        backend, num_clients, seed, ops_per_client, delta, run_for,
        dict(
            replicas=replicas,
            quorum=quorum,
            counter=counter,
            # Honest recovery needs real durability; the rollback server
            # owns its own (deliberately stale) persistence.
            storage=storage or ("memory" if honest_outage is None else "log"),
            replica_server_factories={rollback_replica: rollback} if attack else {},
        ),
        faults=faults,
        reference=reference,
    )


def server_outage_scenario(faust: bool = True, **knobs) -> ScenarioRun:
    """Honest crash-recovery: the one-replica ``honest_outage`` corner of
    :func:`replica_rollback_scenario` (whose other knobs it takes) on the
    ``faust`` or ``ustor`` backend.

    Requests delivered while the server is down are held by the reliable
    channels and served after recovery: with ``storage="log"`` the outage
    only delays operations, with ``storage="memory"`` the server comes
    back having forgotten everything and clients detect the amnesia like
    a rollback.  FAUST's dummy reads and probes stay armed: they must not
    mistake an honest recovery for misbehaviour, and they are what
    exposes the amnesia even after the workload drains.
    """
    row = dict(
        replicas=1, rollback_replica=None, honest_outage=(0, 25.0, 20.0),
        num_clients=3, seed=21, run_for=600.0,
    )
    backend = "faust" if faust else "ustor"
    return replica_rollback_scenario(backend=backend, **{**row, **knobs})


def rollback_attack_scenario(faust: bool = True, **knobs) -> ScenarioRun:
    """The rollback attack on the paper's single server: the
    ``replicas=1`` corner of :func:`replica_rollback_scenario` (whose
    other knobs it takes) on the ``faust`` or ``ustor`` backend.

    Clients whose committed versions include post-snapshot operations are
    shown stale versions or data on their next operation (Algorithm 1,
    lines 36/43/51); clients forked into the past are caught by FAUST's
    version comparison, which also carries one detection to everybody.
    """
    row = dict(
        replicas=1, rollback_replica=0, num_clients=3, ops_per_client=10,
        snapshot_after_submits=3, rollback_after_submits=9,
    )
    backend = "faust" if faust else "ustor"
    return replica_rollback_scenario(backend=backend, **{**row, **knobs})


def split_brain_shard_scenario(
    num_clients: int = 6,
    shards: int = 4,
    forked_shards: tuple[int, ...] = (1,),
    seed: int = 41,
    fork_time: float = 25.0,
    ops_per_client: int = 12,
    delta: float = 25.0,
    shard_map: str = "range",
    run_for: float = 600.0,
    backend: str = "cluster",
    workload: dict | None = None,
    prepare=None,
) -> ScenarioRun:
    """One (or more) forking shard(s) inside an otherwise honest cluster.

    The forked shards' servers run the classic split-brain attack (even
    clients forked from odd ones) from ``fork_time`` on, the instant
    latency is measured from; every other shard is honest.  Client scripts
    are shaped so that a subset (*avoiders* — clients whose registers and
    reads all live on honest shards) never touches a forked shard, while
    everyone else reads from one early.  The cluster contract under test:

    * every client that operated on a forked shard raises a
      shard-tagged failure notification,
    * no avoider raises any,
    * avoiders' operations — all on honest shards — complete in full.

    With every shard forked (:func:`split_brain_scenario`: one of one)
    nobody can avoid and the workload is plainly random.
    """
    forked = frozenset(forked_shards)
    fork = partial(even_odd_fork, fork_time=fork_time)
    # Placement is the shard map's alone, so ask a map, not a deployment.
    shard_of = make_shard_map(shard_map, shards, num_clients).shard_of
    honest = [r for r in range(num_clients) if shard_of(r) not in forked]
    attacked = [r for r in range(num_clients) if shard_of(r) in forked]
    if not attacked:
        raise ValueError(
            "no register maps to a forked shard; nothing would be attacked"
        )
    # Avoiders: clients whose own register lives on an honest shard; take
    # every other such client so both populations stay non-empty.
    avoiders = frozenset(honest[::2])
    others = [c for c in range(num_clients) if c not in avoiders]
    return _run(
        backend, num_clients, seed, ops_per_client, delta, run_for,
        dict(
            shards=shards,
            shard_map=shard_map,
            **(
                {"shard_server_factories": {k: fork for k in forked}}
                if honest
                else {"server_factory": fork}
            ),
        ),
        dict(
            **(workload or {"mean_think_time": 3.0, "value_size": 24}),
            read_pools={c: honest for c in avoiders},
            # Guarantee every non-avoider touches a forked shard early.
            early_reads={c: attacked for c in others} if honest else {},
        ),
        prepare=prepare,
        reference=fork_time,
        groups=(set(range(0, num_clients, 2)), set(range(1, num_clients, 2))),
        forked_shards=forked,
        avoiders=avoiders,
    )


def split_brain_scenario(faust: bool = True, **knobs) -> ScenarioRun:
    """A forking attack over a random workload: the one-shard corner of
    :func:`split_brain_shard_scenario` (whose other knobs it takes) on the
    ``faust`` or ``ustor`` backend.

    Clients are split into two groups (even/odd ids) at ``fork_time``;
    both groups keep operating on divergent branches.  With FAUST enabled,
    cross-group version exchange eventually proves the fork.
    """
    row = dict(
        shards=1, forked_shards=(0,), num_clients=4, seed=11, fork_time=30.0,
        workload=dict(mean_think_time=2.0, value_size=32),
    )
    backend = "faust" if faust else "ustor"
    return split_brain_shard_scenario(backend=backend, **{**row, **knobs})
