"""The paper's concrete scenarios, scripted end to end.

* :func:`figure2_scenario` — the Alice/Bob/Carlos collaboration of
  Figure 2, reproducing the exact stability cut
  ``stable_Alice([10, 8, 3])`` and then (optionally) Carlos's return,
  after which every operation becomes stable at all clients.
* :func:`figure3_scenario` — the Figure 3 history: a server hides
  ``write_1(X1, u)`` from ``C2``'s first read and rejoins on the second,
  yielding a weakly-fork-linearizable, non-fork-linearizable history.
* :func:`split_brain_scenario` — a general forking attack driving two
  client groups on divergent branches, used by the detection experiments.
* :func:`server_outage_scenario` — honest crash-recovery: the server goes
  down mid-workload and recovers from its storage engine; with a durable
  engine every operation completes and nobody raises fail.
* :func:`rollback_attack_scenario` — the persistence-axis attack: the
  server "recovers" from a deliberately stale snapshot; fail-aware
  clients detect the fork into the past.
* :func:`split_brain_shard_scenario` — the cluster-axis attack: one
  shard's server forks its clients while every other shard stays honest;
  detection must reach exactly the clients that touched the forked
  shard, and honest shards must keep serving.
* :func:`replica_rollback_scenario` — the rollback attack against a
  replica group (:mod:`repro.replica`): one replica recovers from a
  stale snapshot while the rest stay honest.  An honest quorum masks the
  deviant replies outright; a durable monotonic counter convicts the
  rolled-back replica on its first post-restart reply; a volatile
  counter shows the trust-anchor pitfall by falsely accusing an honest
  crash-recovered replica.
"""

from __future__ import annotations

import random

from dataclasses import dataclass, field

from repro.api.backends import ClusterBackend, FaustBackend, UstorBackend
from repro.api.config import FaustParams, SystemConfig
from repro.api.events import FailureNotification
from repro.api.handles import OpResult
from repro.api.session import Session
from repro.api.system import System
from repro.common.types import BOTTOM, OpKind
from repro.history.history import History
from repro.sim.network import FixedLatency
from repro.store.codec import encode_server_state
from repro.ustor.byzantine import Fig3Server, RollbackServer, SplitBrainServer
from repro.workloads.generator import (
    Driver,
    PlannedOp,
    WorkloadConfig,
    generate_scripts,
    unique_value,
)

ALICE, BOB, CARLOS = 0, 1, 2


@dataclass
class Figure2Result:
    """Outcome of the Figure 2 stability-cut scenario."""

    system: System
    #: Alice's stability cuts in notification order.
    alice_cuts: list[tuple[int, ...]]
    #: True once the exact cut (10, 8, 3) was emitted.
    reproduced: bool


def _sync_op(system: System, session: Session, kind: OpKind, argument) -> OpResult:
    """Run one operation to completion, then let a moment pass.

    The settle gap makes consecutive scripted operations *strictly* ordered
    in real time (``o <_sigma o'``), as the paper's scenarios assume —
    without it the next invocation lands at the exact virtual instant the
    previous response occurred and the operations count as concurrent.
    """
    handle = (
        session.write(argument) if kind is OpKind.WRITE else session.read(argument)
    )
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
    system = FaustBackend().open_system(
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
        _sync_op(system, alice, OpKind.WRITE, doc(v))
    # Carlos catches up on Alice's work, then goes to sleep.
    _sync_op(system, carlos, OpKind.READ, ALICE)
    _sync_op(system, alice, OpKind.READ, CARLOS)  # Alice's t=4: learns Carlos
    system.faults.away(CARLOS)

    # Alice keeps editing (t = 5..8).
    for v in range(5, 9):
        _sync_op(system, alice, OpKind.WRITE, doc(v))
    # Bob reads Alice's latest edit; Alice then reads Bob (t=9), and makes
    # one final edit (t=10) — at which point her cut is exactly [10, 8, 3].
    _sync_op(system, bob, OpKind.READ, ALICE)
    _sync_op(system, alice, OpKind.READ, BOB)
    _sync_op(system, alice, OpKind.WRITE, doc(10))

    alice_client = alice.client
    reproduced = (10, 8, 3) in [cut for _, cut in alice_client.stable_notifications]

    if include_carlos_return:
        # America wakes up: Carlos returns, reads, and background version
        # exchange makes everything stable at every client.
        system.faults.back(CARLOS)
        for client in system.clients:
            client.enable_background(dummy_reads=True, probes=True)
        system.run(until=system.now + 400.0)

    return Figure2Result(
        system=system,
        alice_cuts=[cut for _, cut in alice_client.stable_notifications],
        reproduced=reproduced,
    )


@dataclass
class Figure3Result:
    """Outcome of the Figure 3 forking scenario."""

    system: System
    history: History
    #: The three operations in the order of Figure 3.
    write_outcome: OpResult
    read1_outcome: OpResult
    read2_outcome: OpResult
    #: Whether any USTOR client output fail (must be False: the attack is
    #: designed to pass every check of Algorithm 1).
    ustor_detected: bool


def figure3_scenario(seed: int = 3, faust: bool = False) -> Figure3Result:
    """Run the Figure 3 attack: write1(X1,u); read2(X1)->BOTTOM; read2(X1)->u.

    With ``faust=True`` the clients run the fail-aware layer with probing
    enabled, so the (undetectable-at-USTOR-level) fork is exposed once the
    clients exchange versions offline.
    """
    config = SystemConfig(
        num_clients=2,
        seed=seed,
        latency=FixedLatency(0.5),
        offline_latency=FixedLatency(2.0),
        server_factory=lambda n, name: Fig3Server(n, writer=0, victim=1, name=name),
        faust=FaustParams(
            enable_dummy_reads=False,
            enable_probes=True,
            delta=20.0,
            probe_check_period=5.0,
        ),
    )
    backend = FaustBackend() if faust else UstorBackend()
    system = backend.open_system(config)
    writer, victim = system.sessions()

    write_outcome = _sync_op(system, writer, OpKind.WRITE, b"u")
    read1 = _sync_op(system, victim, OpKind.READ, 0)
    read2 = _sync_op(system, victim, OpKind.READ, 0)

    assert read1.value is BOTTOM, "the hidden write must be invisible to read 1"
    assert read2.value == b"u", "the rejoin must expose the write to read 2"

    detected = any(c.failed for c in system.clients)
    return Figure3Result(
        system=system,
        history=system.history(),
        write_outcome=write_outcome,
        read1_outcome=read1,
        read2_outcome=read2,
        ustor_detected=detected,
    )


@dataclass
class SplitBrainResult:
    """Outcome of the split-brain (forking server) scenario."""

    system: System
    driver: Driver
    groups: list[set[int]]
    fork_time: float


def split_brain_scenario(
    num_clients: int = 4,
    seed: int = 11,
    fork_time: float = 30.0,
    ops_per_client: int = 12,
    faust: bool = True,
    delta: float = 25.0,
    run_for: float = 600.0,
) -> SplitBrainResult:
    """A forking attack over a random workload.

    Clients are split into two groups (even/odd ids) at ``fork_time``;
    both groups keep operating on divergent branches.  With FAUST enabled,
    cross-group version exchange eventually proves the fork.
    """
    groups = [
        {c for c in range(num_clients) if c % 2 == 0},
        {c for c in range(num_clients) if c % 2 == 1},
    ]
    config = SystemConfig(
        num_clients=num_clients,
        seed=seed,
        server_factory=lambda n, name: SplitBrainServer(
            n, groups=groups, fork_time=fork_time, name=name
        ),
        faust=FaustParams(delta=delta, probe_check_period=delta / 3),
    )
    backend = FaustBackend() if faust else UstorBackend()
    system = backend.open_system(config)

    rng = random.Random(seed)
    scripts = generate_scripts(
        num_clients,
        WorkloadConfig(ops_per_client=ops_per_client, read_fraction=0.5),
        rng,
    )
    driver = Driver(system)
    driver.attach_all(scripts)
    system.run(until=run_for)
    return SplitBrainResult(
        system=system, driver=driver, groups=groups, fork_time=fork_time
    )


@dataclass
class ServerOutageResult:
    """Outcome of the server crash-recovery scenario."""

    system: System
    driver: Driver
    outage_start: float
    outage_end: float
    #: Did every scripted operation complete despite the outage?
    completed_all: bool
    #: Failure notifications raised (must be empty: honest recovery is
    #: not misbehaviour).
    failure_events: list
    #: Recovery restored the exact pre-crash ``ServerState`` (compared on
    #: canonical bytes).  False with the volatile engine — a memory-engine
    #: restart *is* a rollback (to zero), and clients treat it as one.
    recovery_byte_identical: bool


def server_outage_scenario(
    num_clients: int = 3,
    seed: int = 21,
    ops_per_client: int = 8,
    outage_start: float = 25.0,
    outage_duration: float = 20.0,
    storage: str = "log",
    faust: bool = True,
    run_for: float = 4_000.0,
) -> ServerOutageResult:
    """Honest crash-recovery under a random workload.

    The server goes down over ``[outage_start, outage_start +
    outage_duration)`` and recovers from its storage engine; requests
    delivered during the window are held by the reliable channels and
    served after recovery.  With ``storage="log"`` the outage only delays
    operations; with ``storage="memory"`` the restarted server has
    forgotten everything and clients detect the amnesia like a rollback.
    FAUST's background machinery stays armed — dummy reads and probes must
    *not* mistake an honest recovery for misbehaviour, and they are what
    exposes a volatile server's amnesia even after the workload drains.
    """
    config = SystemConfig(
        num_clients=num_clients,
        seed=seed,
        storage=storage,
        server_outages=((outage_start, outage_duration),),
    )
    backend = FaustBackend() if faust else UstorBackend()
    system = backend.open_system(config)

    scripts = generate_scripts(
        num_clients,
        WorkloadConfig(ops_per_client=ops_per_client, read_fraction=0.5),
        random.Random(seed),
    )
    driver = Driver(system)
    driver.attach_all(scripts)
    completed_all = driver.run_to_completion(timeout=run_for)
    outage_end = outage_start + outage_duration
    if system.now <= outage_end:
        # A short workload may drain before the window closes; run through
        # it so the crash and the recovery actually happen.
        system.run(until=outage_end + 1.0)
        completed_all = driver.stats.all_done()

    server = system.server
    identical = (
        server.last_pre_crash_state is not None
        and server.last_recovery_state is not None
        and encode_server_state(server.last_pre_crash_state)
        == encode_server_state(server.last_recovery_state)
    )
    failures = [
        e
        for e in system.notifications.history
        if isinstance(e, FailureNotification)
    ]
    return ServerOutageResult(
        system=system,
        driver=driver,
        outage_start=outage_start,
        outage_end=outage_end,
        completed_all=completed_all,
        failure_events=failures,
        recovery_byte_identical=identical,
    )


@dataclass
class RollbackAttackResult:
    """Outcome of the rollback-attack scenario."""

    system: System
    driver: Driver
    #: When the adversary crashed / came back from the stale snapshot.
    crash_time: float | None
    restart_time: float | None
    #: Per-client fail times (fail-aware clients only).
    detection_times: list[float]
    #: Virtual time from the dishonest restart to the first detection
    #: (``nan`` if the attack went unnoticed).
    detection_latency: float


def rollback_attack_scenario(
    num_clients: int = 3,
    seed: int = 31,
    ops_per_client: int = 10,
    snapshot_after_submits: int = 3,
    rollback_after_submits: int = 9,
    outage: float = 5.0,
    delta: float = 25.0,
    faust: bool = True,
    run_for: float = 2_000.0,
) -> RollbackAttackResult:
    """The rollback attack under a random workload.

    A :class:`RollbackServer` checkpoints early, serves honestly, then
    crashes and "recovers" from the stale snapshot.  Clients whose
    committed versions include post-snapshot operations are shown stale
    versions or stale data on their next operation (Algorithm 1, lines
    36/43/51); clients forked into the past are caught by FAUST's version
    comparison over the offline channel.  Either way the fail-aware layer
    turns one detection into system-wide failure notifications.
    """
    config = SystemConfig(
        num_clients=num_clients,
        seed=seed,
        server_factory=lambda n, name: RollbackServer(
            n,
            snapshot_after_submits=snapshot_after_submits,
            rollback_after_submits=rollback_after_submits,
            outage=outage,
            name=name,
        ),
        faust=FaustParams(delta=delta, probe_check_period=delta / 3),
    )
    backend = FaustBackend() if faust else UstorBackend()
    system = backend.open_system(config)

    scripts = generate_scripts(
        num_clients,
        WorkloadConfig(ops_per_client=ops_per_client, read_fraction=0.5),
        random.Random(seed),
    )
    driver = Driver(system)
    driver.attach_all(scripts)
    system.run(until=run_for)

    server = system.server
    detection_times = [
        c.faust_fail_time
        for c in system.clients
        if getattr(c, "faust_fail_time", None) is not None
    ]
    restart = server.rollback_restart_time
    latency = (
        min(detection_times) - restart
        if detection_times and restart is not None
        else float("nan")
    )
    return RollbackAttackResult(
        system=system,
        driver=driver,
        crash_time=server.rollback_crash_time,
        restart_time=restart,
        detection_times=detection_times,
        detection_latency=latency,
    )


@dataclass
class ShardSplitBrainResult:
    """Outcome of the sharded split-brain scenario."""

    system: object
    driver: Driver
    #: Shards whose server runs the forking attack.
    forked_shards: frozenset[int]
    fork_time: float
    #: Clients scripted to never touch a forked shard.
    avoiders: frozenset[int]
    #: Shards each client actually touched with user operations.
    touched: dict[int, frozenset[int]] = field(default_factory=dict)
    #: Clients expected to be notified (touched a forked shard).
    expected_detectors: frozenset[int] = frozenset()
    #: Clients that raised a cluster-level failure notification.
    notified_clients: frozenset[int] = frozenset()
    #: Virtual time from the fork to the first failure notification
    #: (``nan`` if the attack went unnoticed).
    detection_latency: float = float("nan")

    @property
    def exact_detection(self) -> bool:
        """Notified exactly the clients that touched the forked shard?"""
        return self.notified_clients == self.expected_detectors

    def avoiders_completed(self) -> bool:
        """Did every avoider finish its whole (honest-shard) script?"""
        return all(
            self.driver.stats.completed.get(c, 0)
            >= self.driver.stats.planned.get(c, 0)
            for c in self.avoiders
        )


@dataclass
class ReplicaRollbackResult:
    """Outcome of the replicated rollback scenario."""

    system: object
    driver: Driver
    replicas: int
    quorum: int
    counter: str | None
    #: When the faulty (or honestly crashed) replica went down / came back.
    crash_time: float | None
    restart_time: float | None
    #: Aggregated :meth:`QuorumCoordinator.stats` over every client
    #: (all-zero for the unreplicated baseline).
    masked_deviations: int = 0
    read_repairs: int = 0
    #: ``replica name -> violation`` for every counter conviction, and
    #: the virtual time of the first one (``nan`` if none fired).
    convicted: dict = field(default_factory=dict)
    conviction_time: float = float("nan")
    #: Times of protocol-level ``fail_i`` outputs (the unreplicated
    #: baseline's only detection signal; also how a replicated client
    #: reports an unattainable quorum).
    fail_times: list[float] = field(default_factory=list)
    #: Virtual time from the dishonest restart to the first signal of
    #: either kind (``nan`` = the attack went unnoticed).
    detection_latency: float = float("nan")
    #: Client operations that completed between the restart and the
    #: first signal — the paper-level cost of detection.  The counter's
    #: O(1) claim is this number staying ~num_clients, independent of
    #: workload length.
    ops_until_detection: int = 0
    completed: int = 0
    planned: int = 0

    @property
    def all_completed(self) -> bool:
        """True when every planned operation completed."""
        return self.completed >= self.planned

    @property
    def detected(self) -> bool:
        """Did any signal (fail_i or conviction) fire at all?"""
        return bool(self.fail_times) or bool(self.convicted)


def replica_rollback_scenario(
    num_clients: int = 4,
    seed: int = 31,
    ops_per_client: int = 8,
    replicas: int = 3,
    quorum: int | None = None,
    counter: str | None = None,
    rollback_replica: int | None = 1,
    honest_outage: tuple[int, float, float] | None = None,
    snapshot_after_submits: int = 2,
    rollback_after_submits: int = 6,
    outage: float = 5.0,
    delta: float = 25.0,
    run_for: float = 2_000.0,
) -> ReplicaRollbackResult:
    """The rollback attack against one replica of a k-of-n group.

    ``rollback_replica`` runs a :class:`RollbackServer` (checkpoint
    early, crash, "recover" from the stale snapshot) while the other
    replicas stay honest; ``None`` runs an all-honest group.
    ``honest_outage=(replica, start, duration)`` instead crashes an
    *honest* replica and recovers it from durable storage — paired with
    ``counter="volatile"`` it demonstrates the false accusation: the
    replica's state remembers its operations but the reset counter does
    not, so honest recovery becomes indistinguishable from misbehaviour.

    The interesting corners:

    * ``replicas=1`` (+ the attack) — the paper's single server:
      detection waits until the rolled state contradicts a client's
      committed version, so ``ops_until_detection`` grows with the
      workload.
    * ``replicas=3`` — an honest majority outvotes the deviant replies
      (``masked_deviations > 0``, nothing fails, everything completes).
    * ``counter="durable"`` — the trusted counter convicts the rolled
      replica on its first post-restart reply: ``ops_until_detection``
      stays O(num_clients) regardless of workload length.
    """
    attack = rollback_replica is not None
    if attack and not 0 <= rollback_replica < replicas:
        raise ValueError(
            f"rollback_replica {rollback_replica} out of range for "
            f"{replicas} replica(s)"
        )
    if honest_outage is not None and attack:
        raise ValueError(
            "honest_outage crashes an honest replica; drop rollback_replica"
        )

    def rollback_factory(n, name):
        return RollbackServer(
            n,
            snapshot_after_submits=snapshot_after_submits,
            rollback_after_submits=rollback_after_submits,
            outage=outage,
            name=name,
        )

    config = SystemConfig(
        num_clients=num_clients,
        seed=seed,
        shards=1,
        replicas=replicas,
        quorum=quorum,
        counter=counter,
        # Honest recovery needs real durability; the rollback server owns
        # its own (deliberately stale) persistence.
        storage="log" if honest_outage is not None else "memory",
        server_factory=(rollback_factory if attack and replicas == 1 else None),
        replica_server_factories=(
            {rollback_replica: rollback_factory} if attack and replicas > 1 else {}
        ),
        faust=FaustParams(delta=delta, probe_check_period=delta / 3),
    )
    system = ClusterBackend().open_system(config)
    shard = system.shards[0]
    if honest_outage is not None:
        shard.replica_outage(*honest_outage)

    scripts = generate_scripts(
        num_clients,
        WorkloadConfig(ops_per_client=ops_per_client, read_fraction=0.5),
        random.Random(seed),
    )
    driver = Driver(system)
    driver.attach_all(scripts)
    system.run(until=run_for)

    coordinators = [
        c.quorum_coordinator
        for c in shard.clients
        if getattr(c, "quorum_coordinator", None) is not None
    ]
    masked = sum(c.stats()["masked_deviations"] for c in coordinators)
    repairs = sum(c.stats()["read_repairs"] for c in coordinators)
    convicted: dict = {}
    for coordinator in coordinators:
        convicted.update(coordinator.stats()["convicted"])
    conviction_notes = shard.trace.notes_of_kind("replica-convicted")
    conviction_time = (
        min(n.time for n in conviction_notes) if conviction_notes else float("nan")
    )
    fail_times = [n.time for n in shard.trace.notes_of_kind("ustor-fail")]

    if attack:
        faulty = shard.replica_servers[rollback_replica]
        crash_time = faulty.rollback_crash_time
        restart_time = faulty.rollback_restart_time
    elif honest_outage is not None:
        crash_time = honest_outage[1]
        restart_time = honest_outage[1] + honest_outage[2]
    else:
        crash_time = restart_time = None

    signals = list(fail_times)
    if conviction_notes:
        signals.append(conviction_time)
    latency = (
        min(signals) - restart_time
        if signals and restart_time is not None
        else float("nan")
    )
    caught_at = min(signals) if signals else None
    ops_until = (
        sum(
            1
            for op in system.shard_histories()[0]
            if op.responded_at is not None
            and restart_time < op.responded_at <= caught_at
        )
        if caught_at is not None and restart_time is not None
        else 0
    )
    return ReplicaRollbackResult(
        system=system,
        driver=driver,
        replicas=replicas,
        quorum=coordinators[0].quorum if coordinators else 1,
        counter=counter,
        crash_time=crash_time,
        restart_time=restart_time,
        masked_deviations=masked,
        read_repairs=repairs,
        convicted=convicted,
        conviction_time=conviction_time,
        fail_times=fail_times,
        detection_latency=latency,
        ops_until_detection=ops_until,
        completed=driver.stats.total_completed(),
        planned=driver.stats.total_planned(),
    )


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
) -> ShardSplitBrainResult:
    """One (or more) forking shard(s) inside an otherwise honest cluster.

    The forked shards' servers run the classic split-brain attack from
    ``fork_time`` on; every other shard is honest.  Client scripts are
    shaped so that a subset (*avoiders* — clients whose registers and
    reads all live on honest shards) never touches a forked shard, while
    everyone else does.  The cluster contract under test:

    * every client that operated on a forked shard raises a
      shard-tagged failure notification,
    * no avoider raises any,
    * avoiders' operations — all on honest shards — complete in full.
    """
    forked = frozenset(forked_shards)
    if not forked:
        raise ValueError("need at least one forked shard")

    def forking_factory(n, name):
        return SplitBrainServer(
            n,
            groups=[
                {c for c in range(n) if c % 2 == 0},
                {c for c in range(n) if c % 2 == 1},
            ],
            fork_time=fork_time,
            name=name,
        )

    config = SystemConfig(
        num_clients=num_clients,
        seed=seed,
        shards=shards,
        shard_map=shard_map,
        shard_server_factories={k: forking_factory for k in forked},
        faust=FaustParams(delta=delta, probe_check_period=delta / 3),
    )
    system = ClusterBackend().open_system(config)
    if not any(system.shard_of(r) in forked for r in range(num_clients)):
        raise ValueError(
            "no register maps to a forked shard; nothing would be attacked"
        )

    honest_registers = [
        r for r in range(num_clients) if system.shard_of(r) not in forked
    ]
    forked_registers = [
        r for r in range(num_clients) if system.shard_of(r) in forked
    ]
    # Avoiders: clients whose own register lives on an honest shard; take
    # every other such client so both populations stay non-empty.
    honest_home = [c for c in honest_registers]
    avoiders = frozenset(honest_home[::2])

    rng = random.Random(seed)
    scripts: dict[int, list[PlannedOp]] = {}
    for client in range(num_clients):
        allowed = honest_registers if client in avoiders else None
        ops: list[PlannedOp] = []
        writes = 0
        for index in range(ops_per_client):
            think = rng.expovariate(1.0 / 3.0)
            if client not in avoiders and index == 1:
                # Guarantee every non-avoider touches a forked shard early.
                ops.append(
                    PlannedOp(
                        OpKind.READ, rng.choice(forked_registers), think_time=think
                    )
                )
            elif rng.random() < 0.5:
                pool = allowed if allowed is not None else range(num_clients)
                ops.append(
                    PlannedOp(OpKind.READ, rng.choice(list(pool)), think_time=think)
                )
            else:
                writes += 1
                ops.append(
                    PlannedOp(
                        OpKind.WRITE,
                        client,
                        value=unique_value(client, writes, 24),
                        think_time=think,
                    )
                )
        scripts[client] = ops

    driver = Driver(system)
    driver.attach_all(scripts)
    system.run(until=run_for)

    touched = {
        c: frozenset(system.touched_shards(c)) for c in range(num_clients)
    }
    expected = frozenset(
        c for c, shards_touched in touched.items() if shards_touched & forked
    )
    failures = system.notifications.failure_events()
    notified = frozenset(e.client for e in failures)
    latency = (
        min(e.time for e in failures) - fork_time
        if failures
        else float("nan")
    )
    return ShardSplitBrainResult(
        system=system,
        driver=driver,
        forked_shards=forked,
        fork_time=fork_time,
        avoiders=avoiders,
        touched=touched,
        expected_detectors=expected,
        notified_clients=notified,
        detection_latency=latency,
    )
