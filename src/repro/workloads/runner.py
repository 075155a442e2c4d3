"""System assembly and run orchestration.

A deployment is a *world* — what supplies the scheduler, the transport,
the offline channel and the trace — running a *protocol* — the
client class with its keyword arguments and its default server.
:func:`wire_deployment` is the one place the two meet: it creates the
keystore and the recorder, names the replicas, constructs every client,
registers it on the world's transport and offline channel and returns
the one :class:`StorageSystem` that drives the result.  The simulator
(:class:`SimWorld`), real sockets (:class:`repro.net.client.TcpWorld`)
and wire-trace replay (:func:`repro.net.trace.replay_trace`) differ only
in the world they hand it; USTOR, FAUST and the lock-step baseline only
in the protocol.  Both configured worlds read one
:class:`~repro.api.config.SystemConfig`, and
:func:`repro.api.backends.build_deployment` (or, for a cluster's shard,
its hub-less :func:`~repro.api.backends.build_shard`) is the one place
that picks a world for it.

:class:`Deployment` is what every opened system offers — a
:class:`StorageSystem`, or a :class:`~repro.cluster.system.ClusterSystem`
of them — and ``open_system`` returns the deployment itself.

:class:`IncrementalAuditor` adds periodic consistency audits to any
deployment (single-server or cluster): streaming checkers subscribe to
the live recorder(s) and a scheduler timer snapshots their verdicts
every ``every`` time units — O(operations since the last audit) per
check instead of the full-history re-check an offline audit costs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.common.errors import ConfigurationError
from repro.common.types import ClientId
from repro.crypto.keystore import KeyStore
from repro.history.history import History
from repro.history.recorder import HistoryRecorder
from repro.obs.registry import COUNT_BUCKETS, get_registry
from repro.sim.faults import FaultInjector
from repro.sim.network import FixedLatency, Network
from repro.sim.offline import OfflineChannel
from repro.sim.scheduler import Scheduler
from repro.sim.timers import PeriodicTimer
from repro.sim.trace import SimTrace
from repro.store.engine import make_server
from repro.ustor.client import UstorClient
from repro.ustor.server import UstorServer

if TYPE_CHECKING:  # pragma: no cover - typing only (api imports runner)
    from repro.api.config import BatchingPolicy
    from repro.api.events import NotificationHub

#: Builds a server given (num_clients, name); lets tests inject Byzantine ones.
ServerFactory = Callable[[int, str], UstorServer]


class Deployment:
    """What every opened deployment offers: one server (or replica group)
    with its clients — :class:`StorageSystem` — or a cluster of them —
    :class:`~repro.cluster.system.ClusterSystem`.

    A subclass supplies ``scheduler``, ``clients``, ``shards`` (the
    independent single-server deployments behind it, ``[self]`` when
    unsharded — shard ``k`` of a ``down`` fault's target is
    ``shards[k]``), ``faults`` (the one fault schedule: every crash,
    outage and away-window is a :class:`~repro.sim.faults.Fault` added
    there), ``audit_every``, its ``session_class`` and a ``_sessions``
    cache.  ``open_system`` sets ``backend_name`` and
    ``default_timeout``; a deployment built directly keeps the defaults
    below.
    """

    #: The backend that opened this deployment (``None``: built directly).
    backend_name: str | None = None
    #: Wait budget of the sessions opened here, on the world's clock.
    default_timeout: float = 1_000.0
    #: Every ``stable_i`` / ``fail_i`` output as a typed event (``None``
    #: on a cluster's shard: the cluster's hub hears its clients).
    notifications: NotificationHub | None = None

    # -- the world's clock ----------------------------------------------- #

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Advance the world to time ``until``; returns the number of
        events this call fired."""
        return self.scheduler.run(until=until, max_events=max_events)

    def run_until(
        self, predicate: Callable[[], bool], timeout: float | None = None
    ) -> bool:
        """Run until ``predicate()`` holds; False on timeout."""
        return self.scheduler.run_until(predicate, timeout=timeout)

    @property
    def now(self) -> float:
        """Current time on the world's clock (shared by every shard)."""
        return self.scheduler.now

    # -- sessions -------------------------------------------------------- #

    def session(self, client_id: ClientId, timeout: float | None = None):
        """The session bound to ``client_id`` (cached per client unless an
        explicit ``timeout`` asks for a dedicated one)."""
        if timeout is not None:
            return self.session_class(self, client_id, timeout=timeout)
        if client_id not in self._sessions:
            self._sessions[client_id] = self.session_class(self, client_id)
        return self._sessions[client_id]

    def sessions(self) -> list:
        """One session per client, in client order."""
        return [self.session(i) for i in range(len(self.clients))]

    # -- observation ----------------------------------------------------- #

    def attach_audit(
        self,
        every: float | None = None,
        checks: tuple[str, ...] = ("linearizability", "causal"),
    ) -> "IncrementalAuditor":
        """Start periodic O(delta) consistency audits on this deployment —
        one streaming checker set per shard (``every`` defaults to the
        world's audit cadence, :attr:`audit_every`)."""
        if every is None:
            every = self.audit_every
        return IncrementalAuditor(self, every=every, checks=checks)

    # -- lifetime -------------------------------------------------------- #

    def close(self) -> None:
        """Release what the deployment holds open: the co-located servers'
        storage engines (idempotent; durable contents stay)."""
        for shard in self.shards:
            for server in shard.replica_servers:
                engine = getattr(server, "engine", None)
                if engine is not None:
                    engine.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class StorageSystem(Deployment):
    """A fully wired deployment, whatever world it runs in."""

    scheduler: Scheduler
    network: Network
    offline: OfflineChannel
    #: ``None`` when no server is co-located (separate processes, replay).
    server: UstorServer | None
    clients: list
    recorder: HistoryRecorder
    trace: SimTrace
    keystore: KeyStore
    #: The throughput pipeline this deployment was built with (``None``
    #: = unbatched); sessions read their flush policy from here.
    batching: "BatchingPolicy | None" = None
    #: The full replica group (``[server]`` when unreplicated): every
    #: co-located server of this deployment's shard, in replica order.
    #: ``server`` stays the first replica so single-server call sites run
    #: unchanged.
    replica_servers: list = field(default_factory=list)
    #: The world's clock — virtual time units here, wall-clock seconds
    #: over sockets: how often ``run_until_quiescent`` re-scans the
    #: clients, how long it waits, and ``attach_audit``'s cadence.
    quiescence_poll: float = 1.0
    quiescence_timeout: float = 10_000.0
    audit_every: float = 50.0
    #: The deployment's one fault schedule (:mod:`repro.sim.faults`).
    faults: FaultInjector = field(init=False, repr=False)
    _sessions: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        self.faults = FaultInjector(self)

    @property
    def session_class(self) -> type:
        """:class:`~repro.api.session.Session`, one per client."""
        from repro.api.session import Session  # repro.api imports this module

        return Session

    @property
    def shards(self) -> list["StorageSystem"]:
        """The independent deployments behind this system: itself."""
        return [self]

    @property
    def raw(self) -> "StorageSystem":
        """This deployment.  ``open_system`` returns the wired system
        itself; ``benchmarks/e2e/workloads.py`` still reads ``.raw``."""
        return self

    def run_until_quiescent(
        self, check_every: float | None = None, timeout: float | None = None
    ) -> None:
        """Run until no operation is pending at any client (or timeout).

        ``check_every`` is the poll cadence: the O(clients) all-idle scan
        re-runs only once time has advanced by that much since the last
        scan (``run_until`` evaluates its predicate after *every* event,
        so an unthrottled scan would dominate busy runs).  The system may
        therefore run up to ``check_every`` past the first quiescent
        instant before this call returns.  Both default to the world's
        clock (:attr:`quiescence_poll`, :attr:`quiescence_timeout`).
        """
        if check_every is None:
            check_every = self.quiescence_poll
        if timeout is None:
            timeout = self.quiescence_timeout
        if not check_every > 0:  # NaN fails too
            raise ConfigurationError("check_every must be positive")

        last_scan = [float("-inf")]

        def quiet() -> bool:
            now = self.scheduler.now
            if now - last_scan[0] < check_every:
                return False
            last_scan[0] = now
            return all(
                not getattr(c, "busy", False) for c in self.clients if not c.crashed
            )

        self.run_until(quiet, timeout=timeout)

    def history(self) -> History:
        """The recorded history (pending operations included)."""
        return self.recorder.history()

    def client(self, client_id: ClientId):
        """The protocol client with id ``client_id``."""
        return self.clients[client_id]


@dataclass(frozen=True)
class AuditRecord:
    """One periodic audit: when it ran, what each checker said, and how
    many operations were newly streamed since the last audit (the delta
    — counted once per consistency domain, not once per checker)."""

    time: float
    verdicts: dict
    delta_ops: int

    @property
    def ok(self) -> bool:
        """Did every checker pass at this audit?"""
        return all(result.ok for result in self.verdicts.values())


class IncrementalAuditor:
    """Periodic O(delta) consistency audits over a running deployment.

    Streaming checkers (:mod:`repro.consistency.incremental`) subscribe
    to the deployment's recorder — one checker set per shard on a
    cluster, since each shard is its own consistency domain — and a
    repeating scheduler event snapshots their verdicts every ``every``
    virtual time units.  Because the checkers do their work as operations
    stream in, an audit tick only *reads* verdicts: the per-audit cost is
    O(operations appended since the last audit), not O(history).

    ``checks`` names any of ``"linearizability"`` / ``"causal"``.  Audit
    snapshots accumulate in :attr:`audits` (shard-qualified keys like
    ``"shard0.causal"`` on clusters); :meth:`final` takes one last
    snapshot and returns it.
    """

    def __init__(
        self,
        system,
        every: float = 50.0,
        checks: tuple[str, ...] = ("linearizability", "causal"),
    ) -> None:
        from repro.consistency.incremental import attach_incremental_checkers

        if not every > 0:  # NaN fails too
            raise ConfigurationError("audit cadence must be positive")
        if not checks:
            raise ConfigurationError(
                "an auditor needs at least one check "
                "('linearizability' and/or 'causal')"
            )
        self._system = system
        self.every = every
        self.checks = tuple(checks)
        self._checkers: dict[str, object] = {}
        #: Checkers grouped per consistency domain (one recorder each):
        #: all of a domain's checkers see the same operation stream, so
        #: the domain's delta is counted once, not once per checker.
        self._domains: list[list] = []
        sharded = system.shards[0] is not system  # unsharded: its own one shard
        for index, shard in enumerate(system.shards):
            attached = attach_incremental_checkers(shard.recorder, self.checks)
            prefix = f"shard{index}." if sharded else ""
            for name, checker in attached.items():
                self._checkers[prefix + name] = checker
            self._domains.append(list(attached.values()))
        self._ops_at_last_audit = 0
        #: Periodic snapshots, in audit order.
        self.audits: list[AuditRecord] = []
        self._obs_delta = get_registry().histogram("audit.delta_ops", COUNT_BUCKETS)
        self._timer = PeriodicTimer(system.scheduler, every, self.snapshot)
        self._timer.start()

    def _streamed_ops(self) -> int:
        # Writes count at invocation and reads at response in every
        # checker of a domain, so any one checker's tally is the domain's
        # operation-event count; max() tolerates uneven check sets.
        return sum(
            max(c.ops_processed for c in domain) for domain in self._domains
        )

    def snapshot(self) -> AuditRecord:
        """Take one audit now (also used by the periodic tick)."""
        verdicts = {
            name: checker.result() for name, checker in self._checkers.items()
        }
        streamed = self._streamed_ops()
        record = AuditRecord(
            time=self._system.scheduler.now,
            verdicts=verdicts,
            delta_ops=streamed - self._ops_at_last_audit,
        )
        self._ops_at_last_audit = streamed
        self.audits.append(record)
        self._obs_delta.observe(record.delta_ops)
        return record

    def stop(self) -> None:
        """Cancel the periodic tick (snapshots already taken are kept)."""
        self._timer.stop()

    def final(self) -> AuditRecord:
        """Stop ticking and return one last audit over everything seen."""
        self.stop()
        return self.snapshot()

    # -- outcomes -------------------------------------------------------- #

    @property
    def ok(self) -> bool:
        """Has every checker passed at every audit so far? (O(1) state —
        checkers are sticky, so the latest verdicts subsume the past.)"""
        return all(checker.result().ok for checker in self._checkers.values())

    @property
    def checkers(self) -> dict:
        """The live checkers, by (shard-qualified) check name."""
        return dict(self._checkers)

    def verdicts(self) -> dict:
        """The current verdict of every checker, by check name."""
        return {name: c.result() for name, c in self._checkers.items()}


@dataclass(frozen=True)
class ProtocolSpec:
    """What runs on a world: the client class, its protocol-specific
    keyword arguments, and how the loop must treat it."""

    client_class: type
    client_kwargs: dict = field(default_factory=dict)
    #: The honest server; ``None`` = the correct USTOR server
    #: :func:`~repro.store.engine.make_server` assembles.
    server_factory: ServerFactory | None = None
    #: Clients belong to the USTOR stack (take ``commit_piggyback`` and
    #: the replica-group knobs) / take the offline channel and start their
    #: timers.  Every client takes a ``signer``.
    ustor_stack: bool = True
    fail_aware: bool = False
    #: Called with the wired system, for deployment-level listeners.
    on_wired: Callable[["StorageSystem"], None] | None = None


def ustor_protocol() -> ProtocolSpec:
    """Plain USTOR (Algorithms 1-2): no fail-aware layer."""
    return ProtocolSpec(UstorClient)


def faust_protocol(checkpoint=None, membership=None, **faust_kwargs) -> ProtocolSpec:
    """USTOR plus the fail-aware layer (Section 6).

    ``checkpoint`` (a :class:`~repro.faust.checkpoint.CheckpointPolicy`)
    enables authenticated checkpointing: every client runs a
    :class:`~repro.faust.checkpoint.CheckpointManager`, and the shared
    recorder (and its incremental checkers) compacts behind each cut once
    *every* client has installed it, so verdicts never depend on one
    client racing ahead.

    ``membership`` (a :class:`~repro.faust.membership.MembershipPolicy`)
    adds the lease ledger, so the chain evicts a crashed-forever client
    and keeps advancing (compaction then waits for as many installs as
    the link has members — an evicted client never signs).
    """
    from repro.faust.client import FaustClient

    def compact_behind_installed_cuts(system: StorageSystem) -> None:
        installs: dict[bytes, int] = {}

        def on_install(cp) -> None:
            count = installs.get(cp.digest, 0) + 1
            if count >= len(cp.members):
                installs.pop(cp.digest, None)
                system.recorder.compact(cp.cut, keep_tail=checkpoint.keep_tail)
            else:
                installs[cp.digest] = count

        for client in system.clients:
            client.add_checkpoint_listener(on_install)

    return ProtocolSpec(
        FaustClient,
        dict(checkpoint=checkpoint, membership=membership, **faust_kwargs),
        fail_aware=True,
        on_wired=compact_behind_installed_cuts if checkpoint is not None else None,
    )


class World:
    """Where a deployment runs: scheduler, transport, offline channel,
    trace and — in subclasses — co-located servers, per-client links and
    a richer system object.  As is, the world of wire-trace replay: no
    server, a transport that only captures."""

    def __init__(self, scheduler, transport, trace: SimTrace, offline_latency=None):
        self.scheduler = scheduler
        self.transport = transport
        self.trace = trace
        self.offline = OfflineChannel(scheduler, latency=offline_latency, trace=trace)

    def start(self, protocol, recorder, *, num_clients, replica_names):
        """Bring up what the clients will talk to; returns the co-located
        servers in replica order."""
        return []

    def connect(self, client) -> None:
        """Link one registered client to its servers (nothing to do where
        the transport itself delivers)."""

    def system(self, **wired) -> StorageSystem:
        """The system object for the wired parts."""
        return StorageSystem(**wired)


class SimWorld(World):
    """The discrete-event simulator a :class:`~repro.api.config.
    SystemConfig` describes: FIFO network (latency ``FixedLatency(1.0)``
    unless configured), offline channel (``FixedLatency(5.0)``), servers
    registered on the same network.

    The keyword *placement* arguments say where this deployment sits in
    a larger topology — what the cluster varies per shard: ``scheduler``
    (one shared event loop, so every shard lives in the same virtual
    time), ``server_factory`` (overrides ``config.server_factory``) and
    ``latency_seed`` (a dedicated latency-RNG stream; ``None`` shares the
    scheduler's).
    """

    def __init__(
        self,
        config,
        *,
        scheduler: Scheduler | None = None,
        server_factory: ServerFactory | None = None,
        latency_seed: int | None = None,
    ) -> None:
        scheduler = scheduler or Scheduler(seed=config.seed)
        trace = SimTrace()
        network = Network(
            scheduler,
            default_latency=config.latency or FixedLatency(1.0),
            trace=trace,
            batching=config.batching is not None,
            rng=random.Random(latency_seed) if latency_seed is not None else None,
        )
        super().__init__(scheduler, network, trace, config.offline_latency)
        self._config = config
        self._server_factory = server_factory or config.server_factory

    def start(self, protocol, recorder, *, num_clients, replica_names):
        """One server per replica name, registered on the network: the
        configured factory, else the protocol's, else the correct USTOR
        server on the engine ``storage`` selects (group-committing when
        a batching policy is set)."""
        config = self._config
        default = self._server_factory or protocol.server_factory
        servers = [
            make_server(
                num_clients,
                name,
                factory=config.replica_server_factories.get(index, default),
                storage=config.storage,
                group_commit=config.batching is not None,
                counter=config.counter,
            )
            for index, name in enumerate(replica_names)
        ]
        for server in servers:
            self.transport.register(server)
        return servers

    def system(self, **wired) -> StorageSystem:
        """The system, carrying the configured batching policy."""
        return StorageSystem(batching=self._config.batching, **wired)


def replica_names(server_name: str, replicas: int) -> list[str]:
    """The group's server names: ``S``, or ``S/r0`` .. ``S/r{k-1}``."""
    if replicas > 1:
        return [f"{server_name}/r{k}" for k in range(replicas)]
    return [server_name]


def wire_deployment(
    world: World,
    protocol: ProtocolSpec,
    *,
    num_clients: int,
    scheme: str = "hmac",
    server_name: str = "S",
    replicas: int = 1,
    quorum: int | None = None,
    counter: bool = False,
    commit_piggyback: bool = False,
) -> StorageSystem:
    """Wire ``num_clients`` clients of ``protocol`` into ``world`` — the
    only place a deployment comes together.

    Keys and recorder are created, the replica group is named (``S``, or
    ``S/r0`` .. ``S/r{k-1}``), the world brings up its side, and each
    client is constructed (a fail-aware one taking the offline channel),
    registered on the transport and offline channel, linked by the world
    and, when fail-aware, started; the world then supplies the system.
    """
    names = replica_names(server_name, replicas)
    keystore = KeyStore(num_clients, scheme=scheme)
    recorder = HistoryRecorder()
    servers = world.start(
        protocol, recorder, num_clients=num_clients, replica_names=names
    )
    client_kwargs = dict(protocol.client_kwargs)
    if protocol.fail_aware:
        client_kwargs["offline"] = world.offline
    if protocol.ustor_stack:
        client_kwargs.update(commit_piggyback=commit_piggyback, counter=counter)
        if replicas > 1:
            client_kwargs.update(replica_servers=tuple(names), quorum=quorum)
    clients = []
    for i in range(num_clients):
        client = protocol.client_class(
            client_id=i,
            num_clients=num_clients,
            server_name=names[0],
            recorder=recorder,
            signer=keystore.signer(i),
            **client_kwargs,
        )
        world.transport.register(client)
        world.offline.register(client)
        world.connect(client)
        if protocol.fail_aware:
            client.start()
        clients.append(client)
    system = world.system(
        scheduler=world.scheduler,
        network=world.transport,
        offline=world.offline,
        server=servers[0] if servers else None,
        clients=clients,
        recorder=recorder,
        trace=world.trace,
        keystore=keystore,
        replica_servers=servers,
    )
    if protocol.on_wired is not None:
        protocol.on_wired(system)
    return system
