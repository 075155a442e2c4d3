"""System assembly and run orchestration.

:class:`SystemBuilder` wires a complete simulated deployment — scheduler,
FIFO network, offline channel, keystore, server (correct or Byzantine),
clients, history recorder — and :class:`StorageSystem` drives it.  All
tests, examples and benchmarks build their worlds through this module, so
a deployment is always described by a handful of declarative knobs.

:class:`IncrementalAuditor` adds periodic consistency audits to any
deployment (single-server or cluster): streaming checkers subscribe to
the live recorder(s) and a scheduler timer snapshots their verdicts
every ``every`` time units — O(operations since the last audit) per
check instead of the full-history re-check an offline audit costs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.common.errors import ConfigurationError
from repro.common.types import ClientId
from repro.crypto.keystore import KeyStore
from repro.history.history import History
from repro.history.recorder import HistoryRecorder
from repro.obs.registry import COUNT_BUCKETS, get_registry
from repro.sim.faults import ServerFaultInjector
from repro.sim.network import FixedLatency, LatencyModel, Network
from repro.sim.offline import OfflineChannel
from repro.sim.scheduler import Scheduler
from repro.sim.timers import PeriodicTimer
from repro.sim.trace import SimTrace
from repro.store.engine import make_engine
from repro.ustor.client import UstorClient
from repro.ustor.server import UstorServer

if TYPE_CHECKING:  # pragma: no cover - typing only (api imports runner)
    from repro.api.config import BatchingPolicy

#: Builds a server given (num_clients, name); lets tests inject Byzantine ones.
ServerFactory = Callable[[int, str], UstorServer]


@dataclass
class StorageSystem:
    """A fully wired simulated deployment."""

    scheduler: Scheduler
    network: Network
    offline: OfflineChannel
    server: UstorServer
    clients: list
    recorder: HistoryRecorder
    trace: SimTrace
    keystore: KeyStore
    faust_clients: list = field(default_factory=list)
    #: The throughput pipeline this deployment was built with (``None``
    #: = unbatched); sessions read their flush policy from here.
    batching: "BatchingPolicy | None" = None
    #: Assign a :class:`repro.obs.tracing.SpanLog` here *before* opening
    #: sessions to collect per-operation spans (sessions capture it once).
    span_log: object | None = None
    #: The full replica group (``[server]`` when unreplicated): every
    #: server of this deployment's shard, in replica order.  ``server``
    #: stays the first replica so single-server call sites run unchanged.
    replica_servers: list = field(default_factory=list)

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Advance the simulation; returns the number of events fired."""
        return self.scheduler.run(until=until, max_events=max_events)

    def run_until(
        self, predicate: Callable[[], bool], timeout: float | None = None
    ) -> bool:
        """Run until ``predicate()`` holds; False on timeout."""
        return self.scheduler.run_until(predicate, timeout=timeout)

    def run_until_quiescent(
        self, check_every: float = 1.0, timeout: float = 10_000.0
    ) -> None:
        """Run until no operation is pending at any client (or timeout).

        ``check_every`` is the poll cadence: the O(clients) all-idle scan
        re-runs only once virtual time has advanced by that much since the
        last scan (``run_until`` evaluates its predicate after *every*
        event, so an unthrottled scan would dominate busy runs).  The
        system may therefore run up to ``check_every`` time units past
        the first quiescent instant before this call returns.
        """
        if check_every <= 0:
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

    def attach_audit(
        self,
        every: float = 50.0,
        checks: tuple[str, ...] = ("linearizability", "causal"),
    ) -> "IncrementalAuditor":
        """Start periodic O(delta) consistency audits on this deployment."""
        return IncrementalAuditor(self, every=every, checks=checks)

    def profile(self) -> dict:
        """Machine-readable performance profile of this deployment
        (:func:`repro.perf.system_profile`): scheduler/server/client
        counters plus hot-path cache effectiveness."""
        from repro.perf.profile import system_profile

        return system_profile(self)

    def client(self, client_id: ClientId):
        """The protocol client with id ``client_id``."""
        return self.clients[client_id]

    def crash_client_at(self, client_id: ClientId, time: float) -> None:
        """Schedule a crash-stop of one client at an absolute virtual time."""
        node = self.clients[client_id]
        self.scheduler.schedule_at(
            time, lambda: (node.crash(), self.trace.note(time, node.name, "crash"))
        )

    # -- server faults (the storage/recovery axis) --------------------- #

    def crash_server_at(self, time: float) -> None:
        """Schedule a server crash at an absolute virtual time."""
        self._server_faults().crash_at(time)

    def restart_server_at(self, time: float) -> None:
        """Schedule a server restart (engine recovery) at a virtual time."""
        self._server_faults().restart_at(time)

    def server_outage(self, start: float, duration: float) -> None:
        """One crash-recovery window: server down over [start, start+duration).

        On a replica group the window hits **every** replica — a
        correlated outage, matching the single-server semantics "the
        service is down".  Use :meth:`replica_outage` to crash one
        replica (the fault an honest majority masks).
        """
        for index in range(len(self.replica_servers) or 1):
            self._server_faults(index).outage(start, duration)

    def replica_outage(self, replica: int, start: float, duration: float) -> None:
        """One crash-recovery window for a single replica of the group."""
        self._server_faults(replica).outage(start, duration)

    def crash_replica_at(self, replica: int, time: float) -> None:
        """Schedule a crash of one replica at an absolute virtual time."""
        self._server_faults(replica).crash_at(time)

    def restart_replica_at(self, replica: int, time: float) -> None:
        """Schedule one replica's restart (engine recovery)."""
        self._server_faults(replica).restart_at(time)

    def _server_faults(self, replica: int = 0) -> ServerFaultInjector:
        group = self.replica_servers or [self.server]
        if not 0 <= replica < len(group):
            raise ConfigurationError(
                f"replica {replica} out of range: the group has "
                f"{len(group)} replica(s)"
            )
        return ServerFaultInjector(self.scheduler, group[replica], self.trace)

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.scheduler.now


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

        if every <= 0:
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
        shards = getattr(system, "shards", None)
        if shards is not None:
            for index, shard in enumerate(shards):
                attached = attach_incremental_checkers(shard.recorder, self.checks)
                for name, checker in attached.items():
                    self._checkers[f"shard{index}.{name}"] = checker
                self._domains.append(list(attached.values()))
        else:
            attached = attach_incremental_checkers(system.recorder, self.checks)
            self._checkers.update(attached)
            self._domains.append(list(attached.values()))
        self._ops_at_last_audit = 0
        #: Periodic snapshots, in audit order.
        self.audits: list[AuditRecord] = []
        registry = get_registry()
        self._obs_audits = registry.counter("audit.audits")
        self._obs_delta = registry.histogram("audit.delta_ops", COUNT_BUCKETS)
        self._obs_ok = registry.gauge("audit.ok")
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
        self._obs_audits.inc()
        self._obs_delta.observe(record.delta_ops)
        self._obs_ok.set(1.0 if record.ok else 0.0)
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


class SystemBuilder:
    """Declarative construction of a :class:`StorageSystem`.

    >>> system = SystemBuilder(num_clients=2, seed=1).build()
    >>> system.clients[0].write(b"hello")
    >>> system.run(until=10)  # doctest: +SKIP
    """

    def __init__(
        self,
        num_clients: int,
        seed: int = 0,
        scheme: str = "hmac",
        latency: LatencyModel | None = None,
        offline_latency: LatencyModel | None = None,
        server_factory: ServerFactory | None = None,
        commit_piggyback: bool = False,
        server_name: str = "S",
        storage: str | Callable = "memory",
        scheduler: Scheduler | None = None,
        trace: SimTrace | None = None,
        batching: "BatchingPolicy | None" = None,
        latency_seed: int | None = None,
        replicas: int = 1,
        quorum: int | None = None,
        counter: str | None = None,
        replica_server_factories: dict | None = None,
    ) -> None:
        if num_clients < 1:
            raise ConfigurationError("need at least one client")
        if replicas < 1:
            raise ConfigurationError("need at least one replica")
        if counter not in (None, "volatile", "durable"):
            raise ConfigurationError(
                f"counter must be None, 'volatile' or 'durable', got {counter!r}"
            )
        if replicas > 1 and not isinstance(storage, (str, Callable)):
            raise ConfigurationError(
                "a replica group needs one engine per replica: pass a "
                "storage name or factory, not a ready engine instance"
            )
        for index in replica_server_factories or {}:
            if not 0 <= index < replicas:
                raise ConfigurationError(
                    f"replica_server_factories names replica {index!r} but "
                    f"the group has {replicas} replica(s)"
                )
        self.num_clients = num_clients
        self.seed = seed
        self.scheme = scheme
        self.latency = latency or FixedLatency(1.0)
        self.offline_latency = offline_latency or FixedLatency(5.0)
        self.storage = storage
        self.batching = batching
        # Dedicated latency-RNG stream for this deployment's network
        # (``None`` = share the scheduler's stream, byte-identical to a
        # build that predates the knob).  The cluster backend derives one
        # per shard so shards draw independent latency samples.
        self.latency_seed = latency_seed
        self.replicas = replicas
        self.quorum = quorum
        self.counter = counter
        self.replica_server_factories = dict(replica_server_factories or {})
        # A custom factory owns its server's durability (and its own
        # batching behaviour); the default server persists through the
        # engine ``storage`` selects and group-commits when the batching
        # policy asks for it.
        group_commit = bool(batching is not None and batching.group_commit)
        self.server_factory = server_factory or (
            lambda n, name: UstorServer(
                n,
                name=name,
                engine=make_engine(storage, n),
                group_commit=group_commit,
            )
        )
        self.commit_piggyback = commit_piggyback
        self.server_name = server_name
        # Multi-server topologies (repro.cluster) build several deployments
        # over ONE event loop: pass the shared scheduler (and optionally a
        # shared trace) so every shard lives in the same virtual time.
        self._shared_scheduler = scheduler
        self._shared_trace = trace

    def _replica_names(self) -> list[str]:
        if self.replicas == 1:
            return [self.server_name]
        return [f"{self.server_name}/r{k}" for k in range(self.replicas)]

    def _client_replica_kwargs(self) -> dict:
        """Replica-group knobs every protocol client is built with."""
        if self.replicas == 1:
            return {"counter": self.counter is not None}
        return {
            "replica_servers": tuple(self._replica_names()),
            "quorum": self.quorum,
            "counter": self.counter is not None,
        }

    def _build(self, client_class, **client_kwargs) -> StorageSystem:
        fail_aware = client_class is not UstorClient
        scheduler = self._shared_scheduler or Scheduler(seed=self.seed)
        trace = self._shared_trace or SimTrace()
        network = Network(
            scheduler,
            default_latency=self.latency,
            trace=trace,
            batching=bool(self.batching is not None and self.batching.transport),
            rng=(
                random.Random(self.latency_seed)
                if self.latency_seed is not None
                else None
            ),
        )
        offline = OfflineChannel(scheduler, latency=self.offline_latency, trace=trace)
        keystore = KeyStore(self.num_clients, scheme=self.scheme)
        recorder = HistoryRecorder()
        servers = []
        for index, name in enumerate(self._replica_names()):
            factory = self.replica_server_factories.get(index, self.server_factory)
            server = factory(self.num_clients, name)
            if self.counter is not None:
                from repro.replica.counter import MonotonicCounter

                server.attach_counter(
                    MonotonicCounter(name, durable=self.counter == "durable")
                )
            network.register(server)
            servers.append(server)
        clients = []
        for i in range(self.num_clients):
            client = client_class(
                client_id=i,
                num_clients=self.num_clients,
                signer=keystore.signer(i),
                server_name=self.server_name,
                recorder=recorder,
                commit_piggyback=self.commit_piggyback,
                **client_kwargs,
                **self._client_replica_kwargs(),
            )
            network.register(client)
            offline.register(client)
            if fail_aware:
                client.attach_offline(offline)
                client.start()
            clients.append(client)
        return StorageSystem(
            scheduler=scheduler,
            network=network,
            offline=offline,
            server=servers[0],
            clients=clients,
            recorder=recorder,
            trace=trace,
            keystore=keystore,
            faust_clients=list(clients) if fail_aware else [],
            batching=self.batching,
            replica_servers=servers,
        )

    def build(self) -> StorageSystem:
        """A plain USTOR deployment (no fail-aware layer)."""
        return self._build(UstorClient)

    def build_faust(
        self, checkpoint=None, membership=None, **faust_kwargs
    ) -> StorageSystem:
        """A FAUST deployment: USTOR plus the fail-aware layer (Section 6).

        ``checkpoint`` (a :class:`~repro.faust.checkpoint.CheckpointPolicy`)
        enables authenticated checkpointing: every client runs a
        :class:`~repro.faust.checkpoint.CheckpointManager`, and — when the
        policy prunes history — the shared recorder (and its incremental
        checkers) compacts behind each cut once *every* client has
        installed it, so verdicts never depend on one client racing ahead.

        ``membership`` (a :class:`~repro.faust.membership.MembershipPolicy`)
        layers lease-based membership epochs under the checkpoint
        protocol, so the chain keeps advancing after a crashed-forever
        client is evicted (compaction then waits for the checkpoint's
        *signers* only — an evicted client can never install).
        """
        from repro.faust.client import FaustClient

        system = self._build(
            FaustClient, checkpoint=checkpoint, membership=membership,
            **faust_kwargs,
        )
        if checkpoint is not None and checkpoint.prune_history:
            installs: dict[int, int] = {}

            def _on_install(cp):
                count = installs.get(cp.seq, 0) + 1
                if count >= (len(cp.signers) or self.num_clients):
                    installs.pop(cp.seq, None)
                    system.recorder.compact(cp.cut, keep_tail=checkpoint.keep_tail)
                else:
                    installs[cp.seq] = count

            for client in system.clients:
                client.add_checkpoint_listener(_on_install)
        return system
