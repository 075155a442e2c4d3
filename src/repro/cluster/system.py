"""The sharded deployment: N independent servers, one simulated world.

A :class:`ClusterSystem` holds one fully wired single-server deployment
(:class:`~repro.workloads.runner.StorageSystem`) per shard, all driven by
one shared :class:`~repro.sim.scheduler.Scheduler` so every shard lives
in the same virtual time.  Each shard is a complete, independent
protocol domain — its own server, keystore, offline channel, history —
owning one partition of the register space; the cluster layer never
crosses protocol state between shards (doing so would be a fork by
construction).

It shares :class:`~repro.workloads.runner.Deployment` with the single
deployment — clock, sessions, guarantees, fault producers, audits,
profile, ``close`` — and adds what a shard axis needs: ``clients`` holds
:class:`ClusterClient` proxies that route operations by register
ownership and aggregate per-shard state, ``offline`` and ``trace`` fan
out over the shards, so drivers, churn schedules and the CLI run
unchanged on a cluster.

Detection is audited **per shard and per dependency**: the cluster wires
a client's notifications for exactly the shards that client touched with
user operations (:meth:`touch`).  A forking shard is therefore reported
to precisely the clients whose data lived there — a client that never
used the shard has nothing at stake and hears nothing, while its honest
shards keep serving it.
"""

from __future__ import annotations

from typing import Callable

from repro.api.errors import CapabilityError
from repro.cluster.events import ClusterNotificationHub
from repro.cluster.session import ClusterSession
from repro.cluster.shardmap import ShardMap
from repro.common.errors import ConfigurationError
from repro.common.types import ClientId, RegisterId, Value, client_name
from repro.history.history import History
from repro.sim.faults import Fault, FaultInjector
from repro.sim.scheduler import Scheduler
from repro.workloads.runner import Deployment, StorageSystem


class ClusterClient:
    """Cluster-level client proxy: the ``system.clients[i]`` object.

    Routes ``write``/``read`` to the owning shard's protocol instance and
    aggregates liveness/failure state over the shards this client has
    *touched* with user operations, so generic drivers and churn
    schedules treat it exactly like a single-server client.
    """

    #: Routing hands each shard instance at most its own sequential
    #: stream, and FAUST instances queue internally; sessions may pipeline.
    pipelines_operations = True

    def __init__(self, cluster: "ClusterSystem", client_id: ClientId) -> None:
        self._cluster = cluster
        self.client_id = client_id
        self.name = client_name(client_id)

    # -- shard instances ------------------------------------------------ #

    @property
    def instances(self) -> list:
        """This client's protocol instance on every shard."""
        return [
            shard.clients[self.client_id] for shard in self._cluster.shards
        ]

    def instance(self, shard: int):
        """This client's protocol instance on one specific shard."""
        self._cluster.check_shard(shard)
        return self._cluster.shards[shard].clients[self.client_id]

    def _touched_instances(self) -> list:
        return [
            self.instance(shard)
            for shard in self._cluster.touched_shards(self.client_id)
        ]

    # -- operations (routed) -------------------------------------------- #

    def write(self, value: Value, callback: Callable | None = None) -> None:
        """Write the client's own register (routed to its home shard)."""
        shard = self._cluster.shard_of(self.client_id)
        self._cluster.touch(self.client_id, shard)
        self.instance(shard).write(value, callback)

    def read(self, register: RegisterId, callback: Callable | None = None) -> None:
        """Read any register (routed to the shard owning it)."""
        shard = self._cluster.shard_of(register)
        self._cluster.touch(self.client_id, shard)
        self.instance(shard).read(register, callback)

    # -- aggregated state ------------------------------------------------ #

    @property
    def crashed(self) -> bool:
        """Crashed on every shard (a cluster client crashes as a unit)."""
        return all(inst.crashed for inst in self.instances)

    @property
    def busy(self) -> bool:
        """An operation is in flight on at least one shard."""
        return any(getattr(inst, "busy", False) for inst in self.instances)

    @property
    def failed(self) -> bool:
        """Any *touched* shard's instance output ``fail`` (untouched
        shards carry nothing of this client's and do not halt it)."""
        return any(inst.failed for inst in self._touched_instances())

    @property
    def fail_reason(self) -> str | None:
        """The first touched shard's ``fail_i`` reason, if any."""
        for inst in self._touched_instances():
            if inst.fail_reason is not None:
                return inst.fail_reason
        return None

    @property
    def halted(self) -> bool:
        """Has this client stopped taking steps — crashed as a unit, or
        output ``fail`` on a shard it touched?"""
        return self.crashed or self.failed

    @property
    def halt_reason(self) -> str | None:
        """Why :attr:`halted`: the first touched shard's ``fail`` reason
        (whichever layer output it), else ``"crashed"``; ``None`` while up."""
        for inst in self._touched_instances():
            if inst.failed:
                return inst.halt_reason
        return "crashed" if self.crashed else None

    @property
    def tracker(self):
        """The home-shard stability tracker (fail-aware clusters only)."""
        home = self.instance(self._cluster.shard_of(self.client_id))
        tracker = getattr(home, "tracker", None)
        if tracker is None:
            raise AttributeError("tracker")
        return tracker

    @property
    def completed_operations(self) -> int:
        """Operations completed by this client across all shards."""
        return sum(inst.completed_operations for inst in self.instances)

    # -- lifecycle (fanned out) ------------------------------------------ #

    def crash(self) -> None:
        """Crash-stop this client's instance on every shard."""
        for inst in self.instances:
            inst.crash()

    def restart(self) -> None:
        """Restart this client's instance on every shard."""
        for inst in self.instances:
            inst.restart()

    def pause(self) -> None:
        """Pause background activity (dummy reads/probes) on all shards."""
        for inst in self.instances:
            inst.pause()

    def resume(self) -> None:
        """Resume background activity on all shards."""
        for inst in self.instances:
            inst.resume()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ClusterClient {self.name} over {len(self._cluster.shards)} shards>"


class _ClusterOffline:
    """Connectivity facade: one switch per client, fanned to every
    shard's offline channel (the client is one person; going to sleep
    disconnects it from all its shard mailboxes at once)."""

    def __init__(self, cluster: "ClusterSystem") -> None:
        self._cluster = cluster

    def set_online(self, name: str, online: bool) -> None:
        for shard in self._cluster.shards:
            shard.offline.set_online(name, online)

    def is_online(self, name: str) -> bool:
        return all(shard.offline.is_online(name) for shard in self._cluster.shards)

    def mailbox_depth(self, name: str) -> int:
        return sum(
            shard.offline.mailbox_depth(name) for shard in self._cluster.shards
        )


class _ClusterTrace:
    """Read-mostly trace facade aggregating per-shard traces.

    Cluster-level events (``note``) land on every query as well, so a
    churn schedule's offline/online notes are preserved.
    """

    def __init__(self, cluster: "ClusterSystem") -> None:
        self._cluster = cluster
        self.notes: list[tuple[float, str, str, tuple]] = []

    def note(self, time: float, who: str, what: str, *details) -> None:
        self.notes.append((time, who, what, details))

    def message_count(self, kind: str | None = None) -> int:
        return sum(
            shard.trace.message_count(kind) for shard in self._cluster.shards
        )

    def total_bytes(self, kind: str | None = None) -> int:
        return sum(
            shard.trace.total_bytes(kind) for shard in self._cluster.shards
        )


class ClusterSystem(Deployment):
    """A sharded deployment opened through the ``cluster`` backend."""

    session_class = ClusterSession

    def __init__(
        self,
        shards: list[StorageSystem],
        shard_map: ShardMap,
        scheduler: Scheduler,
        shard_protocol: str = "faust",
    ) -> None:
        if len(shards) != shard_map.num_shards:
            raise ConfigurationError(
                f"{len(shards)} shard deployments but the map expects "
                f"{shard_map.num_shards}"
            )
        self.shards = shards
        self.shard_map = shard_map
        self.scheduler = scheduler
        self.shard_protocol = shard_protocol
        self.audit_every = shards[0].audit_every
        self.num_clients = len(shards[0].clients)
        self.notifications = ClusterNotificationHub()
        self.trace = _ClusterTrace(self)
        self.offline = _ClusterOffline(self)
        #: The cluster's one fault schedule (:mod:`repro.sim.faults`).
        self.faults = FaultInjector(self)
        self.clients = [
            ClusterClient(self, i) for i in range(self.num_clients)
        ]
        self._sessions: dict[ClientId, ClusterSession] = {}
        #: (client, shard) pairs with at least one user operation.
        self._touched: set[tuple[ClientId, int]] = set()

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #

    def shard_of(self, register: RegisterId) -> int:
        """The shard owning ``register``; validates the register range."""
        if not 0 <= register < self.num_clients:
            raise ConfigurationError(
                f"register {register} outside the register space "
                f"[0, {self.num_clients})"
            )
        return self.shard_map.shard_of(register)

    @property
    def num_shards(self) -> int:
        """Number of shards (independent server deployments)."""
        return len(self.shards)

    def check_shard(self, shard: int) -> int:
        """Validate a shard index (rejecting negatives — Python's
        negative indexing would silently alias the last shard)."""
        if not 0 <= shard < len(self.shards):
            raise ConfigurationError(
                f"shard {shard} out of range for {len(self.shards)} shard(s)"
            )
        return shard

    @property
    def servers(self) -> list:
        """The per-shard servers, indexed by shard."""
        return [shard.server for shard in self.shards]

    def touched_shards(self, client_id: ClientId) -> tuple[int, ...]:
        """Shards ``client_id`` has issued user operations against."""
        return tuple(
            sorted(s for c, s in self._touched if c == client_id)
        )

    def touch(self, client_id: ClientId, shard: int) -> None:
        """Record that ``client_id`` depends on ``shard`` and wire its
        notifications for that shard (idempotent).

        Wiring at touch time is what scopes detection: only the clients
        whose data lives on a shard are notified of its misbehaviour.  If
        the shard was already caught misbehaving, the notification fires
        immediately — depending on a known-bad shard must not go silent.
        """
        key = (client_id, shard)
        if key in self._touched:
            return
        self._touched.add(key)
        hub = self.notifications
        instance = self.shards[shard].clients[client_id]
        if hasattr(instance, "add_stable_listener"):
            instance.add_stable_listener(
                lambda cut, _c=client_id, _s=shard: hub.emit_shard_stability(
                    self.scheduler.now, _c, cut, _s
                )
            )
        if hasattr(instance, "add_failure_listener"):
            instance.add_failure_listener(
                lambda reason, _c=client_id, _s=shard: hub.emit_shard_failure(
                    self.scheduler.now, _c, reason, _s
                )
            )
        if instance.failed:
            hub.emit_shard_failure(
                self.scheduler.now, client_id, instance.halt_reason, shard
            )

    # -- faults: the shard axis's producers for ``self.faults`` ----------- #

    def shard_outage(self, shard: int, start: float, duration: float) -> None:
        """One crash-recovery window for a single shard.

        On a replicated shard the window hits every replica of that shard
        (a correlated outage); use :meth:`replica_outage` to crash one
        replica only — the fault an honest-majority group masks.
        """
        self.faults.add(Fault("down", (shard, None), start, duration))

    def replica_outage(
        self, shard: int, replica: int, start: float, duration: float
    ) -> None:
        """One crash-recovery window for a single replica of one shard."""
        self.faults.add(Fault("down", (shard, replica), start, duration))

    # ------------------------------------------------------------------ #
    # Histories (per shard — each shard is its own consistency domain)
    # ------------------------------------------------------------------ #

    def shard_histories(self) -> dict[int, History]:
        """The recorded history of every shard, keyed by shard."""
        return {k: shard.history() for k, shard in enumerate(self.shards)}

    def history(self) -> History:
        """Unsupported on clusters: use :meth:`shard_histories`."""
        raise CapabilityError(
            "a cluster has one history per shard (each shard is an "
            "independent fork-linearizability domain); use shard_histories()"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ClusterSystem shards={self.num_shards} "
            f"clients={self.num_clients} map={self.shard_map!r} "
            f"t={self.now:.1f}>"
        )
