"""Interchangeable protocol backends behind one ``open_system`` contract.

The paper's point is a *single* storage abstraction whose guarantees vary
with the protocol underneath; the :class:`Backend` protocol makes that a
first-class axis.  Experiments and workloads pick guarantees by picking a
backend:

========== ============================ ===========================================
backend     protocol                     guarantees
========== ============================ ===========================================
faust       USTOR + fail-aware layer     linearizable w/ correct server, weakly
                                         fork-linearizable always, fail-aware
                                         (stability + failure notifications)
ustor       USTOR alone                  weakly fork-linearizable, wait-free,
                                         local ``fail_i`` detection only
lockstep    SUNDR-style lock-step        fork-linearizable but blocking (not
                                         wait-free)
unchecked   plain remote store           none — the detection-gap baseline
cluster     N sharded USTOR/FAUST        per-shard guarantees of the shard
            servers                      protocol; forking shards detected by
                                         exactly the clients that touched them
========== ============================ ===========================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.api.config import SystemConfig, check_supported
from repro.api.system import System
from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class Capabilities:
    """What a backend's deployments can be asked for."""

    #: Operations return per-client timestamps with Definition 5 Integrity.
    timestamps: bool
    #: ``stable_i(W)`` notifications / ``wait_for_stability`` available.
    stability: bool
    #: Server misbehaviour produces failure notifications.
    failure_detection: bool
    #: Operations complete under a correct server despite other clients
    #: crashing.
    wait_free: bool


@runtime_checkable
class Backend(Protocol):
    """A protocol stack that can open a :class:`System` from a config."""

    name: str
    capabilities: Capabilities

    def open_system(self, config: SystemConfig) -> System:
        """Build and wire a deployment described by ``config``."""
        ...


def build_deployment(config: SystemConfig, fail_aware: bool, **placement):
    """One simulated server (or replica group) with its clients, wired
    from ``config``: bare USTOR clients, or FAUST ones when ``fail_aware``.

    ``placement`` overrides builder arguments per shard (name, shared
    scheduler, factory) — the cluster backend's only addition.
    """
    from repro.workloads.runner import SystemBuilder

    knobs = dict(
        num_clients=config.num_clients,
        seed=config.seed,
        scheme=config.scheme,
        latency=config.latency,
        offline_latency=config.offline_latency,
        server_factory=config.server_factory,
        commit_piggyback=config.commit_piggyback,
        storage=config.storage,
        batching=config.batching,
        replicas=config.replicas,
        quorum=config.quorum,
        counter=config.counter,
        replica_server_factories=config.replica_server_factories,
    )
    knobs.update(placement)
    builder = SystemBuilder(**knobs)
    if not fail_aware:
        return builder.build()
    return builder.build_faust(
        checkpoint=config.checkpoint,
        membership=config.membership,
        **config.faust.as_kwargs(),
    )


class _Backend:
    """The one way in: consult the support table, open, attach the span log."""

    name: str
    capabilities: Capabilities

    def open_system(self, config: SystemConfig) -> System:
        """Open the deployment ``config`` describes on this backend."""
        check_supported(config, self.name)
        system = self._open(config)
        if config.span_log is not None:
            # Sessions read the span log off the deployment they are opened
            # on (one per shard on a cluster) when constructed, so it must
            # be attached before the first session() call.
            for deployment in getattr(system, "shards", [system]):
                deployment.span_log = config.span_log
        return system

    def _open(self, config: SystemConfig) -> System:
        raise NotImplementedError


class UstorBackend(_Backend):
    """The weak fork-linearizable protocol alone (Algorithms 1-2)."""

    name = "ustor"
    capabilities = Capabilities(
        timestamps=True, stability=False, failure_detection=True, wait_free=True
    )
    _fail_aware = False

    def _open(self, config: SystemConfig) -> System:
        if config.transport == "tcp":
            raw = self._open_tcp(config)
        else:
            raw = build_deployment(config, self._fail_aware)
            # Sorted, so that when one window ends exactly where the next
            # begins, the restart event is enqueued (and fires) before the
            # next crash — ties at one virtual time break by scheduling order.
            for start, duration in sorted(config.server_outages):
                raw.server_outage(start, duration)
        return System(raw, self.name, self.capabilities, config.default_timeout)

    @staticmethod
    def _open_tcp(config: SystemConfig):
        """The client half of a real deployment: sockets to already-running
        ``repro serve`` processes, one endpoint per replica."""
        from repro.net.client import open_tcp_system

        return open_tcp_system(
            config.num_clients,
            config.endpoints,
            server_name=config.server_name,
            seed=config.seed,
            scheme=config.scheme,
            default_timeout=config.default_timeout,
            commit_piggyback=config.commit_piggyback,
            trace_path=config.trace_path,
            trace_ids=config.trace_ids,
            span_log=config.span_log,
            replicas=config.replicas,
            quorum=config.quorum,
            counter=config.counter is not None,
        )


class FaustBackend(UstorBackend):
    """USTOR plus the fail-aware layer (Section 6) — the paper's service."""

    name = "faust"
    capabilities = Capabilities(
        timestamps=True, stability=True, failure_detection=True, wait_free=True
    )
    _fail_aware = True


class LockstepBackend(_Backend):
    """The SUNDR-style lock-step baseline: fork-linearizable, blocking."""

    name = "lockstep"
    capabilities = Capabilities(
        timestamps=True, stability=False, failure_detection=True, wait_free=False
    )

    def _open(self, config: SystemConfig) -> System:
        from repro.baselines.lockstep import build_lockstep_system

        raw = build_lockstep_system(
            config.num_clients,
            seed=config.seed,
            scheme=config.scheme,
            latency=config.latency,
            server_factory=config.server_factory,
        )
        return System(raw, self.name, self.capabilities, config.default_timeout)


class UncheckedBackend(_Backend):
    """The naive baseline: trusts every byte; nothing is ever detected."""

    name = "unchecked"
    capabilities = Capabilities(
        timestamps=True, stability=False, failure_detection=False, wait_free=True
    )

    def _open(self, config: SystemConfig) -> System:
        from repro.baselines.unchecked import build_unchecked_system

        raw = build_unchecked_system(
            config.num_clients,
            seed=config.seed,
            latency=config.latency,
            server_factory=config.server_factory,
        )
        return System(raw, self.name, self.capabilities, config.default_timeout)


class ClusterBackend(_Backend):
    """N sharded single-server deployments behind one session facade.

    Every shard runs the protocol ``config.shard_protocol`` selects
    (``faust`` by default), so the cluster's capabilities are the shard
    protocol's — declared per deployment rather than on the class, since
    ``stability`` exists only with fail-aware shards.
    """

    name = "cluster"
    #: Capabilities of the default (fail-aware) shard protocol; the opened
    #: system carries the exact capabilities of its configuration.
    capabilities = Capabilities(
        timestamps=True, stability=True, failure_detection=True, wait_free=True
    )

    def _open(self, config: SystemConfig):
        from repro.cluster.backend import open_cluster_system

        return open_cluster_system(
            config, self.name, self._capabilities_for(config)
        )

    @staticmethod
    def _capabilities_for(config: SystemConfig) -> Capabilities:
        return Capabilities(
            timestamps=True,
            stability=config.shard_protocol == "faust",
            failure_detection=True,
            wait_free=True,
        )


#: The built-in backends, by name.
BACKENDS: dict[str, Backend] = {
    backend.name: backend
    for backend in (
        FaustBackend(),
        UstorBackend(),
        LockstepBackend(),
        UncheckedBackend(),
        ClusterBackend(),
    )
}


def get_backend(backend: str | Backend) -> Backend:
    """Resolve a backend name (or pass an instance through)."""
    if isinstance(backend, str):
        try:
            return BACKENDS[backend]
        except KeyError:
            raise ConfigurationError(
                f"unknown backend {backend!r}; choose from {sorted(BACKENDS)}"
            ) from None
    return backend


def open_system(config: SystemConfig, backend: str | Backend = "faust") -> System:
    """Open a deployment described by ``config`` on the chosen backend."""
    return get_backend(backend).open_system(config)
