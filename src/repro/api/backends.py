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
from repro.sim.faults import Fault


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


def protocol_for(stack: str, config: SystemConfig):
    """The :class:`~repro.workloads.runner.ProtocolSpec` of the protocol
    stack a single-server backend (or ``shard_protocol``) names, tuned
    from ``config``."""
    from repro.baselines.lockstep import lockstep_protocol
    from repro.baselines.unchecked import unchecked_protocol
    from repro.workloads.runner import faust_protocol, ustor_protocol

    if stack == "ustor":
        return ustor_protocol(trace_ids=config.trace_ids)
    if stack == "faust":
        return faust_protocol(
            config.checkpoint, config.membership, **config.faust.as_kwargs()
        )
    return {"lockstep": lockstep_protocol, "unchecked": unchecked_protocol}[stack]()


def build_deployment(config: SystemConfig, protocol, **placement):
    """One server (or replica group) with its clients, wired from
    ``config``: ``protocol`` (a :class:`~repro.workloads.runner.
    ProtocolSpec`) on the world ``config.transport`` names — the
    simulator, or sockets to already-running ``repro serve`` processes.

    ``placement`` overrides simulator knobs per shard (name, shared
    scheduler, factory) — the cluster backend's only addition.
    """
    from repro.workloads import runner

    deployment = dict(
        num_clients=config.num_clients,
        scheme=config.scheme,
        server_name=config.server_name,
        commit_piggyback=config.commit_piggyback,
        replicas=config.replicas,
        quorum=config.quorum,
    )
    if config.transport == "tcp":
        from repro.net import client as net_client

        world = net_client.TcpWorld(
            config.endpoints,
            seed=config.seed,
            default_timeout=config.default_timeout,
            trace_path=config.trace_path,
            span_log=config.span_log,
        )
        return runner.wire_deployment(
            world, protocol, counter=config.counter is not None, **deployment
        )
    simulator = dict(
        seed=config.seed,
        latency=config.latency,
        offline_latency=config.offline_latency,
        server_factory=config.server_factory,
        storage=config.storage,
        batching=config.batching,
        counter=config.counter,
        replica_server_factories=config.replica_server_factories,
    )
    return runner.SystemBuilder(
        **{**deployment, **simulator, **placement}
    ).build_protocol(protocol)


class _Backend:
    """The one way in: consult the support table, build the deployment the
    backend's protocol describes, attach the span log."""

    name: str
    capabilities: Capabilities

    def open_system(self, config: SystemConfig) -> System:
        """Open the deployment ``config`` describes on this backend."""
        check_supported(config, self.name)
        system = self._open(config)
        outages = [Fault("down", None, *window) for window in config.server_outages]
        outages += [
            Fault("down", (shard, None), start, duration)
            for shard, start, duration in config.shard_outages
        ]
        # Sorted, so that when one window ends exactly where the next
        # begins, the restart event is enqueued (and fires) before the
        # next crash — ties at one virtual time break by scheduling order.
        for fault in sorted(outages, key=lambda fault: fault.start):
            system.faults.add(fault)
        if config.span_log is not None:
            # Sessions read the span log off the deployment they are opened
            # on (one per shard on a cluster) when constructed, so it must
            # be attached before the first session() call.
            for deployment in getattr(system, "shards", [system]):
                deployment.span_log = config.span_log
        return system

    def _open(self, config: SystemConfig) -> System:
        raw = build_deployment(config, protocol_for(self.name, config))
        return System(raw, self.name, self.capabilities, config.default_timeout)


class UstorBackend(_Backend):
    """The weak fork-linearizable protocol alone (Algorithms 1-2)."""

    name = "ustor"
    capabilities = Capabilities(
        timestamps=True, stability=False, failure_detection=True, wait_free=True
    )


class FaustBackend(_Backend):
    """USTOR plus the fail-aware layer (Section 6) — the paper's service."""

    name = "faust"
    capabilities = Capabilities(
        timestamps=True, stability=True, failure_detection=True, wait_free=True
    )


class LockstepBackend(_Backend):
    """The SUNDR-style lock-step baseline: fork-linearizable, blocking."""

    name = "lockstep"
    capabilities = Capabilities(
        timestamps=True, stability=False, failure_detection=True, wait_free=False
    )


class UncheckedBackend(_Backend):
    """The naive baseline: trusts every byte; nothing is ever detected."""

    name = "unchecked"
    capabilities = Capabilities(
        timestamps=True, stability=False, failure_detection=False, wait_free=True
    )


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
