"""One ``open_system`` contract; a backend is the name of its protocol.

The paper's point is a *single* storage abstraction whose guarantees vary
with the protocol underneath.  A backend name selects that protocol (its
:class:`~repro.workloads.runner.ProtocolSpec`: client, server,
``fail_aware``), and experiments and workloads pick guarantees by picking
a name:

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

Stability (``stability_cut`` / ``wait_for_stability``) exists where the
clients are fail-aware — ``faust``, or a cluster of ``faust`` shards —
and raises :class:`~repro.api.errors.CapabilityError` elsewhere.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.api.config import SystemConfig, check_supported
from repro.common.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only (runner imports the api)
    from repro.workloads.runner import Deployment

#: The backend names :func:`open_system` accepts.
BACKENDS = ("faust", "ustor", "lockstep", "unchecked", "cluster")


def protocol_for(stack: str, config: SystemConfig):
    """The :class:`~repro.workloads.runner.ProtocolSpec` of the protocol
    stack a single-server backend (or ``shard_protocol``) names, tuned
    from ``config``."""
    from repro.baselines.lockstep import lockstep_protocol
    from repro.baselines.unchecked import unchecked_protocol
    from repro.workloads.runner import faust_protocol, ustor_protocol

    if stack == "ustor":
        return ustor_protocol()
    if stack == "faust":
        return faust_protocol(
            config.checkpoint, config.membership, **config.faust.as_kwargs()
        )
    return {"lockstep": lockstep_protocol, "unchecked": unchecked_protocol}[stack]()


def build_deployment(
    config: SystemConfig, protocol, *, server_name: str | None = None, **placement
):
    """One server (or replica group) with its clients, wired from
    ``config``: ``protocol`` (a :class:`~repro.workloads.runner.
    ProtocolSpec`) on the world ``config.transport`` names — the
    simulator, or sockets to already-running ``repro serve`` processes.
    The only place a config becomes a world.

    ``server_name`` (default ``config.server_name``) and ``placement``
    say what varies per shard or per test, never what the config
    describes: the simulator's shared ``scheduler``, ``server_factory``
    and ``latency_seed`` (:class:`~repro.workloads.runner.SimWorld`), the
    sockets' injected ``runtime`` and ``connect_timeout``
    (:class:`~repro.net.client.TcpWorld`).
    """
    from repro.workloads import runner

    if config.transport == "tcp":
        from repro.net import client as net_client

        world = net_client.TcpWorld(config, **placement)
    else:
        world = runner.SimWorld(config, **placement)
    return runner.wire_deployment(
        world,
        protocol,
        num_clients=config.num_clients,
        scheme=config.scheme,
        server_name=server_name or config.server_name,
        replicas=config.replicas,
        quorum=config.quorum,
        counter=config.counter is not None,
        commit_piggyback=config.commit_piggyback,
    )


def open_system(
    config: SystemConfig, backend: str = "faust", **placement
) -> Deployment:
    """Open a deployment described by ``config`` on the backend named
    ``backend``: the wired :class:`~repro.workloads.runner.StorageSystem`,
    or a :class:`~repro.cluster.system.ClusterSystem` of them
    (``placement``: :func:`build_deployment`'s per-test seams).

    The one way in: refuse an unknown name, consult the support table,
    build the deployment the backend's protocol describes, say who opened
    it, schedule its declared outages."""
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; choose from {sorted(BACKENDS)}"
        )
    check_supported(config, backend)
    if backend == "cluster":
        from repro.cluster.backend import open_cluster_system

        system = open_cluster_system(config, **placement)
    else:
        system = build_deployment(config, protocol_for(backend, config), **placement)
        system.wire_notifications()
    system.backend_name = backend
    system.default_timeout = config.default_timeout
    # Sorted, so that when one window ends exactly where the next
    # begins, the restart event is enqueued (and fires) before the
    # next crash — ties at one virtual time break by scheduling order.
    for fault in sorted(config.server_outages, key=lambda fault: fault.start):
        system.faults.add(fault)
    return system
