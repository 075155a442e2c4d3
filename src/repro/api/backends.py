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
cluster     N sharded USTOR/FAUST        per-shard guarantees of the shard
            servers                      protocol; forking shards detected by
                                         exactly the clients that touched them
========== ============================ ===========================================

Stability (``stability_cut`` / ``wait_for_stability``) exists where the
clients are fail-aware — ``faust``, or a cluster of ``faust`` shards —
and raises :class:`~repro.api.errors.CapabilityError` elsewhere.

The paper's comparator, the blocking lock-step protocol
(:mod:`repro.baselines.lockstep`), is no backend: E3, E5 and
``examples/wait_freedom.py`` build it with :func:`build_deployment`,
which holds it to the support table's promise: it runs on the simulator
with latency models and a custom server, and any other knob is refused.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.api.config import FEATURES, SystemConfig, check_supported
from repro.api.events import NotificationHub
from repro.common.errors import ConfigurationError
from repro.common.types import BACKENDS

if TYPE_CHECKING:  # pragma: no cover - typing only (runner imports the api)
    from repro.workloads.runner import Deployment

#: The features a protocol outside the USTOR stack runs (the lock-step
#: baseline, on the simulator): nothing else reaches its clients.
_OFF_STACK_FEATURES = ("latency", "server_factory")


def protocol_for(stack: str, config: SystemConfig):
    """The :class:`~repro.workloads.runner.ProtocolSpec` of the protocol
    stack a single-server backend (or ``shard_protocol``) names —
    ``"faust"`` or ``"ustor"`` — tuned from ``config``."""
    from repro.workloads.runner import faust_protocol, ustor_protocol

    if stack == "faust":
        return faust_protocol(
            config.checkpoint, config.membership, **config.faust.as_kwargs()
        )
    return ustor_protocol()


def build_deployment(
    config: SystemConfig, protocol, *, server_name: str | None = None, **placement
):
    """One server (or replica group) with its clients, wired from
    ``config``: ``protocol`` (a :class:`~repro.workloads.runner.
    ProtocolSpec`) on the world ``config.transport`` names — the
    simulator, or sockets to already-running ``repro serve`` processes.
    The only place a config becomes a world (:func:`build_shard` is this
    without the hub).

    ``server_name`` (default ``config.server_name``) and ``placement``
    say what varies per shard or per test, never what the config
    describes: the simulator's shared ``scheduler``, ``server_factory``
    and ``latency_seed`` (:class:`~repro.workloads.runner.SimWorld`), the
    sockets' injected ``runtime`` and ``connect_timeout``
    (:class:`~repro.net.client.TcpWorld`).

    A protocol outside the USTOR stack (``ustor_stack=False``: the
    lock-step baseline) takes latency models and a custom server on the
    simulator and nothing else; any other knob is refused here, before
    anything is built, as :func:`check_supported` refuses a backend's.

    The deployment watches its clients with its own
    :class:`~repro.api.events.NotificationHub`, which fans their
    ``stable_i`` / ``fail_i`` outputs out and keeps the ``fail_i``.
    """
    system = build_shard(config, protocol, server_name=server_name, **placement)
    hub = system.notifications = NotificationHub()
    for index, client in enumerate(system.clients):
        hub.watch(client, index, lambda: system.scheduler.now)
    return system


def build_shard(
    config: SystemConfig, protocol, *, server_name: str | None = None, **placement
):
    """:func:`build_deployment` without a hub: a cluster's shard, whose
    clients the cluster's touch-scoped hub watches (a hub per shard would
    keep the stability events of shards a client never touched)."""
    from repro.workloads import runner

    if not protocol.ustor_stack:
        _check_off_stack(config, protocol.client_class.__name__)
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


def _check_off_stack(config: SystemConfig, clients: str) -> None:
    """Refuse what a protocol outside the USTOR stack would ignore."""
    if config.transport != "sim":
        raise ConfigurationError(
            f"{clients} runs on the simulator only; "
            f"got transport={config.transport!r}"
        )
    for feature in FEATURES:
        asked = feature.asked(config)
        if asked and feature.name not in _OFF_STACK_FEATURES:
            raise ConfigurationError(
                f"{'/'.join(f'{name}=' for name in asked)} ({feature.what}) is "
                f"not supported by {clients} over transport='sim'; outside "
                f"the USTOR stack a deployment takes latency models and a "
                f"custom server only"
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

        if placement:
            # Each shard is placed by the cluster itself (one scheduler,
            # per-shard latency streams), so no per-test seam reaches it.
            raise ConfigurationError(
                f"the 'cluster' backend takes no placement keyword, got "
                f"{', '.join(sorted(placement))}"
            )
        system = open_cluster_system(config)
    else:
        system = build_deployment(config, protocol_for(backend, config), **placement)
    system.backend_name = backend
    system.default_timeout = config.default_timeout
    # Sorted, so that when one window ends exactly where the next
    # begins, the restart event is enqueued (and fires) before the
    # next crash — ties at one virtual time break by scheduling order.
    for fault in sorted(config.server_outages, key=lambda fault: fault.start):
        system.faults.add(fault)
    return system
