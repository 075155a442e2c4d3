"""Sharded multi-server deployments of the fail-aware storage service.

The paper's protocol is single-server by design; this package scales it
out by *partitioning the register space* across N independent USTOR/FAUST
server instances (shards), each a complete protocol domain with its own
keys, history and fail-aware machinery.  Shard ``k`` owns the ``k``-th
balanced contiguous range of registers
(:func:`~repro.cluster.system.register_owners`), fixed when the
deployment opens.  A client-side
:class:`~repro.cluster.session.ClusterSession` — the one shard router —
sends every operation to the owning shard behind the unchanged
``Session``/``OpHandle`` facade, so applications, scenarios and
experiments run on a cluster untouched.

Guarantees are per shard, audited per shard:

* each shard is fork-linearizable/fail-aware *independently* — an
  adversary may be honest on one shard and forking on another;
* a forking shard is detected by, and reported to, exactly the clients
  whose operations touched it (every
  :class:`~repro.api.events.FailureNotification` carries its ``shard``);
* ``barrier()`` drains every touched shard; stability is tracked per
  register partition (home-shard cuts for writes).

Open one through the ``cluster`` backend::

    from repro.api import SystemConfig, open_system

    system = open_system(
        SystemConfig(num_clients=6, shards=3),
        backend="cluster",
    )
"""
