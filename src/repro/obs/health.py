"""Fail-aware health gauges: stability lag, time-to-detection, audits.

The paper's product promise is that clients *learn* about server
misbehaviour with bounded lag; :class:`HealthMonitor` turns that promise
into numbers a dashboard can alarm on:

* ``health.c<i>.stability_lag`` — operations client ``i`` has issued
  minus operations of ``i`` known stable, on its worst shard.  FAUST
  clients answer from their own
  :class:`~repro.faust.stability.StabilityTracker` (the paper's ``W_i``
  cut); plain USTOR clients have no tracker, so the monitor computes the
  global-observer proxy ``min_j V_j[i]`` over the shard's clients'
  version vectors — the exact quantity the offline checkers use.
* ``health.time_to_detection`` — first ``fail_i`` output minus the first
  known Byzantine *deviation*.  Deviation times come from
  :meth:`note_deviation`, or are auto-discovered from each shard's
  co-located server: ``first_deviation_at``, which
  :class:`~repro.ustor.server.UstorServer` stamps the first time a
  request is served from a state other than its own or a REPLY differs
  from the honest one (so every adversary of
  :mod:`repro.ustor.byzantine` carries it, the rollback server from its
  crash on); with no server to probe (a remote TCP process), the
  monitor's start time is the conservative baseline.
* ``health.failures`` / ``health.first_failure_time`` — the
  deployment's :class:`~repro.api.events.FailureNotification` events,
  read from its notification hub (the run's one record of ``fail_i``),
  so the gauges agree with the hub by construction on every backend.
* ``checkpoint.stall_seconds`` (``repro_checkpoint_stall_seconds`` on
  the wire) — how long the slowest client's pending checkpoint sequence
  has been waiting for co-signatures, with ``blocking_clients`` naming
  the members whose shares (or stability) are missing.  A sustained
  stall is the page that precedes an eviction when the membership layer
  is on, and the page that *is* the outage when it is off.
* ``audit.audits`` / ``audit.ok`` — how many audits an attached
  :class:`~repro.workloads.runner.IncrementalAuditor` has taken, and
  whether every one passed.

The monitor is also where the deployment's runtime counts reach the
registry.  A count lives once, as a plain attribute on the object that
counts it (a server's ``submits_handled``, an engine's ``wal_appends``,
a network's ``bursts_formed``, a connection's ``frames_sent``, ...);
:func:`deployment_counts` is the one reader that sums them over every
co-located server, engine, network, connection and loopback host of
every shard, and :meth:`HealthMonitor.refresh` publishes its result
(:func:`publish_counts`).  The published names:
``scheduler.{events_processed,pending_events}``,
``clients.{completed_operations,failed,crashed}``,
``ustor.server.{submits,commits,group_commits,checkpoints,restarts,
max_pending_len,largest_group_commit}``, ``store.wal_appends``,
``sim.network.{bursts_formed,messages_coalesced}``,
``net.{frames_sent,frames_received,reconnects}``,
``server.{submits_deduplicated,submits_dropped_stale}``,
``crypto.verification_cache.{hits,misses,size}`` and
``hot_path.{encoding,digest_chain}.*`` — each only where some object
keeps it; :data:`GAUGE_COUNTS` are the ones that can fall.  Only
distributions are pushed while the run happens (histograms cannot be
read back afterwards), plus the few counts no object keeps
(``session.*``, ``net.retransmissions``, ``server.submits_delivered``).

Everything published is only as fresh as the last :meth:`refresh`; the
exposition layer calls it on every scrape/snapshot.
"""

from __future__ import annotations

from repro.obs.registry import Registry, get_registry
from repro.perf.profile import hot_path_cache_stats

#: Published counts that can fall (or are maxima): gauges.  Every other
#: count only grows and is published as a counter (``_total``).
GAUGE_COUNTS = frozenset({
    "scheduler.pending_events", "clients.failed", "clients.crashed",
    "ustor.server.max_pending_len", "ustor.server.largest_group_commit",
    "crypto.verification_cache.size", "hot_path.encoding.int_entries",
    "hot_path.encoding.str_entries", "hot_path.encoding.enum_entries",
})

#: Attributes published under another name (the rest keep their own).
_RENAMED = {
    "submits_handled": "submits", "commits_handled": "commits",
    "checkpoints_handled": "checkpoints", "pending": "pending_events",
}


def _add(counts: dict, prefix: str, objects, *attributes: str) -> None:
    """Sum each attribute (a ``max_*`` / ``largest_*`` one: take the max)
    over the objects that keep it, under ``prefix``; an attribute no
    object keeps is left out."""
    for attribute in attributes:
        values = [getattr(o, attribute) for o in objects if hasattr(o, attribute)]
        if values:
            combine = max if attribute.startswith(("max_", "largest_")) else sum
            counts[prefix + _RENAMED.get(attribute, attribute)] = combine(values)


def server_counts(servers, hosts=()) -> dict:
    """The server-side counts: the ``servers``' tallies and their storage
    engines', and the SUBMIT dedup counts of the
    :class:`~repro.net.server.NetServerHost` ``hosts`` in front of them."""
    counts: dict = {}
    _add(counts, "ustor.server.", servers, "submits_handled", "commits_handled",
         "group_commits", "checkpoints_handled", "restarts", "max_pending_len",
         "largest_group_commit")
    _add(counts, "store.", [getattr(s, "engine", None) for s in servers], "wal_appends")
    _add(counts, "server.", hosts, "submits_deduplicated", "submits_dropped_stale")
    return counts


def deployment_counts(system) -> dict:
    """Every runtime count of an opened deployment, as flat dotted names.

    Sums each count over the objects that keep it: every co-located
    server of every shard (``shard.replica_servers``) and its storage
    engine, each shard's network and keystore, ``system.connections``
    and the loopback ``system.hosts`` over sockets, the clients and the
    scheduler — plus the process-wide hot-path caches
    (:func:`~repro.perf.profile.hot_path_cache_stats`).  Pure: it reads
    attributes and changes nothing.
    """
    shards = system.shards
    hosts = getattr(system, "hosts", ())
    servers = [s for shard in shards for s in shard.replica_servers]
    servers += [host.node for host in hosts if host.node is not None]
    counts = server_counts(servers, hosts)
    _add(counts, "scheduler.", [getattr(system, "scheduler", None)],
         "events_processed", "pending")
    _add(counts, "clients.", system.clients, "completed_operations", "failed", "crashed")
    _add(counts, "sim.network.", [shard.network for shard in shards],
         "bursts_formed", "messages_coalesced")
    _add(counts, "net.", getattr(system, "connections", ()),
         "frames_sent", "frames_received", "reconnects")
    for keystore in (shard.keystore for shard in shards):
        for key, value in keystore.verification_cache_stats().items():
            name = f"crypto.verification_cache.{key}"
            counts[name] = counts.get(name, 0) + value
    for cache, stats in hot_path_cache_stats().items():
        for key, value in stats.items():
            counts[f"hot_path.{cache}.{key}"] = value
    return counts


def publish_counts(registry: Registry, counts: dict) -> None:
    """Write ``counts`` into ``registry``: a :data:`GAUGE_COUNTS` name as
    a gauge, every other name as a counter moved up to the count."""
    for name, value in counts.items():
        if name in GAUGE_COUNTS:
            registry.gauge(name).set(value)
        else:
            counter = registry.counter(name)
            counter.inc(value - counter.value)


class HealthMonitor:
    """Computes the fail-aware gauges for one opened deployment.

    Reads ``system.shards`` (each shard's clients and co-located
    ``server``), ``system.clients``, ``system.now`` and
    ``system.notifications``.  The monitor subscribes to the hub's
    failures at construction, so detections are counted even if nobody
    refreshes until after the run.
    """

    def __init__(
        self,
        system,
        *,
        registry: Registry | None = None,
        auditor=None,
    ) -> None:
        from repro.api.events import FailureNotification

        self._system = system
        self._registry = registry if registry is not None else get_registry()
        self._auditor = auditor
        self.started_at = system.now
        self.deviation_time: float | None = None
        # Every fail_i the hub emits from now on, kept as it arrives.
        self._failures = system.notifications.subscribe(
            kinds=FailureNotification
        ).events

    def note_deviation(self, time: float) -> None:
        """Record the (earliest known) Byzantine deviation time."""
        if self.deviation_time is None or time < self.deviation_time:
            self.deviation_time = time

    # ---------------------------------------------------------------- #
    # Derived quantities
    # ---------------------------------------------------------------- #

    def stability_lags(self) -> list[int]:
        """Per-client ops issued minus ops stable, at this instant (a
        client's worst shard on a cluster)."""
        per_shard = [_shard_lags(shard.clients) for shard in self._system.shards]
        return [max(lags) for lags in zip(*per_shard)]

    def checkpoint_stall(self) -> tuple[float, tuple[int, ...]]:
        """Worst pending-checkpoint stall and who is blocking it.

        Returns ``(seconds, client_ids)`` over every shard's clients'
        checkpoint managers: the longest time any client's pending
        sequence has gone unsigned, and the union of members those
        stalled clients are waiting on (missing shares, and — with
        membership on — lease-lapsed peers the membership layer blames).
        ``(0.0, ())`` when no checkpointing is configured or nothing is
        pending.
        """
        now = self._system.now
        worst = 0.0
        blocking: set[int] = set()
        for client in (c for shard in self._system.shards for c in shard.clients):
            manager = getattr(client, "checkpoint_manager", None)
            if manager is None or manager.stall_seconds(now) <= 0.0:
                continue
            worst = max(worst, manager.stall_seconds(now))
            blocking.update(manager.blocking_clients())
            membership = getattr(client, "membership_manager", None)
            if membership is not None:
                blocking.update(membership.blocking_clients(now))
        return worst, tuple(sorted(blocking))

    def first_failure_time(self) -> float | None:
        """Timestamp of the earliest observed ``fail_i``, or None."""
        return min((event.time for event in self._failures), default=None)

    def time_to_detection(self) -> float | None:
        """Seconds from first deviation (or monitor start) to first fail_i."""
        detected = self.first_failure_time()
        if detected is None:
            return None
        baseline = self.deviation_time
        return max(0.0, detected - (self.started_at if baseline is None else baseline))

    def _discover_deviation(self) -> None:
        for shard in self._system.shards:
            time = getattr(shard.server, "first_deviation_at", None)
            if time is not None:
                self.note_deviation(time)

    def refresh(self) -> dict:
        """Recompute every gauge and publish every count into the
        registry; returns them all as one dict.

        Exposed keys: per-client ``health.c<i>.stability_lag``, the
        aggregate ``health.max_stability_lag``, detection gauges,
        ``health.failures``, every :func:`deployment_counts` name, and —
        when an auditor is attached — ``audit.audits`` and ``audit.ok``.
        """
        self._discover_deviation()
        lags = self.stability_lags()
        values: dict = {
            f"health.c{index}.stability_lag": lag for index, lag in enumerate(lags)
        }
        values["health.max_stability_lag"] = max(lags, default=0)
        stall, blocking = self.checkpoint_stall()
        values["checkpoint.stall_seconds"] = stall
        detection = {
            "health.first_failure_time": self.first_failure_time(),
            "health.time_to_detection": self.time_to_detection(),
            "health.deviation_time": self.deviation_time,
        }
        values.update((k, v) for k, v in detection.items() if v is not None)
        counts = deployment_counts(self._system)
        counts["health.failures"] = len(self._failures)
        if self._auditor is not None:
            counts["audit.audits"] = len(self._auditor.audits)
            values["audit.ok"] = 1.0 if self._auditor.ok else 0.0
        for name, value in values.items():
            self._registry.gauge(name).set(value)
        publish_counts(self._registry, counts)
        # The gauge counts the blockers; the returned value names them.
        self._registry.gauge("checkpoint.blocking_clients").set(len(blocking))
        values["checkpoint.blocking_clients"] = blocking
        return {**values, **counts}


def _shard_lags(clients) -> list[int]:
    """Per-client lag within one consistency domain: issued minus stable,
    from the client's tracker or else the ``min_j V_j[i]`` proxy."""
    vectors = [
        tuple(client.version.vector) if hasattr(client, "version") else ()
        for client in clients
    ]
    lags = []
    for index, client in enumerate(clients):
        issued = vectors[index][index] if vectors[index] else 0
        tracker = getattr(client, "tracker", None)
        if tracker is not None:
            stable = tracker.stable_timestamp_for_all()
        else:
            stable = min((v[index] for v in vectors if len(v) > index), default=0)
        lags.append(max(0, issued - stable))
    return lags
