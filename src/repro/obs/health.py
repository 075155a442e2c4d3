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
* ``audit.*`` — progress and verdict of an attached
  :class:`~repro.workloads.runner.IncrementalAuditor`.

Gauges are only as fresh as the last :meth:`refresh`; the exposition
layer calls it on every scrape/snapshot.
"""

from __future__ import annotations

from repro.obs.registry import Registry, get_registry


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
        failures_counter = self._registry.counter("health.failures")
        # Every fail_i the hub emits from now on, counted as it arrives.
        self._failures = system.notifications.subscribe(
            lambda _event: failures_counter.inc(), kinds=FailureNotification
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
        """Recompute every gauge into the registry; returns them as a dict.

        Exposed keys: per-client ``health.c<i>.stability_lag``, the
        aggregate ``health.max_stability_lag``, detection gauges, and —
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
        if self._auditor is not None:
            values["audit.runs"] = len(getattr(self._auditor, "audits", ()))
            values["audit.ok"] = 1.0 if getattr(self._auditor, "ok", True) else 0.0
        for name, value in values.items():
            self._registry.gauge(name).set(value)
        # The gauge counts the blockers; the returned value names them.
        self._registry.gauge("checkpoint.blocking_clients").set(len(blocking))
        values["checkpoint.blocking_clients"] = blocking
        return values


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
