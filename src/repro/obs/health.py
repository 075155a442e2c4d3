"""Fail-aware health gauges: stability lag, time-to-detection, audits.

The paper's product promise is that clients *learn* about server
misbehaviour with bounded lag; :class:`HealthMonitor` turns that promise
into numbers a dashboard can alarm on:

* ``health.c<i>.stability_lag`` — operations client ``i`` has issued
  minus operations of ``i`` known stable.  FAUST clients answer from
  their own :class:`~repro.faust.stability.StabilityTracker` (the
  paper's ``W_i`` cut); plain USTOR clients have no tracker, so the
  monitor computes the global-observer proxy ``min_j V_j[i]`` over the
  co-resident clients' version vectors — the exact quantity the offline
  checkers use.
* ``health.time_to_detection`` — first ``fail_i`` output minus the first
  known Byzantine *deviation*.  Deviation times come from
  :meth:`note_deviation`, or are auto-discovered from the probed
  servers: ``first_deviation_at``, which
  :class:`~repro.ustor.server.UstorServer` stamps the first time a
  request is served from a state other than its own or a REPLY differs
  from the honest one (so every adversary of
  :mod:`repro.ustor.byzantine` carries it, the rollback server from its
  crash on); with no server to probe (a remote TCP process), the
  monitor's start time is the conservative baseline.
* ``health.failures`` / ``health.first_failure_time`` — the
  ``FailureNotification`` fan-out, recorded by failure listeners the
  monitor registers on every client; the timestamps coincide with the
  :class:`~repro.api.events.NotificationHub`'s because both listen on
  the same client callbacks under the same clock.
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

from typing import Callable, Iterable

from repro.obs.registry import Registry, get_registry


class HealthMonitor:
    """Computes the fail-aware gauges for one running system.

    ``clients`` are protocol clients (USTOR or FAUST); ``now`` is the
    deployment's clock (the simulator scheduler's or wall time).
    ``servers`` are optional server objects probed for deviation
    timestamps on refresh.  The monitor registers a failure listener on
    every client at construction, so detections are timestamped even if
    nobody refreshes until after the run.
    """

    def __init__(
        self,
        clients: Iterable,
        now: Callable[[], float],
        *,
        registry: Registry | None = None,
        servers: Iterable = (),
        auditor=None,
    ) -> None:
        self._clients = list(clients)
        self._now = now
        self._registry = registry if registry is not None else get_registry()
        self._servers = list(servers)
        self._auditor = auditor
        self.started_at = now()
        #: (time, client_index, reason) per observed ``fail_i``.
        self.failures: list[tuple[float, int, str]] = []
        self.deviation_time: float | None = None
        self._failures_counter = self._registry.counter("health.failures")
        for index, client in enumerate(self._clients):
            add = getattr(client, "add_failure_listener", None)
            if add is not None:
                add(self._make_failure_listener(index))

    def _make_failure_listener(self, index: int):
        def on_fail(reason: str) -> None:
            self.failures.append((self._now(), index, reason))
            self._failures_counter.inc()

        return on_fail

    def note_deviation(self, time: float) -> None:
        """Record the (earliest known) Byzantine deviation time."""
        if self.deviation_time is None or time < self.deviation_time:
            self.deviation_time = time

    def watch_auditor(self, auditor) -> None:
        """Attach an incremental auditor whose progress refresh reports."""
        self._auditor = auditor

    # ---------------------------------------------------------------- #
    # Derived quantities
    # ---------------------------------------------------------------- #

    def stability_lags(self) -> list[int]:
        """Per-client ops issued minus ops stable, at this instant."""
        vectors = []
        for client in self._clients:
            version = getattr(client, "version", None)
            vectors.append(tuple(version.vector) if version is not None else ())
        lags = []
        for index, client in enumerate(self._clients):
            issued = vectors[index][index] if vectors[index] else 0
            tracker = getattr(client, "tracker", None)
            if tracker is not None:
                stable = tracker.stable_timestamp_for_all()
            else:
                stable = min(
                    (v[index] for v in vectors if len(v) > index),
                    default=0,
                )
            lags.append(max(0, issued - stable))
        return lags

    def checkpoint_stall(self) -> tuple[float, tuple[int, ...]]:
        """Worst pending-checkpoint stall and who is blocking it.

        Returns ``(seconds, client_ids)`` over the co-resident clients'
        checkpoint managers: the longest time any client's pending
        sequence has gone unsigned, and the union of members those
        stalled clients are waiting on (missing shares, and — with
        membership on — lease-lapsed peers the membership layer blames).
        ``(0.0, ())`` when no checkpointing is configured or nothing is
        pending.
        """
        now = self._now()
        worst = 0.0
        blocking: set[int] = set()
        for client in self._clients:
            manager = getattr(client, "checkpoint_manager", None)
            if manager is None:
                continue
            stall = manager.stall_seconds(now)
            if stall <= 0.0:
                continue
            worst = max(worst, stall)
            blocking.update(manager.blocking_clients())
            membership = getattr(client, "membership_manager", None)
            if membership is not None:
                blocking.update(membership.blocking_clients(now))
        return worst, tuple(sorted(blocking))

    def first_failure_time(self) -> float | None:
        """Timestamp of the earliest observed ``fail_i``, or None."""
        return min((t for t, _c, _r in self.failures), default=None)

    def time_to_detection(self) -> float | None:
        """Seconds from first deviation (or monitor start) to first fail_i."""
        detected = self.first_failure_time()
        if detected is None:
            return None
        baseline = (
            self.deviation_time
            if self.deviation_time is not None
            else self.started_at
        )
        return max(0.0, detected - baseline)

    def _discover_deviation(self) -> None:
        for server in self._servers:
            time = getattr(server, "first_deviation_at", None)
            if time is not None:
                self.note_deviation(time)

    def refresh(self) -> dict:
        """Recompute every gauge into the registry; returns them as a dict.

        Exposed keys: per-client ``health.c<i>.stability_lag``, the
        aggregate ``health.max_stability_lag``, detection gauges, and —
        when an auditor is attached — ``audit.audits`` and ``audit.ok``.
        """
        registry = self._registry
        self._discover_deviation()
        values: dict = {}
        lags = self.stability_lags()
        for index, lag in enumerate(lags):
            name = f"health.c{index}.stability_lag"
            registry.gauge(name).set(lag)
            values[name] = lag
        max_lag = max(lags, default=0)
        registry.gauge("health.max_stability_lag").set(max_lag)
        values["health.max_stability_lag"] = max_lag
        stall, blocking = self.checkpoint_stall()
        registry.gauge("checkpoint.stall_seconds").set(stall)
        values["checkpoint.stall_seconds"] = stall
        registry.gauge("checkpoint.blocking_clients").set(len(blocking))
        values["checkpoint.blocking_clients"] = blocking
        first_fail = self.first_failure_time()
        if first_fail is not None:
            registry.gauge("health.first_failure_time").set(first_fail)
            values["health.first_failure_time"] = first_fail
        detection = self.time_to_detection()
        if detection is not None:
            registry.gauge("health.time_to_detection").set(detection)
            values["health.time_to_detection"] = detection
        if self.deviation_time is not None:
            registry.gauge("health.deviation_time").set(self.deviation_time)
            values["health.deviation_time"] = self.deviation_time
        if self._auditor is not None:
            audits = len(getattr(self._auditor, "audits", ()))
            ok = 1.0 if getattr(self._auditor, "ok", True) else 0.0
            registry.gauge("audit.runs").set(audits)
            registry.gauge("audit.ok").set(ok)
            values["audit.runs"] = audits
            values["audit.ok"] = ok
        return values
