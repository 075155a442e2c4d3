"""The open-loop scale harness: bounded state under sustained load.

The checkpoint extension (:mod:`repro.faust.checkpoint`) claims O(active
window) memory at every party — server ``pending`` list and WAL, client
view-history records, recorder and incremental-checker state — while the
protocol keeps detecting rollback across checkpoints.  This harness turns
that claim into a measured, regression-gated quantity:

* **open-loop arrivals** (Poisson interarrivals, Zipf key popularity,
  :func:`repro.workloads.generator.generate_open_loop`) offer load at a
  fixed rate regardless of completion, so latency percentiles include
  queueing delay — a closed-loop driver systematically under-reports it
  (coordinated omission);
* **resident-structure sampling** walks the live deployment at a fixed
  virtual-time cadence and records the size of every structure the
  checkpoint extension is supposed to bound;
* **steady-state growth ratio** compares the post-warmup first half of
  those samples against the second half: a bounded system hovers near
  1.0, an unbounded one grows with the run length;
* optional **churn** (:func:`plan_churn_windows`, a deterministic
  window plan) takes one present client away per window — whichever is
  present, alive and not evicted when the window opens — and brings it
  back when the window ends, through the deployment's one fault
  schedule; the checkpoint chain's member sets alone decide who may sign;
* optional **client faults** (:meth:`repro.sim.faults.Fault.parse` specs,
  the ``--client-faults`` flag) inject crash-forever / crash-restart /
  lease-expiry lifecycles through the deployment's one fault schedule:
  with ``membership=`` on, the quorum evicts a crashed-forever client
  and the checkpoint chain (and the growth ratio) recovers; without it,
  the chain stalls and resident state grows without bound — the
  difference this harness exists to measure.

``repro scale`` (the CLI) runs one configuration and renders the report
as JSON plus a Prometheus-style metrics file; ``benchmarks/
test_bench_scale.py`` pins the growth ratio in the BENCH regression
pipeline; experiment E19 sweeps the checkpoint interval.
"""

from __future__ import annotations

import random
import tracemalloc
from dataclasses import dataclass, field
from typing import Iterable

from repro.api.backends import open_system
from repro.api.config import FaustParams, SystemConfig
from repro.common.errors import ConfigurationError
from repro.consistency.incremental import attach_incremental_checkers
from repro.faust.checkpoint import CheckpointPolicy
from repro.faust.membership import MembershipPolicy
from repro.obs.registry import Histogram, Registry
from repro.sim.faults import Fault, plan_windows
from repro.sim.network import FixedLatency
from repro.workloads.generator import Driver, OpenLoopConfig, generate_open_loop


def plan_churn_windows(
    rng,
    count: int,
    *,
    horizon: float,
    mean_duration: float,
    num_clients: int,
) -> list[Fault]:
    """Plan ``count`` churn windows over ``[0, horizon)``; reject overload.

    Each is an *away* window with no client yet: whichever client is
    eligible when it opens goes away for ``duration``.  Drawn by
    :func:`repro.sim.faults.plan_windows` from ``rng``, so the plan is
    deterministic per seed.  A plan whose windows would take more clients
    offline *concurrently* than the fleet holds cannot be scheduled —
    every offline window needs a distinct client — and raises
    :class:`~repro.common.errors.ConfigurationError` instead of silently
    dropping windows.
    """
    if count < 0:
        raise ConfigurationError(
            f"churn window count must be non-negative, got {count}"
        )
    windows = sorted(
        plan_windows(rng, "away", count, horizon, mean_duration),
        key=lambda window: (window.start, window.duration),
    )
    peak = _max_concurrent(windows)
    if peak > num_clients:
        raise ConfigurationError(
            f"churn plan needs {peak} clients away concurrently but the "
            f"signer set has only {num_clients}: lower --churn-windows (or "
            f"shorten --churn-mean-duration / raise --clients) so "
            f"concurrent churn fits the fleet"
        )
    return windows


def _max_concurrent(windows: Iterable[Fault]) -> int:
    """The largest number of windows open at any instant."""
    events = sorted(
        point
        for window in windows
        for point in ((window.start, 1), (window.end, -1))
    )
    peak = open_now = 0
    for _, delta in events:
        open_now += delta
        peak = max(peak, open_now)
    return peak


@dataclass
class ScaleConfig:
    """One scale-harness run, fully determined by its seed."""

    num_clients: int = 4
    seed: int = 20260730
    open_loop: OpenLoopConfig = field(default_factory=OpenLoopConfig)
    #: ``None`` runs without checkpointing — the unbounded baseline the
    #: growth ratio is compared against.
    checkpoint: CheckpointPolicy | None = None
    #: Lease-based membership (requires ``checkpoint``): the chain
    #: evicts crashed-forever clients so it keeps folding.
    membership: MembershipPolicy | None = None
    latency: float = 1.0
    offline_latency: float = 0.5
    storage: str = "log"
    #: Random churn windows drawn over the schedule horizon (a present
    #: client goes away for each).
    churn_windows: int = 0
    churn_mean_duration: float = 5.0
    #: Client fault specs, ``kind:client@start[+duration]`` — see
    #: :meth:`repro.sim.faults.Fault.parse`.
    client_faults: tuple[str, ...] = ()
    #: Virtual-time cadence of resident-structure samples.
    sample_every: float = 10.0
    #: Leading fraction of samples discarded before the growth ratio
    #: (ramp-up is growth by definition).
    warmup_fraction: float = 0.25
    #: Attach the streaming incremental checkers (their state is one of
    #: the structures checkpointing must bound).
    audit: bool = True
    #: Track Python allocations (tracemalloc) for a bytes/op figure.
    trace_malloc: bool = False
    #: Extra virtual time after the last arrival for queues to drain.
    drain: float = 50.0

    def __post_init__(self) -> None:
        if not self.sample_every > 0:  # NaN fails too
            raise ConfigurationError("sample_every must be positive")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigurationError("warmup_fraction must be in [0, 1)")
        # What run_scale would refuse while setting up is refused here,
        # before anything is built: the deployment, the fault specs (a
        # SimulationError when malformed, a ConfigurationError when they
        # name no client of the fleet) and a churn plan that does not
        # fit the fleet or has no positive, finite mean duration.
        self.system_config()
        for spec in self.client_faults:
            if not 0 <= Fault.parse(spec).target < self.num_clients:
                raise ConfigurationError(
                    f"client fault {spec!r} names a client outside the "
                    f"fleet of {self.num_clients} (0..{self.num_clients - 1})"
                )
        self.churn_plan()

    def system_config(self) -> SystemConfig:
        """The simulated FAUST deployment a run opens."""
        return SystemConfig(
            num_clients=self.num_clients,
            seed=self.seed,
            latency=FixedLatency(self.latency),
            offline_latency=FixedLatency(self.offline_latency),
            storage=self.storage,
            checkpoint=self.checkpoint,
            membership=self.membership,
            # Dummy reads and probes stay ON: under Zipf skew the unpopular
            # registers are rarely read, and stability (hence checkpointing)
            # would stall without the background version exchange.
            faust=FaustParams(),
        )

    def churn_plan(self) -> tuple[random.Random, list[Fault]]:
        """The seeded churn windows, and the stream — continued past the
        plan — that picks each window's client when it opens."""
        rng = random.Random((self.seed << 1) ^ 0xC4A11)
        return rng, plan_churn_windows(
            rng,
            self.churn_windows,
            horizon=self.open_loop.duration,
            mean_duration=self.churn_mean_duration,
            num_clients=self.num_clients,
        )


@dataclass(frozen=True)
class ResidentSample:
    """Sizes of the bounded structures at one instant of virtual time."""

    time: float
    server_pending: int
    wal_bytes: int
    recorder_ops: int
    checker_state: int
    vh_records: int
    stable_notifications: int

    @property
    def bounded_total(self) -> int:
        """The aggregate the growth ratio is computed over (everything
        the checkpoint extension prunes; WAL bytes are tracked separately
        because the engine compacts them on its own snapshot cadence
        too)."""
        return (
            self.server_pending
            + self.recorder_ops
            + self.checker_state
            + self.vh_records
            + self.stable_notifications
        )


@dataclass
class ScaleReport:
    """What one harness run measured."""

    config: ScaleConfig
    planned: int
    completed: int
    duration: float
    throughput: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    latency_max: float
    latency_mean: float
    samples: list[ResidentSample]
    #: mean(bounded_total, second half) / mean(bounded_total, first half)
    #: over post-warmup samples — ~1.0 when state is bounded.
    growth_ratio: float
    checkpoints_installed: int
    server_checkpoints: int
    pending_truncated: int
    recorder_compacted: int
    checker_ok: dict[str, bool]
    failed_clients: int
    #: Member-set changes in the chain: the most any live client installed.
    epoch: int = 0
    #: Clients outside the newest link's member set (live clients' view).
    evicted_clients: tuple[int, ...] = ()
    #: Total re-admissions co-signed across the run (live clients' view).
    rejoins: int = 0
    #: Largest pending-checkpoint stall any live client reports at the end.
    checkpoint_stall_seconds: float = 0.0
    peak_traced_bytes: int | None = None
    bytes_per_op: float | None = None

    def to_dict(self) -> dict:
        """A JSON-ready rendering (CLI output, BENCH details)."""
        return {
            "num_clients": self.config.num_clients,
            "seed": self.config.seed,
            "rate": self.config.open_loop.rate,
            "duration": self.duration,
            "zipf_exponent": self.config.open_loop.zipf_exponent,
            "checkpoint_interval": (
                self.config.checkpoint.interval if self.config.checkpoint else None
            ),
            "planned": self.planned,
            "completed": self.completed,
            "throughput": self.throughput,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "latency_max": self.latency_max,
            "latency_mean": self.latency_mean,
            "growth_ratio": self.growth_ratio,
            "checkpoints_installed": self.checkpoints_installed,
            "server_checkpoints": self.server_checkpoints,
            "pending_truncated": self.pending_truncated,
            "recorder_compacted": self.recorder_compacted,
            "checker_ok": dict(self.checker_ok),
            "failed_clients": self.failed_clients,
            "membership": self.config.membership is not None,
            "epoch": self.epoch,
            "evicted_clients": list(self.evicted_clients),
            "rejoins": self.rejoins,
            "checkpoint_stall_seconds": self.checkpoint_stall_seconds,
            "peak_traced_bytes": self.peak_traced_bytes,
            "bytes_per_op": self.bytes_per_op,
            "final_sample": (
                {
                    "server_pending": self.samples[-1].server_pending,
                    "wal_bytes": self.samples[-1].wal_bytes,
                    "recorder_ops": self.samples[-1].recorder_ops,
                    "checker_state": self.samples[-1].checker_state,
                    "vh_records": self.samples[-1].vh_records,
                    "stable_notifications": self.samples[-1].stable_notifications,
                }
                if self.samples
                else None
            ),
        }

    def publish(self, registry: Registry) -> None:
        """Expose the report as gauges (for ``/metrics`` scraping in CI)."""
        registry.gauge("scale.throughput").set(self.throughput)
        registry.gauge("scale.latency_p50").set(self.latency_p50)
        registry.gauge("scale.latency_p95").set(self.latency_p95)
        registry.gauge("scale.latency_p99").set(self.latency_p99)
        registry.gauge("scale.growth_ratio").set(self.growth_ratio)
        registry.gauge("scale.checkpoints_installed").set(
            self.checkpoints_installed
        )
        registry.gauge("scale.recorder_compacted").set(self.recorder_compacted)
        registry.gauge("scale.epoch").set(self.epoch)
        registry.gauge("scale.evicted_clients").set(len(self.evicted_clients))
        registry.gauge("scale.checkpoint_stall_seconds").set(
            self.checkpoint_stall_seconds
        )
        if self.samples:
            final = self.samples[-1]
            registry.gauge("scale.resident.server_pending").set(
                final.server_pending
            )
            registry.gauge("scale.resident.wal_bytes").set(final.wal_bytes)
            registry.gauge("scale.resident.recorder_ops").set(final.recorder_ops)
            registry.gauge("scale.resident.checker_state").set(
                final.checker_state
            )
            registry.gauge("scale.resident.vh_records").set(final.vh_records)
            registry.gauge("scale.resident.bounded_total").set(
                final.bounded_total
            )
        if self.bytes_per_op is not None:
            registry.gauge("scale.bytes_per_op").set(self.bytes_per_op)


def _checker_state_size(checkers: dict) -> int:
    """Entry count of the incremental checkers' per-register structures."""
    total = 0
    lin = checkers.get("linearizability")
    if lin is not None:
        for state in lin._registers.values():
            total += len(state.writes) + len(state.staircase)
            total += len(state.index_of_value)
    causal = checkers.get("causal")
    if causal is not None:
        for clocks in causal._write_clocks.values():
            total += len(clocks)
    return total


def _take_sample(system, checkers: dict) -> ResidentSample:
    engine = getattr(system.server, "_engine", None)
    wal_bytes = 0
    if engine is not None and hasattr(engine, "medium"):
        wal_bytes = engine.medium.size(engine.WAL)
    return ResidentSample(
        time=system.now,
        server_pending=len(system.server.state.pending),
        wal_bytes=wal_bytes,
        recorder_ops=system.recorder.completed_count + system.recorder.pending_count,
        checker_state=_checker_state_size(checkers),
        vh_records=sum(len(c.vh_records) for c in system.clients),
        stable_notifications=sum(
            len(c.stable_notifications)
            for c in system.clients
            if hasattr(c, "stable_notifications")
        ),
    )


def _growth_ratio(samples: list[ResidentSample], warmup_fraction: float) -> float:
    """Second-half vs first-half mean of the bounded aggregate."""
    start = int(len(samples) * warmup_fraction)
    window = samples[start:]
    if len(window) < 4:
        return 1.0  # too short to split meaningfully
    half = len(window) // 2
    early = window[:half]
    late = window[half:]
    early_mean = sum(s.bounded_total for s in early) / len(early)
    late_mean = sum(s.bounded_total for s in late) / len(late)
    if early_mean <= 0:
        return 1.0 if late_mean <= 0 else float("inf")
    return late_mean / early_mean


def _chains(system) -> list:
    """The checkpoint managers of the live clients (none without
    checkpointing)."""
    return [
        c.checkpoint_manager
        for c in system.clients
        if not c.halted and c.checkpoint_manager is not None
    ]


def _evicted(system) -> tuple[int, ...]:
    """Clients outside the newest link any live client has installed."""
    chains = _chains(system)
    if not chains:
        return ()
    members = max(chains, key=lambda m: m.installed.seq).installed.members
    return tuple(j for j in range(len(system.clients)) if j not in members)


def run_scale(config: ScaleConfig) -> ScaleReport:
    """Run one open-loop scale configuration and measure it.

    Deterministic for a fixed :class:`ScaleConfig` — schedules, churn and
    the simulation all draw from seeded streams, so two runs of the same
    config produce identical latencies and samples.
    """
    system = open_system(config.system_config(), backend="faust")
    checkers = attach_incremental_checkers(system.recorder) if config.audit else {}

    schedules = generate_open_loop(
        config.num_clients, config.open_loop, random.Random(config.seed)
    )
    latency_hist = Histogram()
    driver = Driver(system)
    driver.attach_open_loop_all(
        schedules, on_latency=lambda _client, latency: latency_hist.observe(latency)
    )

    # The clients churn may take away: one that goes away — a churn window
    # or a lease-expiry fault — leaves the set, and rejoins it on return
    # unless the newest installed link has evicted it.
    present = set(range(config.num_clients))

    def _on_away(client: int, away: bool) -> None:
        if away:
            present.discard(client)
        elif client not in _evicted(system):
            present.add(client)

    system.faults.add_listener(_on_away)
    churn_rng, windows = config.churn_plan()

    def _churn_out(duration: float) -> None:
        evicted = _evicted(system)
        eligible = [
            client
            for client in sorted(present)
            if client not in evicted
            and not system.clients[client].halted
            and not system.faults.conflict(Fault("away", client, system.now, duration))
        ]
        if eligible:  # else every client is away, crashed or evicted
            system.faults.away(churn_rng.choice(eligible), duration)

    for window in windows:
        system.scheduler.schedule_at(window.start, _churn_out, window.duration)

    for spec in config.client_faults:
        system.faults.add(Fault.parse(spec))

    tracing = False
    if config.trace_malloc and not tracemalloc.is_tracing():
        tracemalloc.start()
        tracing = True
    try:
        samples: list[ResidentSample] = []
        horizon = config.open_loop.duration
        while system.now < horizon:
            system.run(until=min(system.now + config.sample_every, horizon))
            samples.append(_take_sample(system, checkers))
        system.run(until=horizon + config.drain)
        samples.append(_take_sample(system, checkers))
        peak = None
        if tracemalloc.is_tracing():
            _current, peak = tracemalloc.get_traced_memory()
    finally:
        if tracing:
            tracemalloc.stop()

    planned = driver.stats.total_planned()
    completed = driver.stats.total_completed()
    duration = system.now
    managers = _chains(system)
    return ScaleReport(
        config=config,
        planned=planned,
        completed=completed,
        duration=duration,
        throughput=completed / duration if duration > 0 else 0.0,
        latency_p50=latency_hist.p50,
        latency_p95=latency_hist.p95,
        latency_p99=latency_hist.p99,
        latency_max=latency_hist.max,
        latency_mean=latency_hist.mean,
        samples=samples,
        growth_ratio=_growth_ratio(samples, config.warmup_fraction),
        checkpoints_installed=(
            min(m.installed.seq for m in managers) if managers else 0
        ),
        server_checkpoints=getattr(system.server, "checkpoints_handled", 0),
        pending_truncated=getattr(system.server, "pending_truncated", 0),
        recorder_compacted=system.recorder.compacted_ops,
        checker_ok={name: c.result().ok for name, c in checkers.items()},
        failed_clients=sum(1 for c in system.clients if c.failed),
        epoch=max((m.member_changes for m in managers), default=0),
        evicted_clients=_evicted(system),
        rejoins=max((m.rejoins for m in managers), default=0),
        checkpoint_stall_seconds=max(
            (m.stall_seconds(system.now) for m in managers), default=0.0
        ),
        peak_traced_bytes=peak,
        bytes_per_op=(peak / completed if peak and completed else None),
    )
