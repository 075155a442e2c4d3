"""The open-loop scale harness: generators, driver, churn, bounded state.

Everything here is deterministic under a pinned seed — the Poisson/Zipf
schedules, the open-loop driver's issue times, and whole
:func:`repro.workloads.scale.run_scale` reports replay identically.  The
headline property (the reason the harness exists) is the slow-tier
``test_checkpointing_bounds_resident_state``: across 20+ checkpoint
intervals of sustained load, every resident structure stays O(active
window) with checkpointing on, while the same seeded run without it
grows without bound — at identical operation latencies.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.api import SystemConfig, open_system
from repro.api.backends import build_deployment
from repro.baselines.lockstep import lockstep_protocol
from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.faust.checkpoint import CheckpointPolicy
from repro.sim.faults import Fault, plan_windows
from repro.workloads.generator import (
    Driver,
    OpenLoopConfig,
    ZipfSampler,
    generate_open_loop,
)
from repro.workloads.scale import (
    ScaleConfig,
    ScaleReport,
    _max_concurrent,
    plan_churn_windows,
    run_scale,
)

SEED = 20260730


# --------------------------------------------------------------------- #
# Generators
# --------------------------------------------------------------------- #


def test_zipf_sampler_is_skewed_and_deterministic():
    sampler = ZipfSampler(16, exponent=1.0)
    counts = [0] * 16
    rng = random.Random(SEED)
    for _ in range(4000):
        counts[sampler.sample(rng)] += 1
    # Zipf(1): item 0 beats the mid-rank items by a wide margin.
    assert counts[0] > 3 * counts[7]
    assert counts[0] > counts[1] > counts[15]
    replay = [ZipfSampler(16, exponent=1.0).sample(random.Random(SEED))
              for _ in range(1)]
    assert replay[0] == ZipfSampler(16, exponent=1.0).sample(random.Random(SEED))


def test_zipf_exponent_zero_is_uniform():
    sampler = ZipfSampler(8, exponent=0.0)
    counts = [0] * 8
    rng = random.Random(1)
    for _ in range(8000):
        counts[sampler.sample(rng)] += 1
    assert max(counts) < 2 * min(counts)


def test_zipf_sampler_validation():
    with pytest.raises(ConfigurationError):
        ZipfSampler(0)
    with pytest.raises(ConfigurationError):
        ZipfSampler(4, exponent=-0.5)
    with pytest.raises(ConfigurationError):
        ZipfSampler(4, exponent=float("nan"))
    with pytest.raises(ConfigurationError, match="zipf_exponent"):
        OpenLoopConfig(zipf_exponent=float("nan"))


def test_open_loop_schedule_shape():
    config = OpenLoopConfig(rate=0.5, duration=200.0, read_fraction=0.5)
    schedules = generate_open_loop(4, config, random.Random(SEED))
    assert len(schedules) == 4
    for client, schedule in schedules.items():
        assert schedule, "empty schedule at a 0.5 ops/unit rate"
        times = [op.at for op in schedule]
        assert times == sorted(times)
        assert all(0 <= t < 200.0 for t in times)
        for op in schedule:
            if op.value is not None:
                assert op.register == client  # SWMR: writes own register
            else:
                assert 0 <= op.register < 4
        # Poisson(0.5 * 200) = 100 expected arrivals per client.
        assert 50 <= len(schedule) <= 160
    reads = sum(
        1 for s in schedules.values() for op in s if op.value is None
    )
    total = sum(len(s) for s in schedules.values())
    assert 0.35 <= reads / total <= 0.65


def test_open_loop_schedule_is_deterministic():
    config = OpenLoopConfig(rate=1.0, duration=50.0)
    first = generate_open_loop(3, config, random.Random(99))
    second = generate_open_loop(3, config, random.Random(99))
    assert first == second
    different = generate_open_loop(3, config, random.Random(100))
    assert first != different


def test_open_loop_config_validation():
    with pytest.raises(ConfigurationError):
        OpenLoopConfig(rate=0.0)
    with pytest.raises(ConfigurationError):
        OpenLoopConfig(duration=-1.0)
    for knob in ("rate", "duration"):
        with pytest.raises(ConfigurationError):
            OpenLoopConfig(**{knob: float("nan")})
        # An infinite rate draws zero interarrivals forever; an infinite
        # duration never ends the schedule.
        with pytest.raises(ConfigurationError, match="finite"):
            OpenLoopConfig(**{knob: float("inf")})
    with pytest.raises(ConfigurationError):
        OpenLoopConfig(read_fraction=1.5)
    with pytest.raises(ConfigurationError):
        OpenLoopConfig(value_size=0)


def test_scale_config_validation():
    with pytest.raises(ConfigurationError):
        ScaleConfig(sample_every=0.0)
    with pytest.raises(ConfigurationError):
        ScaleConfig(warmup_fraction=1.0)
    # NaN passed ``sample_every <= 0`` and hung the sampling loop.
    with pytest.raises(ConfigurationError):
        ScaleConfig(sample_every=float("nan"))


@pytest.mark.parametrize("mean", [0.0, -1.0, float("inf"), float("nan")])
def test_churn_mean_duration_must_be_positive_and_finite(mean):
    with pytest.raises(ConfigurationError, match="mean duration"):
        plan_windows(random.Random(1), "away", 2, 20.0, mean)
    with pytest.raises(ConfigurationError, match="mean duration"):
        ScaleConfig(churn_windows=2, churn_mean_duration=mean)


# --------------------------------------------------------------------- #
# Churn planning
# --------------------------------------------------------------------- #


def test_churn_plan_is_deterministic_and_sane():
    a = plan_churn_windows(
        random.Random(11), 20, horizon=500.0, mean_duration=5.0, num_clients=40
    )
    b = plan_churn_windows(
        random.Random(11), 20, horizon=500.0, mean_duration=5.0, num_clients=40
    )
    assert a == b
    assert len(a) == 20
    assert all(0.0 <= w.start < 500.0 for w in a)
    assert all(w.duration >= 1.0 for w in a)
    assert a == sorted(a, key=lambda w: (w.start, w.duration))


def test_churn_plan_rejects_concurrent_overload():
    with pytest.raises(ConfigurationError, match="churn plan"):
        plan_churn_windows(
            random.Random(3), 50, horizon=10.0, mean_duration=60.0, num_clients=2
        )


def test_churn_plan_rejects_negative_count():
    with pytest.raises(ConfigurationError, match="non-negative"):
        plan_churn_windows(
            random.Random(3), -1, horizon=10.0, mean_duration=1.0, num_clients=2
        )


def test_max_concurrent_counts_overlap():
    windows = [
        Fault("away", None, 0.0, 10.0),
        Fault("away", None, 5.0, 10.0),
        Fault("away", None, 20.0, 1.0),
    ]
    assert _max_concurrent(windows) == 2
    assert _max_concurrent([]) == 0
    assert windows[0].end == 10.0


# --------------------------------------------------------------------- #
# The open-loop driver
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "backend, knobs",
    [
        ("faust", {}),
        ("ustor", {}),
        ("lockstep", {}),
        ("cluster", {"shards": 2, "shard_protocol": "ustor"}),
    ],
    ids=["faust", "ustor", "lockstep", "cluster-ustor"],
)
def test_open_loop_driver_completes_every_arrival(backend, knobs):
    """Arrivals overlap in-flight operations; each client queues them and
    runs one operation at a time (they used to raise ProtocolError out of
    the event loop) — the blocking lock-step baseline, built by
    ``build_deployment``, included."""
    config = SystemConfig(num_clients=3, seed=SEED, **knobs)
    if backend == "lockstep":
        system = build_deployment(config, lockstep_protocol())
    else:
        system = open_system(config, backend=backend)
    schedules = generate_open_loop(
        3, OpenLoopConfig(rate=0.5, duration=40.0), random.Random(SEED)
    )
    latencies = []
    driver = Driver(system)
    driver.attach_open_loop_all(
        schedules, on_latency=lambda _client, latency: latencies.append(latency)
    )
    system.run(until=400.0)
    planned = driver.stats.total_planned()
    assert planned > 0
    assert driver.stats.total_completed() == planned == len(latencies)
    assert min(latencies) > 0


# --------------------------------------------------------------------- #
# The harness end to end
# --------------------------------------------------------------------- #


def _quick(checkpoint=None, **overrides) -> ScaleConfig:
    return ScaleConfig(
        num_clients=4,
        seed=SEED,
        open_loop=OpenLoopConfig(rate=0.15, duration=250.0),
        checkpoint=checkpoint,
        sample_every=25.0,
        **overrides,
    )


def test_run_scale_replays_identically():
    first = run_scale(_quick(CheckpointPolicy(interval=16, keep_tail=2)))
    second = run_scale(_quick(CheckpointPolicy(interval=16, keep_tail=2)))
    assert first.samples == second.samples
    assert (first.latency_p50, first.latency_p99, first.latency_mean) == (
        second.latency_p50, second.latency_p99, second.latency_mean
    )
    assert first.to_dict() == second.to_dict()
    assert first.completed == first.planned  # underloaded: everything lands
    assert first.checker_ok == {"linearizability": True, "causal": True}
    assert first.failed_clients == 0


def test_run_scale_smoke_with_checkpointing():
    report = run_scale(_quick(CheckpointPolicy(interval=16, keep_tail=2)))
    assert isinstance(report, ScaleReport)
    assert report.checkpoints_installed >= 5
    assert report.server_checkpoints >= 5
    assert report.recorder_compacted > 0
    assert report.throughput > 0
    # The report is JSON-ready and publishes to a registry.
    from repro.obs.registry import Registry

    rendered = report.to_dict()
    assert rendered["checkpoint_interval"] == 16
    registry = Registry()
    report.publish(registry)
    assert registry.gauge("scale.checkpoints_installed").value >= 5
    assert registry.gauge("scale.growth_ratio").value == report.growth_ratio


def test_churned_clients_rejoin_and_checkpointing_resumes():
    """Client churn defers the offline channel, so co-signing stalls
    while anyone is away — and must pick the chain back up after the
    rejoin rather than wedging the run."""
    churned = run_scale(
        _quick(
            CheckpointPolicy(interval=16, keep_tail=2),
            churn_windows=2,
            churn_mean_duration=10.0,
        )
    )
    smooth = run_scale(_quick(CheckpointPolicy(interval=16, keep_tail=2)))
    assert churned.failed_clients == 0
    assert churned.checker_ok == {"linearizability": True, "causal": True}
    # Checkpointing survived the churn: installs happened, and ops kept
    # completing (pausing stops a client's timers, not its queue).
    assert churned.checkpoints_installed >= 3
    assert churned.recorder_compacted > 0
    assert churned.completed == churned.planned
    # Churn can only delay installs, never add them.
    assert churned.checkpoints_installed <= smooth.checkpoints_installed


#: ``repro scale`` reports pinned by SHA-256 of ``json.dumps(report,
#: sort_keys=True)``: churn, eviction, return and crash-forever, with and
#: without membership.
SCALE_REPORTS = {
    "churn-lease-expiry": (
        "--clients 4 --rate 0.3 --duration 400 --checkpoint-interval 8 "
        "--membership --churn-windows 6 --client-faults lease-expiry:1@100+200",
        "85f594f28234fb4b85dc8ecf089f8da7446149047a5f5cc8722cef4eab4bff2f",
    ),
    "churn-expiry-crash": (
        "--clients 5 --rate 0.4 --duration 600 --checkpoint-interval 8 "
        "--membership --churn-windows 20 --churn-mean-duration 40 "
        "--client-faults lease-expiry:2@50+300 --client-faults crash-forever:3@400",
        "2c632d56c609b1cb4d464743d5d47562d3c4de5a5a02f129c90c475a0a5faa8e",
    ),
    "churn-crash-forever": (
        "--clients 4 --rate 0.5 --duration 400 --checkpoint-interval 8 "
        "--membership --client-faults crash-forever:2@120 --churn-windows 10",
        "45d29f3f1217cbfe2ac8df81926fe927e722861147f51a7aece952a8ef7a38a0",
    ),
    "churn-unbounded": (
        "--clients 6 --rate 0.2 --duration 800 --churn-windows 40 "
        "--churn-mean-duration 20",
        "3472828c7584f2d26d782abc5ada6cdfe4cf5329b3e4c819e64e1776edb30133",
    ),
}


@pytest.mark.parametrize("name", sorted(SCALE_REPORTS))
def test_scale_report_is_pinned(name, tmp_path, capsys):
    flags, digest = SCALE_REPORTS[name]
    path = tmp_path / "report.json"
    assert main(["scale", "--json", str(path), *flags.split()]) == 0
    report = json.loads(path.read_text())
    rendered = json.dumps(report, sort_keys=True).encode()
    assert hashlib.sha256(rendered).hexdigest() == digest, report


@pytest.mark.slow
def test_checkpointing_bounds_resident_state():
    """The acceptance run: 20+ checkpoint intervals of open-loop load.

    With checkpointing the resident aggregate (server pending + recorder
    + checkers + view histories + notifications) stays flat — post-warmup
    growth ratio ~1 — while the identical seeded run without it keeps
    growing.  Latency percentiles are identical: bounded state is free.
    """
    base = dict(
        num_clients=4,
        seed=SEED,
        open_loop=OpenLoopConfig(rate=0.15, duration=800.0),
        sample_every=20.0,
    )
    off = run_scale(ScaleConfig(**base, checkpoint=None))
    on = run_scale(
        ScaleConfig(**base, checkpoint=CheckpointPolicy(interval=16, keep_tail=2))
    )

    assert on.checkpoints_installed >= 20, on.checkpoints_installed
    assert on.server_checkpoints >= 20
    assert on.recorder_compacted > 0
    # Identical load and identical latencies: the extension is off the
    # data path entirely (offline channel + local pruning only).
    assert (on.planned, on.completed) == (off.planned, off.completed)
    assert on.completed == on.planned
    assert (on.latency_p50, on.latency_p95, on.latency_p99, on.latency_max) == (
        off.latency_p50, off.latency_p95, off.latency_p99, off.latency_max
    )
    # Bounded vs unbounded, same run length.
    assert on.growth_ratio < 1.25, on.growth_ratio
    assert off.growth_ratio > 1.5, off.growth_ratio
    assert on.samples[-1].bounded_total * 3 < off.samples[-1].bounded_total
    # Nothing pathological happened along the way.
    assert on.checker_ok == off.checker_ok == {
        "linearizability": True, "causal": True
    }
    assert on.failed_clients == off.failed_clients == 0
