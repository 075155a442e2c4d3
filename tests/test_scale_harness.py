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

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.faust.checkpoint import CheckpointPolicy
from repro.workloads.generator import (
    OpenLoopConfig,
    ZipfSampler,
    generate_open_loop,
)
from repro.workloads.scale import ScaleConfig, ScaleReport, run_scale

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
    with pytest.raises(ConfigurationError):
        OpenLoopConfig(read_fraction=1.5)
    with pytest.raises(ConfigurationError):
        OpenLoopConfig(value_size=0)


def test_scale_config_validation():
    with pytest.raises(ConfigurationError):
        ScaleConfig(sample_every=0.0)
    with pytest.raises(ConfigurationError):
        ScaleConfig(warmup_fraction=1.0)


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
