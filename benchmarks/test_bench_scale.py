"""Scale-harness regression: bounded state must not cost throughput.

The open-loop harness (``repro.workloads.scale``) drives the FAUST
system with Poisson arrivals and samples resident state; this bench runs
the same seeded workload with checkpointing on and off.  Checkpointing
trades a handful of offline-channel messages for unbounded memory, so
the wall-clock ratio hovers near 1 and mostly measures scheduler noise;
what is asserted here are the structural findings, which hold on any
machine:

* checkpointing keeps the post-warmup growth ratio of the resident
  aggregate near 1 while the uncheckpointed run keeps growing;
* operation latency percentiles are identical — the checkpoint protocol
  rides the offline channel and never touches the data path;
* both runs complete the full planned schedule with clean checkers.

The companion membership test checks the lease layer the same way: the
identical checkpointed workload with membership on vs off.
Fault-free, the lease bookkeeping rides the existing membership tick and
co-signs nothing; the asserted findings are that no member change is
installed (the report's ``epoch`` stays 0),
nobody is evicted, and the checkpoint chain and latency percentiles are
untouched.
"""

from __future__ import annotations

from repro.faust.checkpoint import CheckpointPolicy
from repro.faust.membership import MembershipPolicy
from repro.workloads.generator import OpenLoopConfig
from repro.workloads.scale import ScaleConfig, run_scale


def _config(bench_seed: int, checkpoint, membership=None) -> ScaleConfig:
    return ScaleConfig(
        num_clients=4,
        seed=bench_seed,
        open_loop=OpenLoopConfig(rate=0.15, duration=400.0),
        checkpoint=checkpoint,
        membership=membership,
        sample_every=20.0,
    )


def test_scale_open_loop_bounded_state(bench_seed):
    off = run_scale(_config(bench_seed, None))
    on = run_scale(
        _config(bench_seed, CheckpointPolicy(interval=16, keep_tail=2))
    )

    # Structural findings — machine-independent, asserted every run.
    assert on.checkpoints_installed >= 10
    assert on.growth_ratio < off.growth_ratio
    assert on.samples[-1].bounded_total < off.samples[-1].bounded_total
    assert (on.latency_p50, on.latency_p95, on.latency_p99) == (
        off.latency_p50, off.latency_p95, off.latency_p99
    )
    assert on.completed == on.planned == off.completed
    assert on.checker_ok == off.checker_ok == {
        "linearizability": True, "causal": True
    }
    assert on.failed_clients == off.failed_clients == 0


def test_scale_membership_overhead(bench_seed):
    policy = CheckpointPolicy(interval=16, keep_tail=2)
    off = run_scale(_config(bench_seed, policy))
    on = run_scale(_config(bench_seed, policy, MembershipPolicy()))

    # Fault-free, the lease layer must be invisible: no member changes,
    # no evictions, and a checkpoint chain / latency profile identical to
    # the membership-off run.
    assert on.epoch == 0 and on.evicted_clients == ()
    assert on.checkpoints_installed == off.checkpoints_installed >= 10
    assert (on.latency_p50, on.latency_p95, on.latency_p99) == (
        off.latency_p50, off.latency_p95, off.latency_p99
    )
    assert on.completed == on.planned == off.completed
    assert on.checker_ok == off.checker_ok == {
        "linearizability": True, "causal": True
    }
    assert on.failed_clients == off.failed_clients == 0
