"""Fleet-level membership robustness under injected client faults.

The acceptance runs for the membership layer, driven through the scale
harness (``repro scale --client-faults``): a crashed-forever client is
evicted and the checkpoint chain (and the bounded-state growth ratio)
recovers; a crash-restart inside the lease window is never evicted; a
lease-expiry-then-return client rejoins through a fresh epoch without a
single false ``fail``; and the stall gauge names who is blocking.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.faust.checkpoint import CheckpointPolicy
from repro.faust.membership import MembershipPolicy
from repro.workloads.generator import OpenLoopConfig
from repro.workloads.scale import ScaleConfig, run_scale

SEED = 20260807


def _config(**overrides) -> ScaleConfig:
    defaults = dict(
        num_clients=4,
        seed=SEED,
        open_loop=OpenLoopConfig(rate=0.5, duration=400.0),
        checkpoint=CheckpointPolicy(interval=8, keep_tail=2),
        membership=MembershipPolicy(),
        sample_every=20.0,
    )
    defaults.update(overrides)
    return ScaleConfig(**defaults)


def test_crash_forever_is_evicted_and_the_chain_resumes():
    report = run_scale(_config(client_faults=("crash-forever:2@120",)))
    # The quorum noticed, evicted, and kept checkpointing: the chain is
    # well past where it stood at the crash.
    assert report.epoch == 1
    assert report.evicted_clients == (2,)
    assert report.checkpoints_installed >= 10
    # Eviction is membership, not failure: no fail_i was ever raised and
    # the verdicts are clean.
    assert report.failed_clients == 0
    assert report.checker_ok == {"linearizability": True, "causal": True}
    # Post-eviction the resident state is bounded again.
    assert report.growth_ratio <= 1.1, report.growth_ratio
    # The final stall is bounded by the eviction lag, not the run length.
    assert report.checkpoint_stall_seconds < 150.0


def test_crash_forever_without_membership_stalls_unboundedly():
    """The baseline the tentpole exists to beat: same fault, membership
    off — the chain wedges at the crash and resident state grows."""
    report = run_scale(_config(membership=None, client_faults=("crash-forever:2@120",)))
    assert report.epoch == 0
    assert report.evicted_clients == ()
    # A handful of installs before the crash, then nothing.
    assert report.checkpoints_installed <= 8
    assert report.growth_ratio > 1.1, report.growth_ratio
    # The stall clock has been running since shortly after the crash.
    assert report.checkpoint_stall_seconds > 150.0
    assert report.failed_clients == 0  # a stall is not a fork


def test_membership_beats_baseline_on_the_same_fault():
    on = run_scale(_config(client_faults=("crash-forever:2@120",)))
    off = run_scale(_config(membership=None, client_faults=("crash-forever:2@120",)))
    assert on.checkpoints_installed > 2 * off.checkpoints_installed
    assert on.growth_ratio < off.growth_ratio
    assert on.samples[-1].bounded_total < off.samples[-1].bounded_total


def test_crash_restart_within_lease_is_never_evicted():
    report = run_scale(_config(client_faults=("crash-restart:1@120+30",)))
    assert report.epoch == 0
    assert report.evicted_clients == ()
    assert report.failed_clients == 0
    assert report.checkpoints_installed >= 10
    assert report.checker_ok == {"linearizability": True, "causal": True}


def test_lease_expiry_then_return_rejoins_without_false_fail():
    report = run_scale(_config(client_faults=("lease-expiry:1@100+200",)))
    # Evicted while away, re-admitted on return: the epoch chain shows
    # both transitions and the final member set is whole again.
    assert report.epoch == 2
    assert report.rejoins >= 1
    assert report.evicted_clients == ()
    # The critical property: a stale-but-honest returnee is never a
    # false fork.
    assert report.failed_clients == 0
    assert report.checker_ok == {"linearizability": True, "causal": True}
    assert report.checkpoints_installed >= 10


def test_client_faults_require_well_formed_specs():
    from repro.common.errors import SimulationError

    with pytest.raises(SimulationError):
        run_scale(_config(client_faults=("crash-forever:nope@10",)))


def test_churn_windows_exceeding_signer_set_are_rejected():
    with pytest.raises(ConfigurationError) as excinfo:
        run_scale(
            _config(
                num_clients=2,
                churn_windows=40,
                churn_mean_duration=60.0,
            )
        )
    assert "signer set" in str(excinfo.value)
    assert "--churn-windows" in str(excinfo.value)
