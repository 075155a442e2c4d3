"""Fleet-level membership robustness under injected client faults.

The acceptance runs for the membership layer, driven through the scale
harness (``repro scale --client-faults``): a crashed-forever client is
evicted and the checkpoint chain (and the bounded-state growth ratio)
recovers; a crash-restart inside the lease window is never evicted; a
lease-expiry-then-return client rejoins through a link that adds it
back without a single false ``fail``; and the stall gauge names who is
blocking.  A hypothesis property runs churn plus at most one
crash-forever and checks the chain itself: no ``fail``, live clients'
archived links agree, and only absent clients end up evicted.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.faust.checkpoint import CheckpointPolicy
from repro.faust.membership import MembershipPolicy
from repro.workloads import scale
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
    # Evicted while away, re-admitted on return: the chain shows both
    # member changes and the final member set is whole again.
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


# --------------------------------------------------------------------- #
# The chain property under churn: one chain, no false fail, no wrong evictee
# --------------------------------------------------------------------- #


def _churned_run(seed, windows, mean_duration, crash):
    """One 4-client scale run with ``windows`` churn windows and at most
    one crash-forever; returns the report, the system, and the clients
    that went away or crashed, and those away at the end."""
    runs = []
    absent: set[int] = set()
    away_now: set[int] = set()
    scale_open = scale.open_system

    def open_and_watch(*args, **kwargs):
        system = scale_open(*args, **kwargs)

        def note(client: int, away: bool) -> None:
            (away_now.add if away else away_now.discard)(client)
            absent.add(client)

        system.faults.add_listener(note)
        runs.append(system)
        return system

    faults = ()
    if crash is not None:
        client, at = crash
        faults = (f"crash-forever:{client}@{at}",)
        absent.add(client)
    try:
        config = _config(
            seed=seed,
            open_loop=OpenLoopConfig(rate=0.5, duration=300.0),
            churn_windows=windows,
            churn_mean_duration=mean_duration,
            client_faults=faults,
        )
    except ConfigurationError:
        reject()  # more windows at once than the fleet has clients
    with mock.patch.object(scale, "open_system", open_and_watch):
        report = run_scale(config)
    (system,) = runs
    return report, system, absent, away_now


def _check_chain_property(seed, windows, mean_duration, crash):
    report, system, absent, away_now = _churned_run(
        seed, windows, mean_duration, crash
    )
    assert report.failed_clients == 0
    assert not system.notifications.failure_events()
    assert set(report.evicted_clients) <= absent, (report.evicted_clients, absent)
    # A link installed here may still be superseded by shares in flight:
    # silence every client's checks and let the offline mail land.
    for client in system.clients:
        client.stop_timers()
    system.run(until=system.now + 50.0)
    assert not system.notifications.failure_events()
    live = [
        c.checkpoint_manager
        for c in system.clients
        if not c.crashed and not c.halted and c.client_id not in away_now
    ]
    for first in live:
        for second in live:
            for seq in first._recent.keys() & second._recent.keys():
                assert first._recent[seq] == second._recent[seq], seq


_CHURN = dict(
    seed=st.integers(0, 10_000),
    windows=st.integers(0, 6),
    mean_duration=st.sampled_from([20.0, 60.0, 150.0]),
    crash=st.none() | st.tuples(st.integers(0, 3), st.sampled_from([60.0, 180.0])),
)


@settings(max_examples=4, deadline=None, derandomize=True)
@given(**_CHURN)
# An eviction and a re-admission under churn, and a crashed-forever
# member evicted while the others churn.
@example(seed=2, windows=2, mean_duration=150.0, crash=(3, 180.0))
@example(seed=4, windows=3, mean_duration=60.0, crash=(1, 60.0))
# A removal completed late at its last signer after the others went on:
# that signer catches up.
@example(seed=381829, windows=5, mean_duration=150.0, crash=None)
def test_chain_agrees_under_churn_and_evicts_only_the_absent(
    seed, windows, mean_duration, crash
):
    _check_chain_property(seed, windows, mean_duration, crash)


@pytest.mark.fuzz
@pytest.mark.slow
@settings(max_examples=40, deadline=None)
@given(**_CHURN)
def test_chain_property_sweep(seed, windows, mean_duration, crash):
    _check_chain_property(seed, windows, mean_duration, crash)
