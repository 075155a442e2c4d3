"""Membership is a liveness layer, not a semantic.

With ``SystemConfig(membership=...)`` clients lease their signer slots
and a wedged member is eventually voted out through a co-signed epoch
chain — but on a fault-free run the layer must be *invisible*: identical
operation outcomes, histories, final versions (vectors AND digest
chains), checker verdicts, stability counts and even the wire-message
census as the same seeded run with membership off.  The epoch chain
stays at genesis and not one epoch share is sent.

And the detection guarantees must survive the layer in both directions:
a rollback attack is detected in exactly the same phase whether
membership is on or off, and a rollback mounted *after* an epoch change
(members evicted a crashed peer, the chain moved on) is still detected
by every surviving member — pruned members must not mean pruned
evidence.
"""

from __future__ import annotations

import pytest

from repro.api import CheckpointPolicy, FaustParams, SystemConfig, open_system
from repro.consistency import (
    attach_incremental_checkers,
    check_causal_consistency,
    check_linearizability,
)
from repro.faust.membership import MembershipPolicy
from repro.sim.network import FixedLatency
from repro.ustor.byzantine import RollbackServer
from repro.workloads.generator import unique_value

#: interval=16 with 4 clients * 2 ops * 24 phases gives a dozen installs.
POLICY = CheckpointPolicy(interval=16, keep_tail=2)
MEMBERSHIP = MembershipPolicy()


def _config(seed: int, membership, **overrides) -> SystemConfig:
    return SystemConfig(
        num_clients=4,
        seed=seed,
        latency=FixedLatency(1.0),
        offline_latency=FixedLatency(0.5),
        storage="log",
        checkpoint=POLICY,
        membership=membership,
        # Dummy reads stay off (they would touch the server and change
        # the byte-level schedule between runs); probes are offline-only
        # VERSION gossip and keep stability advancing.
        faust=FaustParams(
            enable_dummy_reads=False,
            enable_probes=True,
            probe_check_period=2.0,
        ),
        **overrides,
    )


def _open(seed: int, membership, **overrides):
    system = open_system(_config(seed, membership, **overrides), backend="faust")
    incremental = attach_incremental_checkers(system.recorder)
    return system, incremental


def _run_phases(seed: int, membership, phases: int = 24):
    """Each phase: every client writes, then reads round-robin."""
    system, incremental = _open(seed, membership)
    sessions = system.sessions()
    handles = []
    for phase in range(phases):
        for client, session in enumerate(sessions):
            handles.append(session.write(unique_value(client, phase, 20)))
            handles.append(session.read((client + phase) % len(sessions)))
            system.run(until=system.now + 0.013)  # stagger: no ties
        for session in sessions:
            session.barrier(timeout=50_000)
        system.run(until=system.now + 0.1)
    system.run(until=system.now + 20.0)  # let shares in flight settle
    return system, incremental, handles


def _collect(system, handles, incremental):
    outcomes = [
        (h.kind, h.register,
         bytes(h.result().value) if isinstance(h.result().value, bytes)
         else h.result().value,
         h.result().timestamp)
        for h in handles
    ]
    history = system.recorder.history().complete()
    ops = [
        (op.client, op.kind, op.register,
         bytes(op.value) if isinstance(op.value, bytes) else op.value,
         op.timestamp, round(op.invoked_at, 6), round(op.responded_at, 6))
        for client in history.clients()
        for op in history.restrict_to_client(client)
    ]
    versions = [
        (tuple(c.version.vector), c.version.digests) for c in system.clients
    ]
    stable_totals = [c.stable_notifications_total for c in system.clients]
    verdict = (
        check_linearizability(history).ok,
        check_causal_consistency(history).ok,
    )
    incremental_ok = {
        name: checker.result().ok for name, checker in incremental.items()
    }
    census: dict[str, int] = {}
    for record in system.trace.messages:
        census[record.kind] = census.get(record.kind, 0) + 1
    return {
        "outcomes": outcomes,
        "ops": ops,
        "versions": versions,
        "stable_totals": stable_totals,
        "verdict": verdict,
        "incremental": incremental_ok,
        "census": census,
    }


def test_membership_on_equals_off_fault_free():
    """Same seed, membership on vs off: byte-identical observable run."""
    seed = 2026
    sys_off, inc_off, handles_off = _run_phases(seed, None)
    off = _collect(sys_off, handles_off, inc_off)
    sys_on, inc_on, handles_on = _run_phases(seed, MEMBERSHIP)
    on = _collect(sys_on, handles_on, inc_on)

    assert on["outcomes"] == off["outcomes"]
    assert on["ops"] == off["ops"]
    assert on["versions"] == off["versions"]
    assert on["stable_totals"] == off["stable_totals"]
    assert on["verdict"] == off["verdict"] == (True, True)
    assert all(on["incremental"].values())
    assert all(off["incremental"].values())
    # Not one extra message of any kind: no epoch shares, no announces,
    # identical gossip.  The lease layer is pure bookkeeping until a
    # member actually blocks the chain.
    assert on["census"] == off["census"]

    # The layer really was armed: every client carries a manager, all at
    # genesis with the full member set, and checkpoints were installed.
    for client in sys_on.clients:
        manager = client.membership_manager
        assert manager is not None
        assert manager.epoch.epoch == 0
        assert manager.epoch.members == tuple(range(4))
    installs = [c.checkpoint_manager.installed.seq for c in sys_on.clients]
    assert min(installs) >= 3, installs


@pytest.mark.parametrize("membership", (None, MEMBERSHIP))
def test_rollback_detection_is_identical_with_membership(membership):
    """A rollback across installed checkpoints is detected in the same
    phase whether or not the membership layer is armed — and a Byzantine
    server never tricks the quorum into an epoch change."""
    seed = 4242
    factory = lambda n, name: RollbackServer(  # noqa: E731
        n,
        snapshot_after_submits=12,
        rollback_after_submits=113,
        outage=1.0,
        name=name,
    )
    system, _inc = _open(seed, membership, server_factory=factory)
    sessions = system.sessions()
    failed_at = None
    for phase in range(24):
        for client, session in enumerate(sessions):
            try:
                session.write(unique_value(client, phase, 20))
                session.read((client + phase) % len(sessions))
            except Exception:  # noqa: BLE001 - failed sessions refuse ops
                pass
            system.run(until=system.now + 0.013)
        system.run(until=system.now + 8.0)
        if system.notifications.failure_events():
            failed_at = phase
            break
    assert failed_at == 14, failed_at
    failed = [c for c in system.clients if getattr(c, "faust_failed", False)]
    assert len(failed) == len(system.clients)
    if membership is not None:
        # fail_i, not eviction: the chain never left genesis.
        epochs = {c.membership_manager.epoch.epoch for c in system.clients}
        assert epochs == {0}


def test_rollback_after_epoch_change_is_detected():
    """Evict a crashed member, let the chain resume at epoch 1, *then*
    roll the server back: every surviving member still detects it."""
    seed = 1337
    factory = lambda n, name: RollbackServer(  # noqa: E731
        n,
        snapshot_after_submits=12,
        rollback_after_submits=135,
        outage=1.0,
        name=name,
    )
    system, _inc = _open(seed, MEMBERSHIP, server_factory=factory)
    crashed = system.clients[3]
    system.scheduler.schedule_at(30.0, crashed.crash)
    sessions = system.sessions()
    failed_at = epoch_changed_at = None
    for phase in range(40):
        for client, session in enumerate(sessions):
            try:
                session.write(unique_value(client, phase, 20))
                session.read((client + phase) % len(sessions))
            except Exception:  # noqa: BLE001 - crashed/failed refuse ops
                pass
            system.run(until=system.now + 0.013)
        system.run(until=system.now + 8.0)
        live = [c for c in system.clients if not c.crashed]
        if epoch_changed_at is None and any(
            c.membership_manager.epoch.epoch >= 1 for c in live
        ):
            epoch_changed_at = phase
        if system.notifications.failure_events():
            failed_at = phase
            break
    assert epoch_changed_at is not None, "crashed member was never evicted"
    assert failed_at is not None, "rollback went undetected"
    assert epoch_changed_at < failed_at, (epoch_changed_at, failed_at)
    live = [c for c in system.clients if not c.crashed]
    # The survivors evicted the crashed member (epoch 1, three names on
    # the roll) and then, operating under the new epoch, every one of
    # them caught the fold.
    for client in live:
        assert client.membership_manager.epoch.epoch == 1
        assert client.membership_manager.epoch.members == (0, 1, 2)
    assert all(c.faust_failed for c in live)
    assert not crashed.faust_failed  # crashed, not fooled
