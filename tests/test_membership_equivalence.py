"""Membership is a liveness layer, not a semantic.

With ``SystemConfig(membership=...)`` clients lease their signer slots
and a wedged member is eventually voted out through a co-signed link
of the checkpoint chain — but on a fault-free run the layer must be *invisible*: identical
operation outcomes, histories, final versions (vectors AND digest
chains), checker verdicts, stability notifications and even the wire-message
census as the same seeded run with membership off.  The member set
never changes and not one member-change share is sent.

And the detection guarantees must survive the layer in both directions:
a rollback attack is detected in exactly the same phase whether
membership is on or off, and a rollback mounted *after* a member change
(members evicted a crashed peer, the chain moved on) is still detected
by every surviving member — pruned members must not mean pruned
evidence.
"""

from __future__ import annotations

import pytest

from repro.api import (
    CheckpointPolicy,
    FaustParams,
    StabilityNotification,
    SystemConfig,
    open_system,
)
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
    records = []
    system.trace.tap(records.append)
    # The hub keeps no stable_i stream: record it from the start.
    stable = system.notifications.subscribe(kinds=StabilityNotification)
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
    return system, incremental, handles, records, stable


def _collect(system, handles, incremental, records, stable):
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
    stable_cuts = [
        (e.client, e.cut) for e in stable.events
    ]
    verdict = (
        check_linearizability(history).ok,
        check_causal_consistency(history).ok,
    )
    incremental_ok = {
        name: checker.result().ok for name, checker in incremental.items()
    }
    # The trace keeps tallies; the census is built from the tap's
    # records, which an empty list would make vacuously equal.
    assert records, "the tap saw no message"
    census: dict[str, int] = {}
    for record in records:
        census[record.kind] = census.get(record.kind, 0) + 1
    return {
        "outcomes": outcomes,
        "ops": ops,
        "versions": versions,
        "stable_cuts": stable_cuts,
        "verdict": verdict,
        "incremental": incremental_ok,
        "census": census,
    }


def test_membership_on_equals_off_fault_free():
    """Same seed, membership on vs off: byte-identical observable run."""
    seed = 2026
    sys_off, inc_off, handles_off, records_off, stable_off = _run_phases(
        seed, None
    )
    off = _collect(sys_off, handles_off, inc_off, records_off, stable_off)
    sys_on, inc_on, handles_on, records_on, stable_on = _run_phases(
        seed, MEMBERSHIP
    )
    on = _collect(sys_on, handles_on, inc_on, records_on, stable_on)

    assert on["outcomes"] == off["outcomes"]
    assert on["ops"] == off["ops"]
    assert on["versions"] == off["versions"]
    assert on["stable_cuts"] == off["stable_cuts"]
    assert on["verdict"] == off["verdict"] == (True, True)
    assert all(on["incremental"].values())
    assert all(off["incremental"].values())
    # Not one extra message of any kind: no member changes, no rejoins,
    # identical gossip.  The lease layer is pure bookkeeping until a
    # member actually blocks the chain.
    assert on["census"] == off["census"]

    # The layer really was armed: every client carries a ledger, no
    # member change was ever installed, and checkpoints were installed.
    for client in sys_on.clients:
        manager = client.membership_manager
        assert manager is not None
        assert client.checkpoint_manager.member_changes == 0
        assert manager.members == tuple(range(4))
    installs = [c.checkpoint_manager.installed.seq for c in sys_on.clients]
    assert min(installs) >= 3, installs


@pytest.mark.parametrize("membership", (None, MEMBERSHIP))
def test_rollback_detection_is_identical_with_membership(membership):
    """A rollback across installed checkpoints is detected in the same
    phase whether or not the membership layer is armed — and a Byzantine
    server never tricks the quorum into a member change."""
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
    failed = [c for c in system.clients if c.failed]
    assert len(failed) == len(system.clients)
    if membership is not None:
        # fail_i, not eviction: the chain never left genesis.
        changes = {c.checkpoint_manager.member_changes for c in system.clients}
        assert changes == {0}


def test_rollback_after_epoch_change_is_detected():
    """Evict a crashed member, let the chain resume without it, *then*
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
    failed_at = evicted_at = None
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
        if evicted_at is None and any(
            c.checkpoint_manager.member_changes >= 1 for c in live
        ):
            evicted_at = phase
        if system.notifications.failure_events():
            failed_at = phase
            break
    assert evicted_at is not None, "crashed member was never evicted"
    assert failed_at is not None, "rollback went undetected"
    assert evicted_at < failed_at, (evicted_at, failed_at)
    live = [c for c in system.clients if not c.crashed]
    # The survivors evicted the crashed member (one member change, three
    # names on the roll) and then, co-signing without it, every one of
    # them caught the fold.
    for client in live:
        assert client.checkpoint_manager.member_changes == 1
        assert client.membership_manager.members == (0, 1, 2)
    assert all(c.failed for c in live)
    assert not crashed.failed  # crashed, not fooled
