#!/usr/bin/env python3
"""The rollback attack: why persistence needs fail-awareness.

A production untrusted store must persist its state — and persistence is
an attack surface the wire protocol never sees.  A provider that restores
last night's backup after a "crash" serves every client a consistent,
correctly-signed view of *the past*: no signature is forged, no message
malformed.  What gives it away is the version logic (Definition 7): the
restored server presents versions that no longer dominate what the
clients themselves committed.

This example shows both sides of the coin on the same deployment shape:

1. an HONEST crash — the server goes down mid-run and recovers from its
   write-ahead log + snapshot; the recovered state is byte-identical,
   held requests are served late, and nobody raises ``fail`` (a recovery
   is indistinguishable from slowness, and accuracy demands silence);
2. the ROLLBACK adversary — same crash, but "recovery" restores a stale
   snapshot and discards the WAL suffix; a reader is served a
   consistent past (a fork), the first client whose own operations the
   rolled-back state forgot hands in the proof, and FAUST spreads the
   failure notification to everyone.

Run:  python examples/rollback_attack.py
"""

from repro.api import (
    FailureNotification,
    FaustParams,
    OperationFailed,
    SystemConfig,
    open_system,
)
from repro.sim.faults import Fault
from repro.store.codec import encode_server_state
from repro.ustor.byzantine import RollbackServer


def honest_crash_recovery() -> None:
    print("=" * 64)
    print("1. honest crash + WAL/snapshot recovery (storage='log')")
    print("=" * 64)
    system = open_system(
        SystemConfig(
            num_clients=2,
            seed=33,
            storage="log",  # write-ahead log + snapshots
            server_outages=(Fault("down", None, 6.0, 12.0),),  # down over [6, 18)
        ),
        backend="faust",
    )
    alice, bob = system.session(0), system.session(1)

    t1 = alice.write_sync(b"ledger-entry-1")
    print(f"alice wrote entry 1 (t={t1}); the server crashes at t=6 ...")
    system.run(until=5.5)
    handle = alice.write(b"ledger-entry-2")  # lands during the outage
    entry2 = handle.result(timeout=100)
    print(f"alice's entry 2 was held during the outage and committed at "
          f"t(virtual)={system.now:.1f} (timestamp {entry2.timestamp})")

    value, _ = bob.read_sync(0)
    print(f"bob reads the register after recovery: {value!r}")

    server = system.server
    before = encode_server_state(server.last_pre_crash_state)
    after = encode_server_state(server.last_recovery_state)
    print(f"recovered state byte-identical to pre-crash state: {before == after}")
    print(f"failure notifications raised: "
          f"{len(system.notifications.failure_events())} (recovery is not "
          f"misbehaviour)")
    assert value == b"ledger-entry-2"
    assert before == after
    assert not system.notifications.failure_events()


def rollback_attack() -> None:
    print()
    print("=" * 64)
    print("2. the rollback adversary: 'recovery' from a stale snapshot")
    print("=" * 64)
    system = open_system(
        SystemConfig(
            num_clients=2,
            seed=34,
            server_factory=lambda n, name: RollbackServer(
                n,
                snapshot_after_submits=1,   # the backup is taken here
                rollback_after_submits=3,   # ... and restored after this
                outage=4.0,
                name=name,
            ),
            # Quiet background machinery: alice's scripted write (not a
            # dummy read racing it) should be the one that catches it.
            faust=FaustParams(enable_dummy_reads=False, enable_probes=False),
        ),
        backend="faust",
    )
    alice, bob = system.session(0), system.session(1)
    events = system.notifications.subscribe(kinds=FailureNotification)

    for version in (1, 2, 3):
        alice.write_sync(b"ledger-entry-%d" % version)
    print("alice committed entries 1..3; the provider 'crashes' and quietly "
          "restores the backup taken after entry 1 ...")
    system.run(until=system.now + 6.0)

    value, _ = bob.read_sync(0)
    print(f"bob reads the ledger from the rolled-back server: {value!r} — "
          f"the past, correctly signed: a fork, not yet a proof")
    print("alice appends entry 4 to the rolled-back server:")
    try:
        alice.write_sync(b"ledger-entry-4")
        raise AssertionError("the rollback must not pass alice's checks")
    except OperationFailed as exc:
        print(f"  OperationFailed: {exc}")

    system.run(until=system.now + 20.0)  # let the FAILURE alert propagate
    clients = sorted({e.client for e in events.events})
    print(f"failure notifications: {len(events.events)} (clients: {clients})")
    for event in events.events[:1]:
        print(f"  first evidence: {event.reason}")
    assert value == b"ledger-entry-1"
    assert clients == [0, 1], "the rollback must be detected by everyone"


def main() -> None:
    honest_crash_recovery()
    rollback_attack()
    print()
    print("same crash, different recovery: exact state -> silence; stale "
          "state -> proof.")


if __name__ == "__main__":
    main()
