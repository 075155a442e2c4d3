#!/usr/bin/env python3
"""Quickstart: a fail-aware untrusted storage service in ~40 lines.

Three clients share n SWMR registers through a simulated (correct) server.
The unified ``repro.api`` facade opens the system on the FAUST backend:
per-client sessions return a timestamp with every operation, the
notification hub delivers typed ``stable`` events as consistency is
established across clients, and would deliver ``fail`` events if the
server misbehaved.

Run:  python examples/quickstart.py
"""

from repro.api import FaustParams, StabilityNotification, SystemConfig, open_system


def main() -> None:
    # Build a world: deterministic scheduler, FIFO network, offline
    # channel, correct server, three FAUST clients with background
    # version propagation enabled.
    system = open_system(
        SystemConfig(num_clients=3, seed=42, faust=FaustParams(dummy_read_period=3.0)),
        backend="faust",
    )
    alice = system.session(0)
    bob = system.session(1)

    # Watch the fail-aware layer's output actions as typed events.
    subscription = system.notifications.subscribe()

    # Alice writes her register; the response carries a timestamp.
    t1 = alice.write_sync(b"design-doc v1")
    print(f"alice wrote v1           -> timestamp {t1}")

    # Bob reads Alice's register — as a future this time.
    result = bob.read(0).result()
    print(f"bob read register X1     -> {result.value!r} "
          f"(bob's timestamp {result.timestamp})")

    # Alice keeps editing.
    t2 = alice.write_sync(b"design-doc v2")
    print(f"alice wrote v2           -> timestamp {t2}")

    # Wait until Alice's v2 write is STABLE w.r.t. every client: from here
    # on, no server misbehaviour can ever rewrite this prefix of history.
    stable = alice.wait_for_stability(t2, timeout=2_000)
    print(f"alice's v2 stable w.r.t. all clients: {stable}")
    print(f"alice's stability cut W = {list(alice.stability_cut)}")

    # Nothing went wrong, so only stability notifications fired.
    events = subscription.events
    assert events and all(isinstance(e, StabilityNotification) for e in events)
    assert not alice.failed and not bob.failed
    print(f"{len(events)} stable notifications, no failures — the server behaved.")


if __name__ == "__main__":
    main()
