#!/usr/bin/env python3
"""Why FAUST talks client-to-client: stability surviving a server outage.

Section 6's key observation: dummy reads alone cannot make stability
detection complete, because a faulty server — even one that merely
crashes — can stop relaying versions.  FAUST therefore exchanges versions
over the *offline* channel (PROBE / VERSION messages).

This example completes two operations, kills the server, and shows that
the operations still become mutually stable through offline exchange —
while new operations (correctly) hang forever, and no client ever raises
``fail``: a crash is indistinguishable from slowness and is *not*
Byzantine evidence.

Run:  python examples/server_outage.py
"""

from repro.api import (
    FaustParams,
    OperationTimeout,
    SystemConfig,
    open_system,
)
from repro.ustor.byzantine import CrashingServer


def main() -> None:
    # The server will crash after serving exactly two SUBMITs — Alice's
    # write and Bob's read both complete, then the lights go out.
    system = open_system(
        SystemConfig(
            num_clients=2,
            seed=33,
            server_factory=lambda n, name: CrashingServer(
                n, crash_after_submits=2, name=name
            ),
            faust=FaustParams(
                dummy_read_period=1_000.0,  # isolate the offline path
                probe_check_period=3.0,
                delta=10.0,
            ),
        ),
        backend="faust",
    )
    alice, bob = system.session(0), system.session(1)

    write = alice.write(b"final-report.pdf").result(timeout=100)
    read = bob.read(0).result(timeout=100)
    print(f"alice wrote her report (t={write.timestamp}); bob read it: "
          f"{read.value!r}")

    print("\n... the provider goes down (next request kills it) ...")
    system.run(until=system.now + 60)

    t = write.timestamp
    print(f"\nwaiting for alice's write (t={t}) to become stable w.r.t. bob,")
    print("with the server dead — only PROBE/VERSION exchange can do it:")
    reached = system.run_until(
        lambda: alice.client.tracker.stable_timestamp_for(1) >= t, timeout=2_000
    )
    print(f"  stable w.r.t. bob: {reached}")
    print(f"  alice's stability cut: {list(alice.stability_cut)}")

    print("\nmeanwhile, a new operation hangs (wait-freedom needs a correct server):")
    handle = alice.write(b"new-draft")
    try:
        handle.result(timeout=200)
    except OperationTimeout as exc:
        print(f"  {exc}")
    print(f"  new write completed: {handle.done()} (expected: False)")

    print("\nand nobody cried wolf — a crash is not provable misbehaviour:")
    assert not system.notifications.failure_events()
    for client in system.clients:
        print(f"  {client.name}: fail raised = {client.failed}")
    assert reached and not any(c.failed for c in system.clients)


if __name__ == "__main__":
    main()
