#!/usr/bin/env python3
"""A multi-writer shopping list on fail-aware untrusted storage.

The paper's functionality is n single-writer registers; this example runs
the :class:`repro.apps.kvstore.KvStore` composition on top: every client
appends updates to its own register, readers merge all logs in Lamport
order.  The map inherits the storage guarantees — and when the same
deployment is pointed at a forking server, the divergence both *shows up
in the application state* and is *detected* by the fail-aware layer,
delivered here as typed failure notifications.

Run:  python examples/shopping_list.py
"""

from repro.api import FailureNotification, FaustParams, SystemConfig, open_system
from repro.apps.kvstore import KvStore
from repro.ustor.byzantine import SplitBrainServer


def honest_session() -> None:
    print("=== Honest provider ===")
    system = open_system(
        SystemConfig(num_clients=3, seed=21, faust=FaustParams(dummy_read_period=3.0)),
        backend="faust",
    )
    alice, bob, carol = (KvStore(system, i) for i in range(3))

    alice.put("milk", "2 bottles")
    bob.put("eggs", "a dozen")
    carol.put("coffee", "1 bag")
    bob.snapshot()
    bob.put("milk", "3 bottles — we need more")  # bob overrides alice
    alice.delete("coffee")

    print("  the merged list, as each household member sees it:")
    for name, store in [("alice", alice), ("bob", bob), ("carol", carol)]:
        print(f"    {name}: {store.snapshot()}")

    t = alice.put("bread", "rye")
    stable = alice.wait_until_stable(t, timeout=3_000)
    print(f"  alice's last update stable w.r.t. everyone: {stable}")
    assert stable and not alice.failed


def forked_session() -> None:
    print("\n=== Forking provider (split brain) ===")
    system = open_system(
        SystemConfig(
            num_clients=2,
            seed=22,
            server_factory=lambda n, name: SplitBrainServer(
                n, groups=[{0}, {1}], fork_time=0.0, name=name
            ),
            faust=FaustParams(
                dummy_read_period=5.0, probe_check_period=4.0, delta=15.0
            ),
        ),
        backend="faust",
    )
    alerts = system.notifications.subscribe(kinds=FailureNotification)
    alice, bob = KvStore(system, 0), KvStore(system, 1)

    alice.put("party", "saturday")
    bob.put("party", "sunday")
    print(f"  alice's branch: {alice.snapshot()}")
    print(f"  bob's branch:   {bob.snapshot()}")
    print("  (the provider shows each a world without the other's update)")

    system.run(until=system.now + 600)
    for client in system.clients:
        status = "FAIL raised" if client.failed else "no detection"
        print(f"  {client.name}: {status}")
    assert all(c.failed for c in system.clients)
    assert {e.client for e in alerts.events} == {0, 1}
    print("  offline probing exposed the fork at both clients.")


def main() -> None:
    honest_session()
    forked_session()


if __name__ == "__main__":
    main()
