#!/usr/bin/env python3
"""Figure 3 of the paper: a forking attack that no USTOR check can catch —
and how FAUST exposes it anyway.

The Byzantine server hides C1's ``write(X1, u)`` from C2's first read
(which therefore returns BOTTOM) and then *rejoins* the branches: C2's
second read returns ``u`` with every signature genuine and every check of
Algorithm 1 passing.  The resulting history is exactly the paper's
Figure 3 — weakly fork-linearizable, so the protocol (correctly!) does not
halt; but it is not linearizable and not fork-linearizable.

The fork is still recorded in the version digests: C1's and C2's versions
are incomparable.  The moment the clients compare versions over the
offline channel, both output ``fail``.

Run:  python examples/forking_attack.py
"""

from repro.api import FailureNotification
from repro.consistency import (
    check_causal_consistency,
    check_fork_linearizability_exhaustive,
    check_linearizability,
    check_weak_fork_linearizability_exhaustive,
)
from repro.workloads.scenarios import figure3_scenario


def main() -> None:
    print("Phase 1: the attack, against plain USTOR clients")
    result = figure3_scenario()
    print("  recorded history:")
    for op in result.history:
        print(f"    {op.describe()}")

    print("\n  classification by the independent checkers:")
    for name, check in [
        ("linearizability", check_linearizability),
        ("causal consistency", check_causal_consistency),
        ("fork-linearizability", check_fork_linearizability_exhaustive),
        ("weak fork-linearizability", check_weak_fork_linearizability_exhaustive),
    ]:
        verdict = check(result.history)
        print(f"    {name:28s} {'HOLDS' if verdict.ok else 'violated'}")

    print(f"\n  USTOR clients raised fail during the attack: {result.ustor_detected}")
    writer, victim = result.system.clients
    comparable = writer.version.comparable(victim.version)
    print(f"  C1/C2 versions comparable after the join:    {comparable}")
    assert not result.ustor_detected and not comparable

    print("\nPhase 2: the same attack, against FAUST clients with probing")
    faust = figure3_scenario(faust=True)
    system = faust.system
    alerts = system.notifications.subscribe(kinds=FailureNotification)
    system.run(until=system.now + 400)
    for event in alerts.events:
        print(f"  t={event.time:5.1f}  fail_C{event.client + 1}: {event.reason}")
    assert all(c.failed for c in system.clients)
    assert {e.client for e in alerts.events} == {0, 1}
    print("\nThe offline version exchange turned an undetectable fork into")
    print("accurate, complete failure notifications at every client.")


if __name__ == "__main__":
    main()
