#!/usr/bin/env python3
"""Figure 2 of the paper: Alice, Bob and Carlos edit a file worldwide.

Day time in Europe: Alice and Bob collaborate through the provider and see
each other's updates.  Carlos (in America) read Alice's early edits and
went to sleep.  Alice's stability notification shows exactly the paper's
cut:

    stable_Alice([10, 8, 3])

— consistent with herself up to her operation with timestamp 10, with Bob
up to 8, with Carlos up to 3.  Crucially, neither Alice nor Bob can tell
at this point whether Carlos is just asleep or whether the server is
hiding his operations.  When Carlos wakes up, version exchange resumes and
every operation becomes stable at every client — the benign explanation
wins.  (If the server *had* forked Carlos away, the offline PROBE/VERSION
exchange would instead have produced fail notifications — see
examples/forking_attack.py.)

Run:  python examples/collaborative_editing.py
"""

from repro.workloads.scenarios import figure2_scenario


def main() -> None:
    print("Day phase: Alice edits, Bob follows, Carlos sleeps after 3 edits.")
    result = figure2_scenario(include_carlos_return=True)
    system = result.system

    print("\nAlice's stability notifications (before Carlos returns):")
    for cut in result.alice_cuts:
        marker = "   <-- Figure 2's stability cut" if cut == (10, 8, 3) else ""
        print(f"  stable_Alice({list(cut)}){marker}")
        if cut == (10, 8, 3):
            break

    assert result.reproduced, "the Figure 2 cut must be reproduced exactly"

    print("\nNight phase: Carlos returned; background exchange resumed.")
    alice = system.session(0)
    system.run_until(
        lambda: alice.client.tracker.stable_timestamp_for_all() >= 10, timeout=3_000
    )
    for session in system.sessions():
        cut = session.stability_cut
        print(
            f"  {session.client.name}: final cut {list(cut)}  "
            f"failed={session.failed}"
        )

    assert alice.client.tracker.stable_timestamp_for_all() >= 10
    # The system's hub fanned every stable_i(W) out as it happened and
    # kept none (subscribe right after open_system to record them); what
    # it keeps is every fail_i, and a sleeping Carlos caused none.
    assert not system.notifications.failure_events()
    print("\nAll of Alice's day-phase operations are now stable at all clients.")


if __name__ == "__main__":
    main()
