#!/usr/bin/env python3
"""Wait-freedom: why weak fork-linearizability matters.

The same scenario runs twice: a client crashes right after submitting an
operation (before acknowledging the server's reply).

* Under **USTOR** the remaining clients complete every operation — the
  protocol is wait-free whenever the server is correct.
* Under a **lock-step fork-linearizable** protocol (the SUNDR-style design
  the paper improves on) the server must withhold every later reply until
  the crashed client's commit arrives... which it never does.  The whole
  system wedges, demonstrating the impossibility that motivates weak
  fork-linearizability: no fork-linearizable storage protocol can be
  wait-free.

Both protocols run through the same session surface — only the protocol
(and with it, the guarantee) changes.  USTOR is a backend of
``open_system``; the lock-step baseline is built from the same config by
``build_deployment``.

Run:  python examples/wait_freedom.py
"""

from repro.api import SystemConfig, open_system
from repro.api.backends import build_deployment
from repro.baselines.lockstep import lockstep_protocol
from repro.sim.network import FixedLatency


def crash_scenario(system, label: str) -> None:
    print(f"\n=== {label} ===")

    # C1 submits a write and crashes before it can acknowledge the reply.
    doomed = system.session(0).write(b"doomed-operation")
    system.scheduler.schedule(1.5, system.clients[0].crash)
    print("  t=0.0  C1 submits write; t=1.5 C1 crashes (reply lands at t=2)")

    # Later, the surviving clients try to work.
    completions = []

    def submit(client_id: int, tag: str, value_or_register) -> None:
        session = system.session(client_id)
        handle = (
            session.write(value_or_register)
            if isinstance(value_or_register, bytes)
            else session.read(value_or_register)
        )
        handle.add_done_callback(lambda _h: completions.append((tag, system.now)))

    system.scheduler.schedule(5.0, submit, 1, "C2", b"from-C2")
    system.scheduler.schedule(5.0, submit, 2, "C3", 1)
    system.run(until=500.0)

    if completions:
        for who, when in completions:
            print(f"  t={when:5.1f}  {who}'s operation completed")
    else:
        print("  .... no survivor operation ever completed (system is wedged)")
    blocked = getattr(system.server, "blocked", None)
    if blocked is not None:
        print(f"  server token held by the dead client: {blocked}")
    print(f"  survivors completed {len(completions)}/2 operations")
    assert not doomed.done(), "the crashed client's operation must never settle"


def main() -> None:
    config = SystemConfig(num_clients=3, seed=7, latency=FixedLatency(1.0))
    ustor = open_system(config, backend="ustor")
    crash_scenario(ustor, "USTOR (weak fork-linearizable, wait-free)")

    lockstep = build_deployment(config, lockstep_protocol())
    crash_scenario(lockstep, "Lock-step baseline (fork-linearizable, blocking)")

    print(
        "\nSame crash, opposite outcomes: this is Section 4's impossibility "
        "in action,\nand the reason the paper introduces weak fork-linearizability."
    )


if __name__ == "__main__":
    main()
