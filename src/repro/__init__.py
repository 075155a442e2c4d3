"""FAUST — Fail-Aware Untrusted Storage (Cachin, Keidar, Shraer; DSN 2009).

A complete reproduction: the USTOR weak fork-linearizable storage protocol
(Algorithms 1-2), the FAUST fail-aware layer (Section 6), the consistency
theory of Sections 2-4 as executable checkers, the blocking lock-step
baseline, Byzantine server attacks, and the simulation substrate
everything runs on.

Quickstart (see :mod:`repro.api` for the full facade)::

    from repro.api import SystemConfig, open_system

    system = open_system(SystemConfig(num_clients=3, seed=7), backend="faust")
    alice, bob, carlos = system.sessions()
    t = alice.write_sync(b"draft-1")
    print(bob.read_sync(0), alice.wait_for_stability(t))

See README.md for the full tour and DESIGN.md for the architecture.
"""

__version__ = "1.0.0"
