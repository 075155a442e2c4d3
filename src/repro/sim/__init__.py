"""Deterministic discrete-event simulation substrate (Figure 1's world).

Provides the asynchronous system model of Section 2: a seeded event loop,
reliable FIFO client-server channels, the offline client-to-client channel,
crash-stop and crash-recovery processes, the one fault schedule that
crashes, restarts and disconnects them, periodic timers, and run tracing.
"""
