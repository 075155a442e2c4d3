"""Deterministic discrete-event simulation substrate (Figure 1's world).

Provides the asynchronous system model of Section 2: a seeded event loop,
reliable FIFO client-server channels, the offline client-to-client channel,
crash-stop and crash-recovery processes, the one fault schedule that
crashes, restarts and disconnects them, periodic timers, and run tracing.
"""

from repro.sim.faults import Fault, FaultInjector
from repro.sim.network import (
    ExponentialLatency,
    FixedLatency,
    LatencyModel,
    Network,
    UniformLatency,
    message_kind,
    message_size,
)
from repro.sim.offline import OfflineChannel
from repro.sim.process import Node
from repro.sim.scheduler import EventHandle, Scheduler
from repro.sim.timers import PeriodicTimer
from repro.sim.trace import MessageRecord, NoteRecord, SimTrace

__all__ = [
    "EventHandle",
    "ExponentialLatency",
    "Fault",
    "FaultInjector",
    "FixedLatency",
    "LatencyModel",
    "MessageRecord",
    "Network",
    "Node",
    "NoteRecord",
    "OfflineChannel",
    "PeriodicTimer",
    "Scheduler",
    "SimTrace",
    "UniformLatency",
    "message_kind",
    "message_size",
]
