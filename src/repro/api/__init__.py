"""The canonical application-facing API of the reproduction.

One storage abstraction over interchangeable protocol backends::

    from repro.api import SystemConfig, open_system

    system = open_system(SystemConfig(num_clients=3, seed=7), backend="faust")
    alice, bob = system.session(0), system.session(1)

    t = alice.write_sync(b"draft-1")            # blocking form
    handle = bob.read(0)                        # future form
    value, _ = handle.result().value, handle.result().timestamp

    sub = system.notifications.subscribe()      # records stable/fail events from here
    alice.wait_for_stability(t)

Name ``"ustor"`` or ``"cluster"`` instead (:data:`BACKENDS`) and the
read/write surface runs unchanged with that protocol's guarantees — the
point of the paper, as an API.
Fail-aware calls (stability waits/cuts) exist where the clients are
fail-aware and raise :class:`CapabilityError` elsewhere.
"""

from repro.api.backends import (
    BACKENDS,
    open_system,
)
from repro.api.config import (
    BatchingPolicy,
    FaustParams,
    SystemConfig,
)
from repro.faust.checkpoint import CheckpointPolicy
from repro.api.errors import CapabilityError, OperationFailed, OperationTimeout
from repro.api.events import (
    FailureNotification,
    Notification,
    NotificationHub,
    StabilityNotification,
    Subscription,
)
from repro.api.handles import OpHandle, OpResult
from repro.api.session import Session

__all__ = [
    "BACKENDS",
    "BatchingPolicy",
    "CapabilityError",
    "CheckpointPolicy",
    "FailureNotification",
    "FaustParams",
    "Notification",
    "NotificationHub",
    "OpHandle",
    "OpResult",
    "OperationFailed",
    "OperationTimeout",
    "Session",
    "StabilityNotification",
    "Subscription",
    "SystemConfig",
    "open_system",
]
