"""The canonical application-facing API of the reproduction.

One storage abstraction over interchangeable protocol backends::

    from repro.api import FaustBackend, SystemConfig

    system = FaustBackend().open_system(SystemConfig(num_clients=3, seed=7))
    alice, bob = system.session(0), system.session(1)

    t = alice.write_sync(b"draft-1")            # blocking form
    handle = bob.read(0)                        # future form
    value, _ = handle.result().value, handle.result().timestamp

    sub = system.notifications.subscribe()      # typed stable/fail events
    alice.wait_for_stability(t)

Swap :class:`FaustBackend` for :class:`LockstepBackend` or
:class:`UncheckedBackend` and the read/write surface runs unchanged
with that protocol's guarantees — the point of the paper, as an API.
Fail-aware calls (stability waits/cuts, stability events) are declared
per backend in ``backend.capabilities`` and raise
:class:`CapabilityError` where unsupported.
"""

from repro.api.backends import (
    BACKENDS,
    Backend,
    Capabilities,
    ClusterBackend,
    FaustBackend,
    LockstepBackend,
    UncheckedBackend,
    UstorBackend,
    get_backend,
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
    "Backend",
    "BatchingPolicy",
    "CapabilityError",
    "CheckpointPolicy",
    "Capabilities",
    "ClusterBackend",
    "FailureNotification",
    "FaustBackend",
    "FaustParams",
    "LockstepBackend",
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
    "UncheckedBackend",
    "UstorBackend",
    "get_backend",
    "open_system",
]
