"""The baseline protocol: the blocking fork-linearizable design."""

from repro.baselines.lockstep import (
    LockStepClient,
    LockStepServer,
    LsOutcome,
    TamperingLockStepServer,
)

__all__ = [
    "LockStepClient",
    "LockStepServer",
    "LsOutcome",
    "TamperingLockStepServer",
]
