"""Baseline protocols: the blocking fork-linearizable design and a naive store."""

from repro.baselines.lockstep import (
    LockStepClient,
    LockStepServer,
    LsOutcome,
    TamperingLockStepServer,
)
from repro.baselines.unchecked import (
    LyingUncheckedServer,
    PlainOutcome,
    UncheckedClient,
    UncheckedServer,
)

__all__ = [
    "LockStepClient",
    "LockStepServer",
    "LsOutcome",
    "LyingUncheckedServer",
    "PlainOutcome",
    "TamperingLockStepServer",
    "UncheckedClient",
    "UncheckedServer",
]
