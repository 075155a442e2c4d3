"""FAUST: the fail-aware untrusted storage service layer (Section 6)."""

from repro.faust.ablation import VectorOnlyTracker, ablate_system
from repro.faust.checkpoint import Checkpoint, CheckpointManager, CheckpointPolicy
from repro.faust.client import FaustClient
from repro.faust.membership import MembershipManager, MembershipPolicy
from repro.faust.messages import (
    CheckpointShareMessage,
    FailureMessage,
    ProbeMessage,
    RejoinMessage,
    VersionMessage,
)
from repro.faust.stability import AbsorbOutcome, StabilityTracker
from repro.faust.validator import FailAwareReport, validate_fail_aware_run

__all__ = [
    "AbsorbOutcome",
    "Checkpoint",
    "CheckpointManager",
    "CheckpointPolicy",
    "CheckpointShareMessage",
    "FailAwareReport",
    "FailureMessage",
    "FaustClient",
    "MembershipManager",
    "MembershipPolicy",
    "ProbeMessage",
    "RejoinMessage",
    "StabilityTracker",
    "VectorOnlyTracker",
    "VersionMessage",
    "ablate_system",
    "validate_fail_aware_run",
]
