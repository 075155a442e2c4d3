"""Consistency checkers: Definitions 2, 3, 6 and the lattice around them.

All checkers consume recorded :class:`~repro.history.history.History`
objects and know nothing about the protocols that produced them.  The *offline*
checkers examine a complete history per call; the *incremental* ones
(:mod:`repro.consistency.incremental`) subscribe to a live recorder and
keep the same verdicts current in O(delta) per audit.

:data:`NOTIONS` and :data:`IMPLIES` declare the lattice the paper
situates its notions in (Section 4): seven notions, each with the
exhaustive oracle that decides it *by definition* on a small history.
Linearizability and causal consistency additionally have polynomial
deciders (:func:`check_linearizability`, :func:`check_causal_consistency`)
for recorded runs of any length, cross-validated against their oracles.
"""

from typing import Callable

from repro.consistency.causal import check_causal_consistency, check_causal_exhaustive
from repro.consistency.forking import (
    FORK_LINEARIZABILITY,
    FORK_SEQUENTIAL_CONSISTENCY,
    FORK_STAR_LINEARIZABILITY,
    WEAK_FORK_LINEARIZABILITY,
    ForkingNotion,
    at_most_one_join_violation,
    causality_violation,
    check_fork_linearizability_exhaustive,
    check_fork_sequential_exhaustive,
    check_fork_star_linearizability_exhaustive,
    check_weak_fork_linearizability_exhaustive,
    no_join_violation,
    prefixes_agree,
    search_views,
    validate_fork_linearizability,
    validate_fork_sequential_consistency,
    validate_fork_star_linearizability,
    validate_views,
    validate_weak_fork_linearizability,
)
from repro.consistency.incremental import (
    IncrementalCausalChecker,
    IncrementalChecker,
    IncrementalLinearizabilityChecker,
    attach_incremental_checkers,
    replay_history,
)
from repro.consistency.linearizability import (
    check_linearizability,
    check_linearizability_exhaustive,
    check_sequential_consistency_exhaustive,
)
from repro.consistency.report import CheckResult, ok, violated
from repro.consistency.views import (
    enumerate_views,
    is_view_of,
    lastops,
    preserves_real_time,
    preserves_weak_real_time,
    view_violation,
)

#: Paper name -> the exhaustive oracle ``(history, max_ops=...)`` of the
#: notion.  All seven refuse compacted or oversized histories with
#: :class:`~repro.common.errors.CheckerError`.
NOTIONS: dict[str, Callable[..., CheckResult]] = {
    "linearizability": check_linearizability_exhaustive,
    "sequential consistency": check_sequential_consistency_exhaustive,
    "causal consistency": check_causal_exhaustive,
    "fork-linearizability": check_fork_linearizability_exhaustive,
    "fork-*-linearizability": check_fork_star_linearizability_exhaustive,
    "weak fork-linearizability": check_weak_fork_linearizability_exhaustive,
    "fork-sequential consistency": check_fork_sequential_exhaustive,
}

#: The lattice's edges: a history the left notion accepts, the right one
#: accepts too.  Absent pairs are not implied — notably weak fork- and
#: fork-*-linearizability are incomparable (E12).
IMPLIES: tuple[tuple[str, str], ...] = (
    ("linearizability", "fork-linearizability"),
    ("linearizability", "sequential consistency"),
    ("sequential consistency", "causal consistency"),
    ("sequential consistency", "fork-sequential consistency"),
    ("fork-linearizability", "fork-*-linearizability"),
    ("fork-linearizability", "weak fork-linearizability"),
    ("fork-linearizability", "fork-sequential consistency"),
    ("weak fork-linearizability", "causal consistency"),
)

__all__ = [
    "CheckResult",
    "FORK_LINEARIZABILITY",
    "FORK_SEQUENTIAL_CONSISTENCY",
    "FORK_STAR_LINEARIZABILITY",
    "ForkingNotion",
    "IMPLIES",
    "IncrementalCausalChecker",
    "IncrementalChecker",
    "IncrementalLinearizabilityChecker",
    "NOTIONS",
    "WEAK_FORK_LINEARIZABILITY",
    "at_most_one_join_violation",
    "attach_incremental_checkers",
    "replay_history",
    "causality_violation",
    "check_causal_consistency",
    "check_causal_exhaustive",
    "check_fork_linearizability_exhaustive",
    "check_fork_sequential_exhaustive",
    "check_fork_star_linearizability_exhaustive",
    "check_linearizability",
    "check_linearizability_exhaustive",
    "check_sequential_consistency_exhaustive",
    "check_weak_fork_linearizability_exhaustive",
    "enumerate_views",
    "is_view_of",
    "lastops",
    "no_join_violation",
    "ok",
    "prefixes_agree",
    "preserves_real_time",
    "preserves_weak_real_time",
    "search_views",
    "validate_fork_linearizability",
    "validate_fork_sequential_consistency",
    "validate_fork_star_linearizability",
    "validate_views",
    "validate_weak_fork_linearizability",
    "view_violation",
    "violated",
]
