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

from importlib import import_module

#: Submodule -> the public names it defines.  The package imports none
#: of them up front: a name loads its module when first read, so
#: ``from repro.consistency.incremental import ...`` (an audited run)
#: loads no exhaustive oracle.
_MODULES = {
    "causal": ("check_causal_consistency", "check_causal_exhaustive"),
    "forking": (
        "FORK_LINEARIZABILITY",
        "FORK_SEQUENTIAL_CONSISTENCY",
        "FORK_STAR_LINEARIZABILITY",
        "WEAK_FORK_LINEARIZABILITY",
        "ForkingNotion",
        "at_most_one_join_violation",
        "causality_violation",
        "check_fork_linearizability_exhaustive",
        "check_fork_sequential_exhaustive",
        "check_fork_star_linearizability_exhaustive",
        "check_weak_fork_linearizability_exhaustive",
        "no_join_violation",
        "prefixes_agree",
        "search_views",
        "validate_fork_linearizability",
        "validate_fork_sequential_consistency",
        "validate_fork_star_linearizability",
        "validate_views",
        "validate_weak_fork_linearizability",
    ),
    "incremental": (
        "IncrementalCausalChecker",
        "IncrementalChecker",
        "IncrementalLinearizabilityChecker",
        "attach_incremental_checkers",
        "replay_history",
    ),
    "linearizability": (
        "check_linearizability",
        "check_linearizability_exhaustive",
        "check_sequential_consistency_exhaustive",
    ),
    "report": ("CheckResult", "ok", "violated"),
    "views": (
        "enumerate_views",
        "is_view_of",
        "lastops",
        "preserves_real_time",
        "preserves_weak_real_time",
        "view_violation",
    ),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

#: Paper name -> the name of the exhaustive oracle ``(history,
#: max_ops=...)`` of the notion, resolved into :data:`NOTIONS`.
_NOTION_ORACLES = {
    "linearizability": "check_linearizability_exhaustive",
    "sequential consistency": "check_sequential_consistency_exhaustive",
    "causal consistency": "check_causal_exhaustive",
    "fork-linearizability": "check_fork_linearizability_exhaustive",
    "fork-*-linearizability": "check_fork_star_linearizability_exhaustive",
    "weak fork-linearizability": "check_weak_fork_linearizability_exhaustive",
    "fork-sequential consistency": "check_fork_sequential_exhaustive",
}


def __getattr__(name: str):
    """Load a re-exported name — or :data:`NOTIONS`, paper name -> the
    exhaustive oracle of the notion — when it is first read.  All seven
    oracles refuse compacted or oversized histories with
    :class:`~repro.common.errors.CheckerError`."""
    if name == "NOTIONS":
        value = {notion: __getattr__(oracle) for notion, oracle in _NOTION_ORACLES.items()}
    elif name in _EXPORTS:
        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


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

__all__ = sorted([*_EXPORTS, "IMPLIES", "NOTIONS"])
