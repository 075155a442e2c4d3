"""E12 — Section 4's claim: weak fork-linearizability is *neither stronger
nor weaker* than fork-*-linearizability.

Both separations are exhibited with concrete histories and decided by the
exhaustive checkers; the full classification of each witness across all
six notions is tabulated.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.common.types import BOTTOM, OpKind
from repro.consistency import NOTIONS
from repro.experiments.base import ExperimentResult
from repro.history.events import Operation
from repro.history.history import History


def _figure3() -> History:
    return History(
        [
            Operation(1, 0, OpKind.WRITE, 0, b"u", 0, 1),
            Operation(2, 1, OpKind.READ, 0, BOTTOM, 2, 3),
            Operation(3, 1, OpKind.READ, 0, b"u", 4, 5),
        ]
    )


def _causality_violation() -> History:
    """C3 observes b (which causally depends on a) yet reads X1 as BOTTOM."""
    return History(
        [
            Operation(1, 0, OpKind.WRITE, 0, b"a", 0.5, 100.0),
            Operation(2, 1, OpKind.READ, 0, b"a", 2, 3),
            Operation(3, 1, OpKind.WRITE, 1, b"b", 4, 5),
            Operation(4, 2, OpKind.READ, 1, b"b", 6, 7),
            Operation(5, 2, OpKind.READ, 0, BOTTOM, 8, 9),
        ]
    )


#: The six notions Section 4 discusses; sequential consistency only
#: completes the lattice and is no part of the claim.
_NOTIONS = [
    (notion, check)
    for notion, check in NOTIONS.items()
    if notion != "sequential consistency"
]


def run(quick: bool = False) -> ExperimentResult:
    fig3 = _figure3()
    causal_violation = _causality_violation()
    rows = []
    verdicts: dict[tuple[str, str], bool] = {}
    for notion, check in _NOTIONS:
        a = check(fig3).ok
        b = check(causal_violation).ok
        verdicts[("fig3", notion)] = a
        verdicts[("causal", notion)] = b
        rows.append([notion, a, b])
    table = format_table(
        ["notion", "Figure 3 history", "causality-violating history"],
        rows,
        title="Classification of the two witness histories",
    )
    findings = {
        "Figure 3: weak-fork holds, fork-* does not": (
            verdicts[("fig3", "weak fork-linearizability")]
            and not verdicts[("fig3", "fork-*-linearizability")]
        ),
        "causality violation: fork-* holds, weak-fork does not": (
            verdicts[("causal", "fork-*-linearizability")]
            and not verdicts[("causal", "weak fork-linearizability")]
        ),
        "therefore the notions are incomparable (Section 4 claim)": (
            verdicts[("fig3", "weak fork-linearizability")]
            and not verdicts[("fig3", "fork-*-linearizability")]
            and verdicts[("causal", "fork-*-linearizability")]
            and not verdicts[("causal", "weak fork-linearizability")]
        ),
        "weak-fork implies causal on both witnesses": all(
            verdicts[(name, "causal consistency")]
            for name in ("fig3",)
        ),
    }
    return ExperimentResult(
        experiment_id="E12",
        title="Weak fork-linearizability vs. fork-*-linearizability",
        paper_claim=(
            "Weak fork-linearizability is neither stronger nor weaker than "
            "fork-*-linearizability (Section 4); fork-* additionally permits "
            "a faulty server to violate causal consistency."
        ),
        table=table,
        findings=findings,
    )
