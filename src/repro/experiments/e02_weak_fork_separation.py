"""E2 — Figure 3: the history separating weak fork-linearizability.

Runs the scripted hiding-server attack against real USTOR clients,
records the history, and classifies it with all four consistency
checkers.  The paper's claims: the history is weakly fork-linearizable
(so USTOR must not halt) but not fork-linearizable and not linearizable;
causality holds; and the fork is FAUST-detectable once clients exchange
versions offline.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.consistency import NOTIONS, validate_weak_fork_linearizability
from repro.experiments.base import ExperimentResult
from repro.ustor.viewhistory import build_client_views
from repro.workloads.scenarios import figure3_scenario


#: Section 4's classification of the Figure 3 history.
_PAPER = {
    "linearizability": False,
    "causal consistency": True,
    "fork-linearizability": False,
    "weak fork-linearizability": True,
}


def run(quick: bool = False) -> ExperimentResult:
    result = figure3_scenario()
    history = result.history

    measured = {notion: NOTIONS[notion](history).ok for notion in _PAPER}
    views = build_client_views(history, result.system.clients)
    protocol_views_valid = validate_weak_fork_linearizability(history, views).ok

    rows = [
        [notion, measured[notion], "yes (paper)" if expected else "no (paper)"]
        for notion, expected in _PAPER.items()
    ]
    rows.append(
        ["USTOR raised fail during the attack", result.ustor_detected, "no (paper)"]
    )
    table_a = format_table(["property", "measured", "expected"], rows,
                           title="Classification of the Figure 3 history")
    history_lines = "\n".join(op.describe() for op in history)

    faust = figure3_scenario(faust=True)
    faust.system.run(until=faust.system.now + 400)
    detected_at_all = faust.system.notifications.first_failures().keys() == {0, 1}

    findings = {
        "history matches Figure 3": [op.describe() for op in history]
        == ["write_C1(X1, 'u')", "read_C2(X1) -> BOTTOM", "read_C2(X1) -> 'u'"],
        "protocol-derived views certify weak fork-linearizability": protocol_views_valid,
        "clients' versions incomparable after the join": not result.system.clients[0]
        .version.comparable(result.system.clients[1].version),
        "FAUST detects the fork at all clients via offline exchange": detected_at_all,
        "separation matches the paper": (
            measured == _PAPER and not result.ustor_detected
        ),
    }
    return ExperimentResult(
        experiment_id="E2",
        title="Figure 3: weakly fork-linearizable but not fork-linearizable",
        paper_claim=(
            "The history write1(X1,u); read2(X1)->BOTTOM; read2(X1)->u is "
            "weakly fork-linearizable but not fork-linearizable (Section 4); "
            "a server can produce it without triggering any USTOR check."
        ),
        table=history_lines + "\n\n" + table_a,
        findings=findings,
    )
