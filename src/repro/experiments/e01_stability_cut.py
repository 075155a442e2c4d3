"""E1 — Figure 2: the stability cut ``stable_Alice([10, 8, 3])``.

Reproduces the paper's running example: Alice and Bob collaborate through
a correct server while Carlos is asleep; Alice's stability notification
shows her consistent with herself up to t=10, with Bob up to t=8, and with
Carlos up to t=3.  When Carlos returns, every operation becomes stable at
every client.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.experiments.base import ExperimentResult
from repro.workloads.scenarios import figure2_scenario

TARGET_CUT = (10, 8, 3)


def run(quick: bool = False) -> ExperimentResult:
    result = figure2_scenario(include_carlos_return=not quick)
    alice = result.system.clients[0]

    rows = []
    cuts = result.alice_cuts
    target_index = cuts.index(TARGET_CUT) if TARGET_CUT in cuts else None
    shown = cuts if target_index is None else cuts[: target_index + 1]
    for index, cut in enumerate(shown):
        rows.append(
            [
                index + 1,
                f"stable_Alice({list(cut)})",
                "<- Figure 2's cut" if cut == TARGET_CUT else "",
            ]
        )
    table = format_table(
        ["#", "notification", "note"],
        rows,
        title="Alice's stability notifications (day phase)",
    )

    findings: dict = {
        "figure-2 cut (10, 8, 3) emitted": TARGET_CUT in cuts,
        "notifications until the cut": target_index + 1 if target_index is not None else None,
        "false failure alarms": bool(result.system.notifications.failure_events()),
    }
    if not quick:
        # Night phase: Carlos returned; everything becomes mutually stable.
        system = result.system
        reached = system.run_until(
            lambda: alice.tracker.stable_timestamp_for_all() >= 10, timeout=3_000
        )
        findings["all of Alice's ops stable after Carlos returns"] = reached

    return ExperimentResult(
        experiment_id="E1",
        title="Stability cut of Figure 2",
        paper_claim=(
            "stable_Alice([10,8,3]): Alice is consistent with herself up to "
            "t=10, with Bob up to t=8, with Carlos up to t=3; once Carlos "
            "returns, all operations eventually become stable at all clients."
        ),
        table=table,
        findings=findings,
    )
