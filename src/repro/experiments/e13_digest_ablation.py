"""E13 — ablation: why versions carry digest vectors (Definition 7).

FAUST's failure detector compares versions with Definition 7's order,
whose second condition matches digests at equal vector entries.  This
experiment removes that condition (vector-only comparison,
:mod:`repro.faust.ablation`) and replays the attack suite:

* the **split-brain** fork produces vector-incomparable versions, so even
  the ablated detector catches it;
* the **Figure 3 hiding** attack produces vector-*ordered* versions whose
  digests diverge — the full detector catches it, the ablated one is
  blind, permanently violating detection completeness.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.experiments.base import ExperimentResult
from repro.faust.ablation import ablate_system
from repro.workloads.scenarios import figure3_scenario, split_brain_scenario


def _figure3_detection_fresh(ablated: bool) -> bool:
    system = figure3_scenario(
        faust=True, prepare=ablate_system if ablated else None
    ).system
    system.run(until=system.now + 600)
    return bool(system.notifications.failure_events())


def _split_brain_detection(ablated: bool) -> bool:
    result = split_brain_scenario(
        num_clients=4,
        seed=11,
        run_for=800.0,
        prepare=ablate_system if ablated else None,
    )
    return result.failed_clients == {0, 1, 2, 3}


def run(quick: bool = False) -> ExperimentResult:
    rows = []
    outcomes = {}
    for attack, runner in [
        ("split-brain fork", _split_brain_detection),
        ("figure-3 hiding/join", _figure3_detection_fresh),
    ]:
        full = runner(False)
        ablated = runner(True)
        outcomes[attack] = (full, ablated)
        rows.append([attack, full, ablated])
    table = format_table(
        ["attack", "detected (full Definition 7)", "detected (vector-only ablation)"],
        rows,
        title="Failure detection with and without the digest condition",
    )
    findings = {
        "split-brain detected by both": outcomes["split-brain fork"] == (True, True),
        "figure-3 join detected only with digests": outcomes["figure-3 hiding/join"]
        == (True, False),
        "digest condition is necessary for detection completeness": outcomes[
            "figure-3 hiding/join"
        ][1] is False,
    }
    return ExperimentResult(
        experiment_id="E13",
        title="Ablation: the digest vector in Definition 7",
        paper_claim=(
            "Versions pair timestamp vectors with digests; the order checks "
            "digest equality at equal entries (Definition 7).  Without it, "
            "join-style forking attacks would evade FAUST's comparability "
            "check — the ablation quantifies this design choice."
        ),
        table=table,
        findings=findings,
    )
