"""E8 — failure detection: accuracy and completeness (Definition 5, 5+7).

Accuracy: across correct-server runs with FAUST fully armed, fail is
never raised.  Completeness: under a split-brain fork, every correct
client eventually raises fail; the latency from fork to system-wide
detection is measured as a function of the probe staleness threshold
DELTA — the knob the paper introduces in Section 6.
"""

from __future__ import annotations

import random

from repro.analysis.tables import format_table
from repro.api import FaustParams, SystemConfig, open_system
from repro.experiments.base import ExperimentResult
from repro.workloads.generator import WorkloadConfig, run_closed_loop
from repro.workloads.scenarios import split_brain_scenario


def _false_positive_rate(seeds, quick: bool) -> tuple[int, int]:
    alarms = 0
    for seed in seeds:
        system = open_system(
            SystemConfig(
                num_clients=3,
                seed=seed,
                faust=FaustParams(
                    dummy_read_period=3.0, probe_check_period=4.0, delta=12.0
                ),
            ),
            backend="faust",
        )
        run_closed_loop(system, WorkloadConfig(ops_per_client=6), random.Random(seed))
        system.run(until=system.now + (100 if quick else 300))
        alarms += len(system.notifications.first_failures())
    return alarms, len(list(seeds))


def run(quick: bool = False) -> ExperimentResult:
    fork_time = 30.0
    deltas = (10.0, 40.0) if quick else (10.0, 20.0, 40.0, 80.0)
    rows = []
    latencies = {}
    for delta in deltas:
        result = split_brain_scenario(
            num_clients=4,
            seed=11,
            fork_time=fork_time,
            delta=delta,
            run_for=4_000.0,
        )
        times = result.detection_times
        detected = len(times)
        first = min(times) - fork_time if times else float("nan")
        last = max(times) - fork_time if times else float("nan")
        latencies[delta] = last
        rows.append([delta, f"{detected}/4", round(first, 1), round(last, 1)])
    table = format_table(
        ["DELTA", "clients detecting", "first detection after fork", "all detected after fork"],
        rows,
        title="Split-brain fork at t=30: detection latency vs. probe threshold",
    )

    alarms, runs = _false_positive_rate(range(4 if quick else 8), quick)
    findings = {
        "false alarms across correct-server runs": f"{alarms}/{runs * 3} clients",
        "all correct clients detect the fork (every DELTA)": all(
            row[1] == "4/4" for row in rows
        ),
        "detection latency grows with DELTA": latencies[deltas[-1]] > latencies[deltas[0]],
    }
    return ExperimentResult(
        experiment_id="E8",
        title="Failure-detection accuracy and completeness",
        paper_claim=(
            "fail_i occurs only if the server is faulty (accuracy); for every "
            "correct client pair, eventually fail occurs at all correct "
            "clients or the operations become stable (completeness) — driven "
            "by offline PROBE/VERSION exchange with staleness threshold DELTA."
        ),
        table=table,
        findings=findings,
    )
