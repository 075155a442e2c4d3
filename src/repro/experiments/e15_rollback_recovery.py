"""E15 — crash-recovery vs. rollback: the persistence axis of fail-awareness.

The paper's server is volatile state; persisting it (the
:mod:`repro.store` engines) opens the one attack the wire protocol cannot
prevent and fail-aware clients must detect: a server that restarts from a
*stale snapshot* forks every client into the past.  This experiment pins
down the three regimes:

* **honest recovery (log engine)** — WAL replay restores the byte-exact
  pre-crash state; the outage only delays operations, every script
  completes, and no client ever raises fail (accuracy: recovery is not
  misbehaviour);
* **honest restart (memory engine)** — the paper's volatile server after
  a crash *is* a rollback to the initial state, and clients detect the
  amnesia exactly like an attack (there is no honest way to forget);
* **rollback adversary** — recovers from a deliberately stale snapshot,
  discarding a WAL suffix of varying depth; detection latency from the
  dishonest restart is measured as the suffix grows.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.experiments.base import ExperimentResult
from repro.workloads.scenarios import (
    rollback_attack_scenario,
    server_outage_scenario,
)


def run(quick: bool = False) -> ExperimentResult:
    rows = []

    # -- honest crash-recovery on the two engines ----------------------- #
    honest = server_outage_scenario(
        num_clients=3,
        seed=21,
        ops_per_client=6 if quick else 10,
        storage="log",
    )
    rows.append(
        [
            "honest outage",
            "log",
            honest.stats.progress(),
            len(honest.failures),
            "exact" if honest.recovery_byte_identical else "DIVERGED",
            "-",
        ]
    )

    amnesia = server_outage_scenario(
        num_clients=3,
        seed=21,
        ops_per_client=6 if quick else 10,
        storage="memory",
        run_for=600.0,
    )
    rows.append(
        [
            "honest outage",
            "memory",
            amnesia.stats.progress(),
            len(amnesia.failures),
            "amnesia",
            "-",
        ]
    )

    # -- the rollback adversary at growing staleness -------------------- #
    depths = (3, 9) if quick else (3, 6, 9, 15)
    latencies = {}
    for depth in depths:
        attack = rollback_attack_scenario(
            num_clients=3,
            seed=31,
            ops_per_client=8 if quick else 12,
            snapshot_after_submits=3,
            rollback_after_submits=3 + depth,
        )
        detected = len(attack.detection_times)
        latencies[depth] = attack.detection_latency
        rows.append(
            [
                f"rollback (suffix={depth})",
                "log",
                attack.stats.progress(),
                detected,
                "stale snapshot",
                round(attack.detection_latency, 1),
            ]
        )

    table = format_table(
        [
            "scenario",
            "storage",
            "ops completed",
            "failure notifications",
            "recovered state",
            "detection latency after restart",
        ],
        rows,
        title="Server crash-recovery: honest WAL replay vs. rollback attack",
    )

    findings = {
        "honest log-engine recovery is byte-identical": honest.recovery_byte_identical,
        "honest log-engine recovery completes every operation": honest.stats.all_done(),
        "honest log-engine recovery raises no failure notification": (
            not honest.failures
        ),
        "memory-engine restart is detected like a rollback": (
            bool(amnesia.failures)
        ),
        "every rollback depth is detected by all clients": all(
            row[3] == 3 for row in rows[2:]
        ),
        "worst rollback detection latency": max(latencies.values()),
    }
    return ExperimentResult(
        experiment_id="E15",
        title="Crash-recovery vs. rollback attack (storage engines)",
        paper_claim=(
            "Completeness extended to the persistence axis: an honest server "
            "that recovers its exact state is indistinguishable from a slow "
            "one (no fail_i), while any recovery that loses committed "
            "operations — a stale snapshot, or volatile state — is provable "
            "misbehaviour: the versions it presents no longer dominate the "
            "clients' own, and fail_i reaches every correct client."
        ),
        table=table,
        findings=findings,
    )
