"""E18 — replicated shards vs. the rollback adversary (repro.replica).

The wire protocol *detects* a rollback only when the rolled state
contradicts some client's committed version — and detection is fail-stop:
the workload halts.  This experiment measures what each added trust
mechanism buys against the same attack (one replica of a group recovers
from a deliberately stale snapshot):

* **baseline (n=1)** — the paper's single untrusted server: the attack is
  eventually detected, but every client halts and the workload dies;
* **honest majority (n=3, q=2)** — the quorum outvotes the deviant
  replies; nothing fails, every operation completes, the attack is
  *masked* rather than detected;
* **unanimity (n=3, q=3)** — no masking margin: the first deviant reply
  makes the quorum unattainable and turns masking back into detection;
* **durable monotonic counter** — the trusted component convicts the
  rolled-back replica on its first post-restart reply (O(1) operations,
  independent of workload length) while the honest majority keeps the
  service running;
* **honest recovery, durable counter** — the accuracy corner: an honest
  replica that crash-recovers from durable storage is *never* accused,
  because the counter is as durable as the state it vouches for.

The second table prices the mechanism: total wire traffic against the
replica count (every SUBMIT/COMMIT is broadcast n-fold and every replica
REPLYs, so traffic — like storage — scales with n; the attestation adds a
constant per REPLY).
"""

from __future__ import annotations

import math

from repro.analysis.tables import format_table
from repro.experiments.base import ExperimentResult
from repro.replica.coordinator import default_quorum
from repro.workloads.scenarios import replica_rollback_scenario


def _fmt_latency(value: float) -> str:
    return "-" if math.isnan(value) else f"{value:.1f}"


def run(quick: bool = False) -> ExperimentResult:
    ops = 6 if quick else 10
    clients = 4

    # -- the same attack against each trust configuration --------------- #
    baseline = replica_rollback_scenario(
        num_clients=clients, ops_per_client=ops, replicas=1, rollback_replica=0
    )
    masked = replica_rollback_scenario(
        num_clients=clients, ops_per_client=ops, replicas=3
    )
    unanimity = replica_rollback_scenario(
        num_clients=clients, ops_per_client=ops, replicas=3, quorum=3
    )
    counter = replica_rollback_scenario(
        num_clients=clients, ops_per_client=ops, replicas=3, counter="durable"
    )
    recovery = replica_rollback_scenario(
        num_clients=clients,
        ops_per_client=ops,
        replicas=3,
        counter="durable",
        rollback_replica=None,
        honest_outage=(1, 30.0, 5.0),
    )

    def row(label: str, r) -> list:
        config = r.config
        return [
            label,
            f"{config.replicas}/{config.quorum or default_quorum(config.replicas)}",
            config.counter or "-",
            r.stats.progress(),
            r.masked_deviations,
            len(r.failed_clients),
            len(r.convicted),
            _fmt_latency(r.detection_latency),
            r.ops_until_detection if r.detected else "-",
        ]

    regimes = format_table(
        [
            "regime",
            "replicas/quorum",
            "counter",
            "ops completed",
            "deviant replies masked",
            "clients failed",
            "replicas convicted",
            "signal latency after restart",
            "ops until signal",
        ],
        [
            row("rollback, single server", baseline),
            row("rollback, honest majority", masked),
            row("rollback, unanimity quorum", unanimity),
            row("rollback, durable counter", counter),
            row("honest recovery, durable counter", recovery),
        ],
        title="One rolled-back replica: detection vs. masking vs. conviction",
    )

    # -- what the mechanism costs: wire traffic vs. replica count -------- #
    overhead_rows = []
    bytes_by_n = {}
    for n in (1, 3) if quick else (1, 3, 5):
        honest = replica_rollback_scenario(
            num_clients=clients,
            ops_per_client=ops,
            replicas=n,
            rollback_replica=None,
            counter="durable" if n > 1 else None,
        )
        trace = honest.system.shards[0].trace
        total = trace.total_bytes()
        bytes_by_n[n] = total
        overhead_rows.append(
            [
                n,
                honest.stats.progress(),
                trace.message_count("SUBMIT"),
                trace.message_count("REPLY"),
                total,
                f"{total / bytes_by_n[1]:.2f}x",
            ]
        )
    overhead = format_table(
        [
            "replicas",
            "ops completed",
            "SUBMITs on the wire",
            "REPLYs on the wire",
            "total wire bytes",
            "vs. single server",
        ],
        overhead_rows,
        title="The price of the quorum: wire traffic vs. replica count",
    )

    findings = {
        "single-server rollback is detected but halts the workload": (
            baseline.detected and not baseline.stats.all_done()
        ),
        "an honest majority masks every deviant reply": (
            masked.masked_deviations > 0
            and not masked.failures
            and not masked.convicted
            and masked.stats.all_done()
        ),
        "unanimity has no masking margin (first deviation detected)": (
            unanimity.detected
        ),
        "a durable counter convicts the rolled-back replica": (
            len(counter.convicted) == 1 and counter.stats.all_done()
        ),
        "the counter catch is O(1) operations": (
            counter.detected and counter.ops_until_detection <= 2 * clients
        ),
        "a durable counter never accuses an honest recovery": (
            not recovery.convicted
            and not recovery.failures
            and not recovery.masked_deviations
            and recovery.stats.all_done()
        ),
        "wire traffic scales with the replica count": (
            2.0 <= bytes_by_n[3] / bytes_by_n[1] <= 4.5
        ),
    }
    return ExperimentResult(
        experiment_id="E18",
        title="Replicated rollback-resistant shards (quorums + counters)",
        paper_claim=(
            "The protocol's guarantee against a rollback is detection after "
            "the fact; Section 7's outlook — combining the untrusted-server "
            "protocol with replication and a minimal trusted component — "
            "upgrades it: an honest quorum masks the rolled replica so the "
            "service never stops, and a durable monotonic counter bound to "
            "each REPLY convicts it within O(1) operations, at the price of "
            "n-fold storage and wire traffic.  The trusted component must "
            "be as durable as the state it vouches for, or honest recovery "
            "becomes indistinguishable from the attack."
        ),
        table=regimes + "\n\n" + overhead,
        findings=findings,
    )
