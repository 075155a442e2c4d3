"""E16 — sharded detection: latency and notification fan-out per shard.

The cluster layer (:mod:`repro.cluster`) partitions the register space
over N independent servers, so the adversary gains a new degree of
freedom the single-server paper does not model: *be honest on one shard
and fork another*.  The per-shard guarantee the cluster must preserve is
scoped detection — a forking shard is reported to exactly the clients
whose operations touched it, honest shards keep serving everyone, and
the notification fan-out grows with the fraction of compromised shards,
not with cluster size.

Two sweeps over :func:`~repro.workloads.scenarios.
split_brain_shard_scenario`:

* **shard count** at one forking shard — detection latency and fan-out
  as the same register space is spread over more servers;
* **malicious fraction** at a fixed shard count — fan-out as 1, 2, 3 of
  4 shards fork.

Every row asserts the exactness invariant (notified == touched-forked)
and that avoiders completed their whole honest-shard workload.
"""

from __future__ import annotations

import math

from repro.analysis.tables import format_table
from repro.experiments.base import ExperimentResult
from repro.workloads.scenarios import split_brain_shard_scenario


def _row(label: str, result) -> list:
    notified = sorted(result.failed_clients)
    expected = sorted(result.expected_detectors)
    latency = (
        "-"
        if math.isnan(result.detection_latency)
        else round(result.detection_latency, 1)
    )
    return [
        label,
        len(result.forked_shards),
        f"{len(notified)}/{result.system.num_clients}",
        "exact" if result.exact_detection else f"MISMATCH {notified}!={expected}",
        "yes" if result.stats.all_done(result.avoiders) else "NO",
        latency,
    ]


def run(quick: bool = False) -> ExperimentResult:
    num_clients = 6
    rows = []
    results = []

    # -- sweep 1: shard count, one forking shard ------------------------ #
    shard_counts = (2, 4) if quick else (2, 3, 4, 6)
    latencies = {}
    for shards in shard_counts:
        result = split_brain_shard_scenario(
            num_clients=num_clients,
            shards=shards,
            forked_shards=(shards - 1,),
            seed=41 + shards,
            ops_per_client=8 if quick else 12,
            run_for=400.0 if quick else 600.0,
        )
        results.append(result)
        latencies[shards] = result.detection_latency
        rows.append(_row(f"{shards} shards", result))

    # -- sweep 2: fraction of malicious shards at 4 shards --------------- #
    fractions = ((1,), (1, 2)) if quick else ((1,), (1, 2), (1, 2, 3))
    fanout = {}
    for forked in fractions:
        result = split_brain_shard_scenario(
            num_clients=num_clients,
            shards=4,
            forked_shards=forked,
            seed=61 + len(forked),
            ops_per_client=8 if quick else 12,
            run_for=400.0 if quick else 600.0,
        )
        results.append(result)
        fanout[len(forked)] = len(result.failed_clients)
        rows.append(_row(f"4 shards, {len(forked)}/4 forking", result))

    table = format_table(
        [
            "cluster",
            "forking shards",
            "clients notified",
            "detection scope",
            "avoiders completed",
            "detection latency after fork",
        ],
        rows,
        title="Sharded split-brain: per-shard detection scope and latency",
    )

    detected = [r.detection_latency for r in results]
    ordered_fanout = [fanout[k] for k in sorted(fanout)]
    findings = {
        "every run notified exactly the clients that touched a forked shard": all(
            r.exact_detection for r in results
        ),
        "no avoider was ever notified": all(
            not (r.failed_clients & r.avoiders) for r in results
        ),
        "avoiders completed their full honest-shard workload in every run": all(
            r.stats.all_done(r.avoiders) for r in results
        ),
        "every forked cluster was detected": all(
            not math.isnan(lat) for lat in detected
        ),
        "notification fan-out grows with the malicious fraction": (
            ordered_fanout == sorted(ordered_fanout)
        ),
        "worst detection latency after the fork": max(
            lat for lat in detected if not math.isnan(lat)
        ),
    }
    return ExperimentResult(
        experiment_id="E16",
        title="Cluster split-brain: detection scope, latency and fan-out",
        paper_claim=(
            "Extension of the paper's completeness/accuracy to a sharded "
            "deployment: each shard is an independent fail-aware domain, so "
            "a server that forks one shard while serving others honestly is "
            "detected by — and reported to — exactly the clients whose "
            "operations depended on the forked shard, while honest shards "
            "continue to complete operations for everyone (per-shard "
            "wait-freedom)."
        ),
        table=table,
        findings=findings,
    )
