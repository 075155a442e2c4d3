"""E20 — membership leases: evicting a dead signer resumes the chain.

The checkpoint protocol (E19) buys bounded state with an all-members
quorum: every co-signed cut needs a share from *every* signer, so one
crashed client wedges the chain and resident state silently reverts to
the unbounded regime — the paper's fault model (any number of clients
may crash, Section 2) applied to the extension kills the extension.

The lease ledger (``repro.faust.membership``) leases each signer slot
against checkpoint progress: a member that blocks the next link for
``lease_checkpoints`` consecutive checks lapses, ``evict_after``
further checks later the survivors co-sign a link of the one chain,
``H("CHECKPOINT", seq, cut, members, parent)``, whose member set drops
it, and the chain resumes over the shrunken member set.  A returnee is
re-admitted through a link that adds it back — never a false
``fail_i``, because a stale-but-honest client's shares are lag, not
forking evidence.  "final epoch" counts the member changes in the
chain, and "checkpoints installed" counts every link, member changes
included.

This experiment injects the membership test matrix into the same seeded
open-loop workload (``repro scale --client-faults``):

* ``crash-forever`` with membership **off** — the wedge: installs stop
  at the crash, the stall clock runs to the horizon, state grows;
* ``crash-forever`` with membership **on** — one eviction, the chain
  resumes, growth flattens back to ~1;
* ``lease-expiry`` + return — evicted while away, re-admitted on
  return, zero failures either way.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.experiments.base import ExperimentResult
from repro.faust.checkpoint import CheckpointPolicy
from repro.faust.membership import MembershipPolicy
from repro.workloads.generator import OpenLoopConfig
from repro.workloads.scale import ScaleConfig, ScaleReport, run_scale

SEED = 20260807


def _run(
    duration: float, membership: bool, faults: tuple[str, ...]
) -> ScaleReport:
    return run_scale(
        ScaleConfig(
            num_clients=4,
            seed=SEED,
            open_loop=OpenLoopConfig(rate=0.5, duration=duration),
            checkpoint=CheckpointPolicy(interval=8, keep_tail=2),
            membership=MembershipPolicy() if membership else None,
            client_faults=faults,
            sample_every=20.0,
        )
    )


def run(quick: bool = False) -> ExperimentResult:
    """Run the fault matrix; ``quick`` shortens the horizon."""
    duration = 400.0 if quick else 700.0
    crash = (f"crash-forever:2@{120}",)
    away = (f"lease-expiry:1@{100}+{200}",)
    reports = {
        "fault-free, membership on": _run(duration, True, ()),
        "crash-forever, membership off": _run(duration, False, crash),
        "crash-forever, membership on": _run(duration, True, crash),
        "lease-expiry + return, membership on": _run(duration, True, away),
    }

    def row(name: str, r: ScaleReport) -> list:
        return [
            name,
            f"{r.completed}/{r.planned}",
            r.checkpoints_installed,
            r.epoch,
            ",".join(map(str, r.evicted_clients)) or "-",
            r.rejoins,
            f"{r.growth_ratio:.2f}",
            f"{r.checkpoint_stall_seconds:.0f}s",
            r.failed_clients,
        ]

    table = format_table(
        [
            "scenario",
            "ops completed",
            "checkpoints installed",
            "final epoch",
            "evicted",
            "rejoins",
            "post-warmup growth",
            "final stall",
            "false fails",
        ],
        [row(name, report) for name, report in reports.items()],
        title="Client faults vs. the checkpoint chain (same seeded workload)",
    )

    clean = reports["fault-free, membership on"]
    wedged = reports["crash-forever, membership off"]
    evicted = reports["crash-forever, membership on"]
    returned = reports["lease-expiry + return, membership on"]
    findings = {
        "fault-free, the lease layer is invisible (epoch stays 0)": (
            clean.epoch == 0 and clean.evicted_clients == ()
        ),
        "membership off, one dead signer wedges the chain": (
            wedged.checkpoints_installed <= 8
            and wedged.checkpoint_stall_seconds > duration / 3
        ),
        "membership off, resident state reverts to unbounded growth": (
            wedged.growth_ratio > 1.1
        ),
        "membership on, the quorum evicts the dead signer once": (
            evicted.epoch == 1 and evicted.evicted_clients == (2,)
        ),
        "membership on, the chain resumes and growth flattens to ~1": (
            evicted.checkpoints_installed > 2 * wedged.checkpoints_installed
            and evicted.growth_ratio <= 1.1
        ),
        "a lease-expired returnee rejoins through a link that adds it back": (
            returned.epoch == 2
            and returned.rejoins >= 1
            and returned.evicted_clients == ()
        ),
        "eviction is membership, not failure: zero false fail_i": all(
            r.failed_clients == 0 for r in reports.values()
        ),
        "every verdict stayed clean under every fault": all(
            all(r.checker_ok.values()) for r in reports.values()
        ),
    }
    return ExperimentResult(
        experiment_id="E20",
        title="Membership leases under the checkpoint protocol",
        paper_claim=(
            "Section 2 allows any number of clients to crash, but the "
            "checkpoint extension's all-members quorum makes one dead "
            "signer wedge the co-signed chain forever — bounded state "
            "quietly degrades to unbounded. Lease-based membership lets "
            "the surviving quorum evict a lapsed signer through a co-signed "
            "link of the same chain that drops it, and resume the chain "
            "over the new member set, while an honest returnee is "
            "re-admitted through a link that adds it back and is never "
            "mistaken for a forking server."
        ),
        table=table,
        findings=findings,
    )
