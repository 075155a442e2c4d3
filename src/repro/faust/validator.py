"""Executable Definition 5: validate a whole FAUST run condition by condition.

Given a finished (quiescent) :class:`~repro.workloads.runner.StorageSystem`
that ran FAUST clients, :func:`validate_fail_aware_run` checks every
condition of the paper's central definition:

1. **Linearizability with correct server** — via the independent checker.
2. **Wait-freedom with correct server** — every operation invoked by a
   non-crashed client completed.
3. **Causality** — always, server correct or not.
4. **Integrity** — per-client timestamps strictly increase.
5. **Failure-detection accuracy** — ``fail_i`` implies the server is
   faulty (so with a correct server no client outputs ``fail_i``).
6. **Stability-detection accuracy** — the operations stable w.r.t. *all*
   clients, closed under causal precedence, form a linearizable
   sub-history.  (Definition 5 asks for a common view of a prefix; for
   the all-clients case that view is a linearization, which is what we
   check — on the causally-closed stable set, since messages still in
   flight may make the raw set slightly ragged.)
7. **Detection completeness** — bounded-time rendition: for every pair of
   correct clients ``(C_i, C_j)`` and every timestamp ``t`` returned to
   ``C_i`` by the completeness cutoff, either fail occurred at all
   correct clients or ``W_i[j] >= t`` by the end of the run.  (The paper
   quantifies over infinite executions; a finite run checks the property
   up to a cutoff with enough settle time after it.)

The validator is what the integration suite runs against both honest and
Byzantine deployments — Definition 5 as a regression test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.consistency.causal import check_causal_consistency
from repro.consistency.linearizability import check_linearizability
from repro.consistency.report import CheckResult, ok, violated
from repro.history.causality import build_causal_structure
from repro.history.history import History
from repro.workloads.runner import StorageSystem


@dataclass
class FailAwareReport:
    """Per-condition verdicts for one run."""

    conditions: dict[str, CheckResult] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.conditions.values())

    def __bool__(self) -> bool:
        return self.ok

    def failures(self) -> list[CheckResult]:
        return [result for result in self.conditions.values() if not result.ok]

    def render(self) -> str:
        lines = []
        for name, result in self.conditions.items():
            status = "OK " if result.ok else "FAIL"
            detail = "" if result.ok else f" — {result.violation}"
            lines.append(f"[{status}] {name}{detail}")
        return "\n".join(lines)


def _correct_clients(system: StorageSystem) -> list:
    """Clients that did not crash (the paper's notion of correct client)."""
    return [client for client in system.clients if not client.crashed]


def _check_wait_freedom(
    system: StorageSystem, history: History, cutoff: float
) -> CheckResult:
    """Finite-run rendition of wait-freedom.

    The paper's condition is *eventual* completion, so an operation still
    in flight at the very end of a finite run proves nothing (FAUST's
    periodic dummy reads guarantee something is always in flight).  An
    operation invoked before ``cutoff`` — which the caller follows with a
    long settle phase — and still incomplete is a genuine violation.
    """
    name = "wait-freedom (correct server)"
    for op in history:
        if op.complete or op.invoked_at > cutoff:
            continue
        client = system.clients[op.client]
        if not client.crashed:
            return violated(
                name,
                f"operation {op.describe()} of non-crashed {client.name} "
                f"(invoked at t={op.invoked_at:.1f}, cutoff {cutoff:.1f}) "
                f"never completed under a correct server",
            )
    return ok(name)


def _check_integrity(history: History) -> CheckResult:
    name = "integrity (monotonic timestamps)"
    for client in history.clients():
        stamps = [
            op.timestamp
            for op in history.restrict_to_client(client)
            if op.complete and op.timestamp is not None
        ]
        for earlier, later in zip(stamps, stamps[1:]):
            if later <= earlier:
                return violated(
                    name,
                    f"C{client + 1} returned timestamp {later} after {earlier}",
                )
    return ok(name)


def _check_accuracy(system: StorageSystem, server_correct: bool) -> CheckResult:
    name = "failure-detection accuracy"
    failed = [c for c in system.clients if c.failed]
    if failed and server_correct:
        reasons = {c.name: c.fail_reason for c in failed}
        return violated(
            name, f"fail raised against a correct server: {reasons}"
        )
    return ok(name)


def _check_stability_accuracy(system: StorageSystem, history: History) -> CheckResult:
    name = "stability-detection accuracy"
    complete = history.completed_for_checking()
    structure = build_causal_structure(complete)

    stable_ids: set[int] = set()
    for client in system.clients:
        if client.failed:
            continue  # cuts are frozen at failure; nothing new to certify
        cutoff = client.tracker.stable_timestamp_for_all()
        for op in complete.restrict_to_client(client.client_id):
            if op.timestamp is not None and op.timestamp <= cutoff:
                stable_ids.add(op.op_id)
    if not stable_ids:
        return ok(name, witness="no operation was stable w.r.t. all clients")

    # Causal closure: a stable read's source write (and everything before
    # it) belongs to the certified prefix too.
    closed = stable_ids | structure.ancestors(*stable_ids)
    # Carry the checkpoint base: on a compacted history the prefix does
    # not start at BOTTOM, and the checker must know it.
    prefix = History(
        [op for op in complete if op.op_id in closed], base=complete.base
    )
    verdict = check_linearizability(prefix)
    if not verdict.ok:
        return violated(
            name,
            f"the stable prefix ({len(prefix)} ops) is not linearizable: "
            f"{verdict.violation}",
        )
    return ok(name, witness=f"{len(prefix)} operations certified")


def _check_completeness(
    system: StorageSystem, history: History, cutoff: float
) -> CheckResult:
    name = "detection completeness"
    correct = _correct_clients(system)
    all_failed = all(c.failed for c in correct)
    if all_failed:
        return ok(name, witness="fail occurred at every correct client")
    for client in correct:
        if client.failed:
            continue
        targets = [
            op.timestamp
            for op in history.restrict_to_client(client.client_id)
            if op.complete and op.responded_at <= cutoff and op.timestamp is not None
        ]
        if not targets:
            continue
        needed = max(targets)
        for peer in correct:
            covered = client.tracker.stable_timestamp_for(peer.client_id)
            if covered < needed:
                return violated(
                    name,
                    f"{client.name}'s timestamp {needed} (returned by "
                    f"t={cutoff:.1f}) never became stable w.r.t. "
                    f"{peer.name} (reached {covered}) and no system-wide "
                    f"fail occurred",
                )
    return ok(name)


def validate_fail_aware_run(
    system: StorageSystem,
    server_correct: bool,
    completeness_cutoff: float | None = None,
) -> FailAwareReport:
    """Check a finished run against all seven conditions of Definition 5.

    ``completeness_cutoff`` bounds condition 7: operations completed by
    that virtual time must be stable (or fail must have fired everywhere)
    by the end of the run.  It defaults to half the run's duration, which
    suits runs that end with a long settle phase.
    """
    history = system.history()
    report = FailAwareReport()
    if completeness_cutoff is None:
        completeness_cutoff = system.now / 2

    lin_name = "linearizability (correct server)"
    if server_correct:
        verdict = check_linearizability(history)
        report.conditions[lin_name] = (
            ok(lin_name) if verdict.ok else violated(lin_name, verdict.violation or "")
        )
        report.conditions["wait-freedom (correct server)"] = _check_wait_freedom(
            system, history, completeness_cutoff
        )
    else:
        report.conditions[lin_name] = ok(
            lin_name, witness="not required: server faulty"
        )
        report.conditions["wait-freedom (correct server)"] = ok(
            "wait-freedom (correct server)", witness="not required: server faulty"
        )

    causal = check_causal_consistency(history)
    causal_name = "causality (always)"
    report.conditions[causal_name] = (
        ok(causal_name) if causal.ok else violated(causal_name, causal.violation or "")
    )
    report.conditions["integrity (monotonic timestamps)"] = _check_integrity(history)
    report.conditions["failure-detection accuracy"] = _check_accuracy(
        system, server_correct
    )
    report.conditions["stability-detection accuracy"] = _check_stability_accuracy(
        system, history
    )
    report.conditions["detection completeness"] = _check_completeness(
        system, history, completeness_cutoff
    )
    return report
