"""E9 — stability detection (Definition 5, conditions 6-7).

Measures the time from an operation's completion until it is stable
w.r.t. all clients, as a function of the dummy-read period (the paper's
version-propagation mechanism), and verifies that stable prefixes are
linearizable.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.api import FaustParams, SystemConfig, open_system
from repro.consistency.linearizability import check_linearizability
from repro.experiments.base import ExperimentResult
from repro.history.history import History


def _time_to_full_stability(period: float, seed: int) -> tuple[float, bool]:
    system = open_system(
        SystemConfig(
            num_clients=3,
            seed=seed,
            faust=FaustParams(
                dummy_read_period=period,
                probe_check_period=period * 2,
                delta=period * 6,
            ),
        ),
        backend="faust",
    )
    handle = system.session(0).write(b"the-op")
    t = handle.result(timeout=1_000).timestamp
    completed_at = system.now
    reached = system.run_until(
        lambda: system.clients[0].tracker.stable_timestamp_for_all() >= t,
        timeout=50_000,
    )
    elapsed = system.now - completed_at
    # Stability-detection accuracy: the stable prefix is linearizable.
    stable_t = system.clients[0].tracker.stable_timestamp_for_all()
    prefix_ops = [
        op
        for op in system.history()
        if op.complete and not (op.client == 0 and (op.timestamp or 0) > stable_t)
    ]
    prefix_lin = check_linearizability(History(prefix_ops)).ok
    return (elapsed if reached else float("inf")), prefix_lin


def run(quick: bool = False) -> ExperimentResult:
    periods = (2.0, 8.0) if quick else (1.0, 2.0, 4.0, 8.0, 16.0)
    seeds = (5,) if quick else (5, 6, 7)
    rows = []
    by_period = {}
    prefixes_ok = True
    for period in periods:
        elapsed_all = []
        for seed in seeds:
            elapsed, prefix_lin = _time_to_full_stability(period, seed)
            prefixes_ok &= prefix_lin
            elapsed_all.append(elapsed)
        mean = sum(elapsed_all) / len(elapsed_all)
        by_period[period] = mean
        rows.append([period, round(mean, 1), round(min(elapsed_all), 1), round(max(elapsed_all), 1)])
    table = format_table(
        ["dummy-read period", "mean time to full stability", "min", "max"],
        rows,
        title="Write completion -> stable w.r.t. all 3 clients (correct server)",
    )
    findings = {
        "every operation eventually became stable": all(
            row[1] != float("inf") for row in rows
        ),
        "stability latency grows with the dummy-read period": by_period[periods[-1]]
        > by_period[periods[0]],
        "stable prefixes are linearizable": prefixes_ok,
    }
    return ExperimentResult(
        experiment_id="E9",
        title="Stability-detection latency vs. dummy-read period",
        paper_claim=(
            "Every operation of a correct client eventually becomes stable "
            "w.r.t. every correct client (completeness), and stable prefixes "
            "are linearizable (stability-detection accuracy) — propagation is "
            "driven by periodic dummy reads and offline version exchange."
        ),
        table=table,
        findings=findings,
    )
