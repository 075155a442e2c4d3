"""One benchmark per experiment (E1-E14 and E19); asserts each headline
finding.

This is the harness behind EXPERIMENTS.md: every figure and analytical
claim of the paper is regenerated here in quick mode.  Full-size sweeps:
``python -m repro.experiments --write``; their every byte (E15-E18 and
E20 included) is pinned by ``tests/test_experiments_golden.py``.
"""

from __future__ import annotations

from repro.experiments import (
    e01_stability_cut,
    e02_weak_fork_separation,
    e03_rounds_latency,
    e04_msg_complexity,
    e05_wait_freedom,
    e06_linearizability,
    e07_causality_attacks,
    e08_detection_latency,
    e09_stability_latency,
    e10_server_gc,
    e11_crypto_cost,
    e12_notion_separation,
    e13_digest_ablation,
    e14_definition5_validation,
    e19_checkpoint_memory,
)


def test_e01_figure2_stability_cut(run_experiment):
    result = run_experiment(e01_stability_cut)
    assert result.findings["figure-2 cut (10, 8, 3) emitted"]
    assert not result.findings["false failure alarms"]


def test_e02_figure3_separation(run_experiment):
    result = run_experiment(e02_weak_fork_separation)
    assert result.findings["history matches Figure 3"]
    assert result.findings["separation matches the paper"]
    assert result.findings["protocol-derived views certify weak fork-linearizability"]
    assert result.findings["FAUST detects the fork at all clients via offline exchange"]


def test_e03_rounds_and_latency(run_experiment):
    result = run_experiment(e03_rounds_latency)
    assert result.findings["USTOR critical path is one round per op"]
    assert result.findings["USTOR latency flat under contention"]
    assert result.findings["lock-step latency grows with contention"]


def test_e04_linear_message_complexity(run_experiment):
    result = run_experiment(e04_msg_complexity)
    assert result.findings["growth is linear (R^2 of linear fit)"] > 0.99


def test_e05_wait_freedom(run_experiment):
    result = run_experiment(e05_wait_freedom)
    assert result.findings["USTOR wait-free in every run"]
    assert result.findings["lock-step blocked in every run"]


def test_e06_linearizability_rate(run_experiment):
    result = run_experiment(e06_linearizability)
    assert result.findings["claim holds"]


def test_e07_causality_under_attack(run_experiment):
    result = run_experiment(e07_causality_attacks)
    assert result.findings["causality holds under every attack"]


def test_e08_detection(run_experiment):
    result = run_experiment(e08_detection_latency)
    assert result.findings["all correct clients detect the fork (every DELTA)"]
    assert result.findings["false alarms across correct-server runs"].startswith("0/")


def test_e09_stability_latency(run_experiment):
    result = run_experiment(e09_stability_latency)
    assert result.findings["every operation eventually became stable"]
    assert result.findings["stable prefixes are linearizable"]


def test_e10_garbage_collection(run_experiment):
    result = run_experiment(e10_server_gc)
    assert result.findings["eager mode drains L completely at quiescence"]
    assert result.findings["piggyback mode leaves residual entries in L"]


def test_e11_crypto_cost(run_experiment):
    result = run_experiment(e11_crypto_cost)
    assert result.findings["hmac stand-in speedup over ed25519 (sign)"] > 1.0


def test_e12_notion_separation(run_experiment):
    result = run_experiment(e12_notion_separation)
    assert result.findings["therefore the notions are incomparable (Section 4 claim)"]


def test_e13_digest_ablation(run_experiment):
    result = run_experiment(e13_digest_ablation)
    assert result.findings["figure-3 join detected only with digests"]
    assert result.findings["split-brain detected by both"]


def test_e14_definition5_validation(run_experiment):
    result = run_experiment(e14_definition5_validation)
    assert result.findings["Definition 5 holds in every run"]


def test_e19_checkpoint_memory(run_experiment):
    result = run_experiment(e19_checkpoint_memory)
    assert result.findings["uncheckpointed resident state keeps growing"]
    assert result.findings["checkpointing flattens the growth curve (ratio ~1)"]
    assert result.findings["latency percentiles are identical in every column"]
    assert result.findings["no client failed and every audit stayed clean"]
