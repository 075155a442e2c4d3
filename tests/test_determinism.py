"""Whole-system determinism: identical seeds give identical runs.

DESIGN.md §5 makes determinism a requirement; these tests pin it at the
strongest observable level — full message traces and notification logs —
for plain USTOR, FAUST (timers, probes, offline traffic included), and a
Byzantine deployment — within one build, and against SHA-256 digests
pinned across builds (a refactor of how deployments are assembled must
not move a single message).
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.api import FaustParams, SystemConfig, open_system
from repro.ustor.byzantine import SplitBrainServer
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts


def trace_fingerprint(system):
    messages = [
        (m.sent_at, m.delivered_at, m.src, m.dst, m.kind, m.size)
        for m in system.trace.messages
    ]
    notes = [(n.time, n.source, n.kind, repr(n.payload)) for n in system.trace.notes]
    history = [
        (op.client, op.kind.value, op.register, op.invoked_at, op.responded_at)
        for op in system.history()
    ]
    return messages, notes, history


def run_ustor(seed):
    system = open_system(SystemConfig(num_clients=3, seed=seed), backend="ustor")
    scripts = generate_scripts(
        3, WorkloadConfig(ops_per_client=8, mean_think_time=1.0), random.Random(seed)
    )
    driver = Driver(system)
    driver.attach_all(scripts)
    system.run(until=300)
    return trace_fingerprint(system)


def run_faust(seed):
    system = open_system(
        SystemConfig(
            num_clients=3,
            seed=seed,
            faust=FaustParams(
                dummy_read_period=3.0, probe_check_period=4.0, delta=12.0
            ),
        ),
    )
    scripts = generate_scripts(
        3, WorkloadConfig(ops_per_client=5, mean_think_time=1.0), random.Random(seed)
    )
    driver = Driver(system)
    driver.attach_all(scripts)
    system.run(until=200)
    return trace_fingerprint(system)


def run_attack(seed):
    system = open_system(
        SystemConfig(
            num_clients=4,
            seed=seed,
            server_factory=lambda n, name: SplitBrainServer(
                n, groups=[{0, 1}, {2, 3}], fork_time=10.0, name=name
            ),
            faust=FaustParams(delta=15.0, probe_check_period=5.0),
        ),
    )
    scripts = generate_scripts(
        4, WorkloadConfig(ops_per_client=5, mean_think_time=1.0), random.Random(seed)
    )
    driver = Driver(system)
    driver.attach_all(scripts)
    system.run(until=400)
    return trace_fingerprint(system)


#: SHA-256 of ``repr(trace_fingerprint(...))`` for seed 7, recorded when
#: these runs were first pinned; a fresh interpreter must reproduce them.
PINNED = {
    "run_ustor": "22fc77449a27271af85d8bf679edfdc0d4335565f4b90d4541443463e5e31876",
    "run_faust": "06e934254d9fcaf0bdb27ad2808aeceef56a4c841c24809277e8ea807634202b",
    "run_attack": "6b79c51890e273ccc8dc7d0a31c43408adf8c5d67add92fbe888224dea67b003",
}


class TestDeterminism:
    @pytest.mark.parametrize("run", [run_ustor, run_faust, run_attack], ids=list(PINNED))
    def test_trace_matches_pinned_digest(self, run):
        digest = hashlib.sha256(repr(run(7)).encode()).hexdigest()
        assert digest == PINNED[run.__name__]

    def test_ustor_trace_identical(self):
        assert run_ustor(7) == run_ustor(7)

    def test_faust_trace_identical(self):
        assert run_faust(7) == run_faust(7)

    def test_attack_trace_identical(self):
        assert run_attack(7) == run_attack(7)

    def test_different_seeds_differ(self):
        assert run_faust(7) != run_faust(8)

    def test_notifications_deterministic(self):
        _m1, notes1, _h1 = run_faust(9)
        _m2, notes2, _h2 = run_faust(9)
        assert notes1 == notes2
        assert any(kind == "stable" for _t, _s, kind, _p in notes1)
