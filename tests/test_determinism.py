"""Whole-system determinism: identical seeds give identical runs.

DESIGN.md §5 makes determinism a requirement; these tests pin it at the
strongest observable level — full message traces, notes and the hub's
``stable_i`` / ``fail_i`` outputs — for plain USTOR, FAUST (timers,
probes, offline traffic included), and a Byzantine deployment — within
one build, and against SHA-256 digests
pinned across builds (a refactor of how deployments are assembled must
not move a single message).
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.api import FaustParams, StabilityNotification, SystemConfig, open_system
from repro.ustor.byzantine import SplitBrainServer
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts


def tap(system):
    """Every message record of ``system``'s trace and every output of its
    hub from here on: the trace keeps only per-kind tallies and the hub
    no ``stable_i`` stream, so the fingerprint taps both right after
    ``open_system``."""
    records = []
    system.trace.tap(records.append)
    return records, system.notifications.subscribe()


def trace_fingerprint(system, tapped):
    records, subscription = tapped
    messages = [
        (m.sent_at, m.delivered_at, m.src, m.dst, m.kind, m.size)
        for m in records
    ]
    notes = [(n.time, n.source, n.kind, repr(n.payload)) for n in system.trace.notes]
    history = [
        (op.client, op.kind.value, op.register, op.invoked_at, op.responded_at)
        for op in system.history()
    ]
    # The clients' stable_i / fail_i outputs, as the hub fanned them out.
    outputs = [
        (e.seq, e.time, e.client, e.shard, type(e).__name__,
         repr(e.cut if isinstance(e, StabilityNotification) else e.reason))
        for e in subscription.events
    ]
    emitted = system.notifications.emitted
    assert [e.seq for e in subscription.events] == list(range(emitted))
    return messages, notes, history, outputs


def run_ustor(seed):
    system = open_system(SystemConfig(num_clients=3, seed=seed), backend="ustor")
    tapped = tap(system)
    scripts = generate_scripts(
        3, WorkloadConfig(ops_per_client=8, mean_think_time=1.0), random.Random(seed)
    )
    driver = Driver(system)
    driver.attach_all(scripts)
    system.run(until=300)
    return trace_fingerprint(system, tapped)


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
    tapped = tap(system)
    scripts = generate_scripts(
        3, WorkloadConfig(ops_per_client=5, mean_think_time=1.0), random.Random(seed)
    )
    driver = Driver(system)
    driver.attach_all(scripts)
    system.run(until=200)
    return trace_fingerprint(system, tapped)


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
    tapped = tap(system)
    scripts = generate_scripts(
        4, WorkloadConfig(ops_per_client=5, mean_think_time=1.0), random.Random(seed)
    )
    driver = Driver(system)
    driver.attach_all(scripts)
    system.run(until=400)
    return trace_fingerprint(system, tapped)


def without_sizes(fingerprint):
    """The fingerprint minus each message's ``size``: the schedule alone —
    who sent what kind of message when, every note, every operation and
    every output."""
    messages, notes, history, outputs = fingerprint
    return [message[:5] for message in messages], notes, history, outputs


#: SHA-256 of ``repr(trace_fingerprint(...))`` for seed 7; a fresh
#: interpreter must reproduce them.  A change to the wire-size model (a
#: COMMIT that carries ``t`` in place of its version, a REPLY whose
#: versions travel relative to its client's committed version) re-pins
#: these ...
PINNED = {
    "run_ustor": "0d95791e49318b5b5a25a8b437b7668e74541d05d5278b6f84ddf229d448a0d2",
    "run_faust": "dec1b2021c999f4694d6aeb5f4d47e94e03c0c5094e713c04364ee178eaa9eaf",
    "run_attack": "2f7fdce2422a654e941a5fd0c5c45988b7a157a1088690c62b466cff1dd2e9f5",
}

#: ... and must leave these alone: SHA-256 of ``repr(without_sizes(...))``
#: for the same runs.  Re-pinned once, when the fingerprint gained the
#: hub's outputs and the trace stopped repeating them as ``stable`` /
#: ``*-fail`` notes: the build before that, with those notes dropped,
#: gives these digests.
PINNED_SCHEDULE = {
    "run_ustor": "bd2075d30e129d18216ac77f0c87dfe48a7f4f0757c1e8b3eedaf944156df8b5",
    "run_faust": "4f1e046cbf0d3910333a20a14265245a5924289624e6b63848030f24dae060bd",
    "run_attack": "cd846113cfab87bd217c693423d42ae1d986c95e9ba5009f958140b6ca99187c",
}


class TestDeterminism:
    @pytest.mark.parametrize("run", [run_ustor, run_faust, run_attack], ids=list(PINNED))
    def test_trace_matches_pinned_digest(self, run):
        digest = hashlib.sha256(repr(run(7)).encode()).hexdigest()
        assert digest == PINNED[run.__name__]

    @pytest.mark.parametrize("run", [run_ustor, run_faust, run_attack], ids=list(PINNED))
    def test_schedule_matches_pinned_digest(self, run):
        schedule = repr(without_sizes(run(7)))
        assert hashlib.sha256(schedule.encode()).hexdigest() == (
            PINNED_SCHEDULE[run.__name__]
        )

    def test_ustor_trace_identical(self):
        assert run_ustor(7) == run_ustor(7)

    def test_faust_trace_identical(self):
        assert run_faust(7) == run_faust(7)

    def test_attack_trace_identical(self):
        assert run_attack(7) == run_attack(7)

    def test_different_seeds_differ(self):
        assert run_faust(7) != run_faust(8)

    def test_notifications_deterministic(self):
        *_run1, outputs1 = run_faust(9)
        *_run2, outputs2 = run_faust(9)
        assert outputs1 == outputs2
        assert any(kind == "StabilityNotification" for _q, _t, _c, _s, kind, _p in outputs1)
