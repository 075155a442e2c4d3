"""The streaming incremental checkers agree with the offline ones.

Three layers of evidence:

* handcrafted histories hitting each violation rule (value from the
  future, stale read, new/old inversion, causally-overwritten read,
  causal cycle, fabricated value), replayed through
  :func:`~repro.consistency.incremental.replay_history` and compared
  against the offline verdict;
* randomized protocol runs — honest and Byzantine — with the checkers
  subscribed to the *live* recorder, compared against the offline
  checkers on the final history (and at every periodic audit via
  :class:`~repro.workloads.runner.IncrementalAuditor`);
* the O(delta) accounting: each streamed operation is examined once,
  audits read verdicts in O(1).
"""

from __future__ import annotations

import random

import pytest

from histbuild import h, r, w
from repro.api import FaustParams, SystemConfig, open_system
from repro.common.types import BOTTOM, OpKind
from repro.consistency import (
    IncrementalCausalChecker,
    IncrementalLinearizabilityChecker,
    attach_incremental_checkers,
    check_causal_consistency,
    check_linearizability,
    replay_history,
)
from repro.ustor.byzantine import ADVERSARIES, SplitBrainServer, TamperingServer
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts


def _both(history):
    lin = replay_history(IncrementalLinearizabilityChecker(), history)
    causal = replay_history(IncrementalCausalChecker(), history)
    return lin, causal


# --------------------------------------------------------------------- #
# Handcrafted rule hits (incremental verdict == offline verdict)
# --------------------------------------------------------------------- #


class TestHandcrafted:
    def test_clean_sequential_history_passes(self):
        history = h(
            w(0, b"a", 0, 1),
            r(1, 0, b"a", 2, 3),
            w(0, b"b", 4, 5),
            r(1, 0, b"b", 6, 7),
        )
        lin, causal = _both(history)
        assert lin.ok and causal.ok
        assert check_linearizability(history).ok

    def test_value_from_the_future(self):
        history = h(r(1, 0, b"a", 0, 1), w(0, b"a", 2, 3))
        lin, _causal = _both(history)
        assert not lin.ok
        assert not check_linearizability(history).ok
        assert "future" in lin.violation

    def test_stale_read(self):
        history = h(
            w(0, b"a", 0, 1),
            w(0, b"b", 2, 3),
            r(1, 0, b"a", 4, 5),  # b completed before the read was invoked
        )
        lin, _ = _both(history)
        assert not lin.ok
        assert not check_linearizability(history).ok
        assert "stale" in lin.violation

    def test_stale_bottom_read(self):
        history = h(w(0, b"a", 0, 1), r(1, 0, BOTTOM, 2, 3))
        lin, causal = _both(history)
        assert not lin.ok
        assert not check_linearizability(history).ok
        # Causally the BOTTOM read is fine: the write is not in C2's past.
        assert causal.ok == check_causal_consistency(history).ok

    def test_new_old_inversion(self):
        # w_b is still in flight when r2 is invoked (so r2 is not stale),
        # yet r1 — which precedes r2 — already observed the newer value.
        history = h(
            w(0, b"a", 0, 1),
            w(0, b"b", 2, 10),
            r(1, 0, b"b", 2.5, 4),   # sees the new value...
            r(2, 0, b"a", 5, 6),     # ...then a later read sees the old one
        )
        lin, _ = _both(history)
        assert not lin.ok
        assert not check_linearizability(history).ok
        assert "inversion" in lin.violation

    def test_causally_overwritten_read(self):
        # C2 reads b (so a -> b is in its past), then reads a again.
        history = h(
            w(0, b"a", 0, 1),
            w(0, b"b", 2, 3),
            r(1, 0, b"b", 4, 5),
            r(1, 0, b"a", 6, 7),
        )
        _, causal = _both(history)
        assert not causal.ok
        assert not check_causal_consistency(history).ok
        assert "overwritten" in causal.violation

    def test_causally_overwritten_bottom(self):
        history = h(
            w(0, b"a", 0, 1),
            r(1, 0, b"a", 2, 3),
            r(1, 0, BOTTOM, 4, 5),
        )
        _, causal = _both(history)
        assert not causal.ok
        assert not check_causal_consistency(history).ok

    def test_causal_cycle(self):
        # r1 reads v before anyone wrote it; the eventual writer causally
        # depends on r1 — reads-from closes a causal cycle.
        history = h(
            r(0, 1, b"v", 0, 1),
            w(0, b"u", 2, 3),
            r(1, 0, b"u", 4, 5),
            w(1, b"v", 6, 7),
        )
        _, causal = _both(history)
        offline = check_causal_consistency(history)
        assert not causal.ok and not offline.ok
        assert "cycle" in causal.violation

    def test_fabricated_value(self):
        history = h(w(0, b"a", 0, 1), r(1, 0, b"zzz", 2, 3))
        lin, causal = _both(history)
        assert not lin.ok and not causal.ok
        assert not check_linearizability(history).ok
        assert not check_causal_consistency(history).ok
        assert "never" in lin.violation and "never" in causal.violation

    def test_incomplete_ops_match_offline_semantics(self):
        # A pending read is dropped; a pending write may have been read.
        history = h(
            w(0, b"a", 0, None),       # write still in flight
            r(1, 0, b"a", 2, 3),       # legally returns it
            r(2, 0, None, 4, None),    # incomplete read: ignored
        )
        lin, causal = _both(history)
        assert lin.ok == check_linearizability(history).ok
        assert causal.ok == check_causal_consistency(history).ok

    def test_duplicate_write_values_flagged(self):
        checker = IncrementalLinearizabilityChecker()
        verdict = replay_history(
            checker, h(w(0, b"a", 0, 1), w(0, b"a", 2, 3))
        )
        assert not verdict.ok
        assert "unique" in verdict.violation

    def test_orphan_read_is_a_violation_until_resolved(self):
        checker = IncrementalLinearizabilityChecker()
        checker.on_invoke(w(0, b"a", 0, None, op_id=9001))
        read = r(1, 0, b"b", 1, 2, op_id=9002)
        checker.on_response(read)
        assert not checker.result().ok  # offline on this prefix agrees
        write = w(0, b"b", 3, None, op_id=9003)
        checker.on_invoke(write)
        # Resolution turns it into a value-from-the-future violation
        # (the read completed before the write was invoked).
        assert not checker.result().ok
        assert "future" in checker.result().violation


# --------------------------------------------------------------------- #
# Live agreement on protocol runs (honest and Byzantine)
# --------------------------------------------------------------------- #


def _live_run(backend, seed, factory=None, num_clients=4, ops=12, until=800.0):
    system = open_system(
        SystemConfig(
            num_clients=num_clients,
            seed=seed,
            server_factory=factory,
            faust=FaustParams(dummy_read_period=5.0),
        ),
        backend=backend,
    )
    live = attach_incremental_checkers(system.recorder)
    auditor = system.attach_audit(every=37.0)
    scripts = generate_scripts(
        num_clients,
        WorkloadConfig(ops_per_client=ops, read_fraction=0.6, mean_think_time=1.5),
        random.Random(seed),
    )
    driver = Driver(system)
    driver.attach_all(scripts)
    system.run(until=until)
    auditor.final()
    return system, live, auditor


#: C2 reads b (so a -> b is in its past), then reads a again: the
#: causally-overwritten read of ``TestHandcrafted``, spread out so that
#: periodic audits fall between its operations.
OVERWRITTEN = h(
    w(0, b"a", 0, 10),
    w(0, b"b", 20, 30),
    r(1, 0, b"b", 40, 50),
    r(1, 0, b"a", 60, 70),
)


def _recorded_run(seed, history):
    """``history`` recorded into an idle USTOR deployment's live recorder
    at its own times, audited as ``_live_run`` audits.  Every USTOR run
    is causal (its guarantee implies causality), so this is how a failing
    causal verdict reaches the live checkers and the auditor."""
    system = open_system(SystemConfig(num_clients=2, seed=seed), backend="ustor")
    live = attach_incremental_checkers(system.recorder)
    auditor = system.attach_audit(every=37.0)
    op_ids = {}

    def begin(op):
        op_ids[op.op_id] = system.recorder.begin(
            op.client, op.kind, op.register, system.now,
            value=op.value if op.kind is OpKind.WRITE else None,
        )

    def end(op):
        system.recorder.end(op_ids[op.op_id], system.now, value=op.value)

    for op in history:
        system.scheduler.schedule_at(op.invoked_at, begin, op)
        system.scheduler.schedule_at(op.responded_at, end, op)
    system.run(until=100.0)
    auditor.final()
    return system, live, auditor


#: test id -> run(seed); the honest server is the backend's default.
RUNS = {
    "honest": lambda seed: _live_run("ustor", seed),
    **{
        name: lambda seed, name=name: _live_run(
            "ustor", seed, ADVERSARIES[name].factory
        )
        for name in ("tampering", "split-brain", "figure3")
    },
    "causally-overwritten": lambda seed: _recorded_run(seed, OVERWRITTEN),
}


@pytest.mark.parametrize("server", sorted(RUNS))
@pytest.mark.parametrize("seed", [1, 7])
def test_live_agreement_with_offline(server, seed):
    system, live, auditor = RUNS[server](seed)
    history = system.history()
    if server == "causally-overwritten":
        # The failing path: both live verdicts say no, as offline does.
        assert not live["causal"].result().ok
        assert not auditor.audits[-1].verdicts["causal"].ok
        assert len(auditor.audits) > 1
    assert live["linearizability"].result().ok == check_linearizability(history).ok
    assert live["causal"].result().ok == check_causal_consistency(history).ok
    # The auditor's final snapshot carries the same verdicts.
    final = auditor.audits[-1]
    assert final.verdicts["linearizability"].ok == check_linearizability(history).ok
    assert final.verdicts["causal"].ok == check_causal_consistency(history).ok


@pytest.mark.parametrize("backend", ["faust", "ustor"])
def test_replay_matches_live(backend):
    system, live, _auditor = _live_run(backend, 23)
    history = system.history()
    assert replay_history(
        IncrementalLinearizabilityChecker(), history
    ).ok == live["linearizability"].result().ok
    assert replay_history(
        IncrementalCausalChecker(), history
    ).ok == live["causal"].result().ok


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", range(20))
def test_live_agreement_seed_sweep(seed):
    factory = None
    if seed % 3 == 1:
        factory = lambda n, name: TamperingServer(  # noqa: E731
            n, target_register=seed % 4, name=name
        )
    elif seed % 3 == 2:
        factory = lambda n, name: SplitBrainServer(  # noqa: E731
            n,
            groups=[{c for c in range(4) if c % 2 == 0},
                    {c for c in range(4) if c % 2}],
            fork_time=5.0 + seed,
            name=name,
        )
    system, live, _ = _live_run("ustor", 100 + seed, factory, ops=16)
    history = system.history()
    assert live["linearizability"].result().ok == check_linearizability(history).ok
    assert live["causal"].result().ok == check_causal_consistency(history).ok


# --------------------------------------------------------------------- #
# The O(delta) accounting and the auditor surface
# --------------------------------------------------------------------- #


def test_audits_examine_each_op_once():
    system, live, auditor = _live_run("ustor", 31)
    total_delta = sum(a.delta_ops for a in auditor.audits)
    # The delta counts operation events once per consistency domain —
    # not once per checker — and nothing is ever rescanned: the audit
    # deltas sum to exactly one domain tally.
    assert total_delta == max(
        c.ops_processed for c in auditor.checkers.values()
    )
    assert total_delta > 0
    assert auditor.ok


def test_auditor_on_cluster_is_per_shard():
    system = open_system(
        SystemConfig(num_clients=4, seed=5, shards=2), backend="cluster"
    )
    auditor = system.attach_audit(every=20.0)
    sessions = system.sessions()
    for i in range(8):
        sessions[i % 4].write(f"val-{i}".encode())
        sessions[(i + 1) % 4].read(i % 4)
    for session in sessions:
        session.barrier(timeout=20_000)
    record = auditor.final()
    assert set(record.verdicts) == {
        "shard0.linearizability", "shard0.causal",
        "shard1.linearizability", "shard1.causal",
    }
    assert record.ok and auditor.ok


def test_auditor_validates_cadence():
    from repro.common.errors import ConfigurationError

    system = open_system(SystemConfig(num_clients=2, seed=1), backend="ustor")
    with pytest.raises(ConfigurationError):
        system.attach_audit(every=0)
    with pytest.raises(ConfigurationError):  # used to hang the run
        system.attach_audit(every=float("nan"))
    with pytest.raises(ValueError):
        attach_incremental_checkers(system.recorder, checks=("nope",))


def test_duplicate_write_then_read_does_not_desync_causal():
    """A duplicate write leaves the sticky verdict without corrupting the
    write-clock index for later reads (regression: IndexError)."""
    checker = IncrementalCausalChecker()
    verdict = replay_history(
        checker,
        h(
            w(0, b"a", 0, 1),
            w(0, b"a", 2, 3),   # duplicate: sticky violation, no mutation
            w(0, b"b", 4, 5),
            r(1, 0, b"b", 6, 7),  # must not crash on the clock index
        ),
    )
    assert not verdict.ok
    assert "unique" in verdict.violation


def test_attach_mid_run_replays_the_past():
    """Attaching checkers (or an auditor) after operations already ran
    replays the recorder's history first — a read returning a pre-attach
    value must not be misreported as fabricated (regression)."""
    system = open_system(SystemConfig(num_clients=2, seed=13), backend="ustor")
    early = system.session(0)
    early.write_sync(b"pre-attach", timeout=2_000)
    # Attach AFTER the write completed.
    live = attach_incremental_checkers(system.recorder)
    auditor = system.attach_audit(every=10.0)
    value, _t = system.session(1).read_sync(0, timeout=2_000)
    assert value == b"pre-attach"
    assert live["linearizability"].result().ok
    assert live["causal"].result().ok
    assert auditor.final().ok
