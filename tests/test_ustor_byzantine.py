"""Every Byzantine server attack, and the layer that catches it (or doesn't).

The detection matrix being tested (see repro.ustor.byzantine):

    tampering     -> USTOR line 50 (DATA-signature)
    forged version-> USTOR line 35 (COMMIT-signature)
    replay        -> USTOR line 36/43 (version monotonicity / self-concurrency)
    split brain   -> invisible to USTOR, FAUST-detectable (tested in FAUST tests)
    figure 3      -> invisible to USTOR by design (weak fork-linearizable)
    crash         -> never detectable as Byzantine (just non-completion)
"""

from __future__ import annotations

import pytest

from repro.api import SystemConfig, open_system
from repro.common.errors import ConfigurationError
from repro.common.types import BOTTOM
from repro.consistency.causal import check_causal_consistency
from repro.consistency.linearizability import check_linearizability
from repro.ustor.byzantine import (
    CrashingServer,
    ForgingServer,
    ReplayServer,
    SplitBrainServer,
    TamperingServer,
    UnresponsiveServer,
)
from repro.workloads.scenarios import figure3_scenario

from test_ustor_protocol import run_ops


def build(server_factory, n=3, seed=1):
    return open_system(
        SystemConfig(num_clients=n, seed=seed, server_factory=server_factory),
        backend="ustor",
    )


class TestTampering:
    def test_reader_detects_corrupted_value(self):
        system = build(lambda n, name: TamperingServer(n, target_register=0, name=name))
        run_ops(system, [(0, "write", b"genuine")])
        box = []
        system.clients[1].read(0, box.append)
        system.run(until=50)
        reader = system.clients[1]
        assert reader.failed
        assert "line 50" in reader.fail_reason
        assert not box  # the operation never returns — fail_i instead

    def test_untampered_registers_unaffected(self):
        system = build(lambda n, name: TamperingServer(n, target_register=0, name=name))
        outcomes = run_ops(system, [(1, "write", b"clean"), (2, "read", 1)])
        assert outcomes[1].value == b"clean"
        assert not system.clients[2].failed

    def test_writer_itself_unaffected(self):
        system = build(lambda n, name: TamperingServer(n, target_register=0, name=name))
        outcomes = run_ops(system, [(0, "write", b"genuine")])
        assert outcomes[0].timestamp == 1 and not system.clients[0].failed


class TestForgedVersion:
    def test_client_detects_unsigned_version(self):
        system = build(lambda n, name: ForgingServer(n, name=name))
        box = []
        system.clients[0].write(b"x", box.append)
        system.run(until=50)
        client = system.clients[0]
        assert client.failed
        assert "line 35" in client.fail_reason
        assert not box


class TestReplay:
    def test_replayed_state_detected_on_second_operation(self):
        system = build(lambda n, name: ReplayServer(n, freeze_after_submits=2, name=name))
        # Two ops pass honestly; then the server freezes and replays.
        run_ops(system, [(0, "write", b"a"), (1, "read", 0)])
        box = []
        system.clients[0].write(b"b", box.append)  # served from frozen state
        system.run(until=50)
        # C1's own version advanced past the frozen SVER — caught.
        client0 = system.clients[0]
        # Either the first post-freeze op already trips (frozen Vc[i] is
        # stale) or the follow-up does; run one more if needed.
        if not client0.failed and box:
            system.clients[0].write(b"c", box.append)
            system.run(until=100)
        assert client0.failed
        assert "line 36" in client0.fail_reason or "line 43" in client0.fail_reason


class TestCrash:
    def test_operations_hang_without_detection(self):
        system = build(lambda n, name: CrashingServer(n, crash_after_submits=1, name=name))
        outcomes = run_ops(system, [(0, "write", b"a")])
        assert outcomes[0].timestamp == 1
        box = []
        system.clients[1].read(0, box.append)
        system.run(until=200)
        assert not box  # hangs forever
        assert not system.clients[1].failed  # but is NOT evidence of Byzantine
        assert system.clients[1].busy

    def test_crash_is_not_wait_freedom_violation_of_protocol(self):
        # Wait-freedom is promised only for correct servers; this documents
        # the model boundary.
        system = build(lambda n, name: CrashingServer(n, crash_after_submits=0, name=name))
        box = []
        system.clients[0].write(b"a", box.append)
        system.run(until=100)
        assert not box and not system.clients[0].failed


class TestUnresponsive:
    def test_victims_hang_others_proceed(self):
        system = build(lambda n, name: UnresponsiveServer(n, victims={0}, name=name))
        box0, box1 = [], []
        system.clients[0].write(b"a", box0.append)
        system.clients[1].write(b"b", box1.append)
        system.run(until=100)
        assert not box0 and box1
        assert not system.clients[0].failed


class TestSplitBrain:
    def test_groups_diverge_silently_at_ustor_level(self):
        system = build(
            lambda n, name: SplitBrainServer(
                n, groups=[{0}, {1, 2}], fork_time=0.0, name=name
            )
        )
        outcomes = run_ops(
            system,
            [
                (0, "write", b"left"),
                (1, "write", b"right"),
                (1, "read", 0),  # group {1,2} never sees C1's write
                (2, "read", 1),
                (0, "read", 1),  # group {0} never sees C2's write
            ],
        )
        assert outcomes[2].value is BOTTOM
        assert outcomes[3].value == b"right"
        assert outcomes[4].value is BOTTOM
        assert not any(c.failed for c in system.clients)

    def test_history_not_linearizable_but_causal(self):
        system = build(
            lambda n, name: SplitBrainServer(
                n, groups=[{0}, {1, 2}], fork_time=0.0, name=name
            )
        )
        run_ops(
            system,
            [(0, "write", b"left"), (1, "read", 0), (0, "read", 0), (1, "read", 0)],
        )
        history = system.history()
        assert not check_linearizability(history)
        assert check_causal_consistency(history)

    def test_within_group_consistency(self):
        system = build(
            lambda n, name: SplitBrainServer(
                n, groups=[{0, 1}, {2}], fork_time=0.0, name=name
            )
        )
        outcomes = run_ops(system, [(0, "write", b"v"), (1, "read", 0)])
        assert outcomes[1].value == b"v"  # same group: normal service

    def test_groups_must_partition(self):
        with pytest.raises(ConfigurationError):
            SplitBrainServer(3, groups=[{0}, {1}], fork_time=0.0)
        with pytest.raises(ConfigurationError):
            SplitBrainServer(2, groups=[{0, 1}, {1}], fork_time=0.0)

    def test_fork_after_common_prefix(self):
        system = build(
            lambda n, name: SplitBrainServer(
                n, groups=[{0}, {1, 2}], fork_time=10.0, name=name
            )
        )
        # Before the fork everyone is consistent.
        outcomes = run_ops(system, [(0, "write", b"pre"), (1, "read", 0)])
        assert outcomes[1].value == b"pre"
        system.run(until=12.0)
        # After the fork, C1's new write is invisible to the other group.
        run_ops(system, [(0, "write", b"post")])
        box = []
        system.clients[1].read(0, box.append)
        assert system.run_until(lambda: bool(box), timeout=100)
        assert box[0].value == b"pre"


class TestFigure3EndToEnd:
    def test_exact_paper_history(self):
        result = figure3_scenario()
        ops = list(result.history)
        assert [op.describe() for op in ops] == [
            "write_C1(X1, 'u')",
            "read_C2(X1) -> BOTTOM",
            "read_C2(X1) -> 'u'",
        ]

    def test_attack_is_invisible_to_ustor(self):
        result = figure3_scenario()
        assert not result.ustor_detected

    def test_versions_incomparable_after_join(self):
        result = figure3_scenario()
        writer, victim = result.system.clients
        assert not writer.version.comparable(victim.version)
