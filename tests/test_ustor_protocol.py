"""USTOR under a correct server: safety, liveness, message complexity."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.api import FaustParams, SystemConfig, open_system
from repro.api.backends import build_deployment
from repro.baselines.lockstep import lockstep_protocol
from repro.common.errors import ProtocolError
from repro.common.types import BOTTOM, OpKind
from repro.consistency.causal import check_causal_consistency
from repro.consistency.linearizability import check_linearizability
from repro.consistency import validate_weak_fork_linearizability
from repro.sim.network import ExponentialLatency, FixedLatency
from repro.ustor.viewhistory import build_client_views
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts


def run_ops(system, ops):
    """ops: list of (client_index, 'read'/'write', argument); returns outcomes."""
    outcomes = []
    for client_index, op, arg in ops:
        box = []
        getattr(system.clients[client_index], op)(arg, box.append)
        assert system.run_until(lambda: bool(box), timeout=1_000)
        system.run(until=system.now + 0.05)
        outcomes.append(box[0])
    return outcomes


class TestSingleClient:
    def test_write_then_read_own_register(self):
        system = open_system(SystemConfig(num_clients=1, seed=1), backend="ustor")
        write, read = run_ops(system, [(0, "write", b"v"), (0, "read", 0)])
        assert write.timestamp == 1
        assert read.value == b"v" and read.timestamp == 2

    def test_read_before_any_write_returns_bottom(self):
        system = open_system(SystemConfig(num_clients=2, seed=1), backend="ustor")
        (read,) = run_ops(system, [(0, "read", 1)])
        assert read.value is BOTTOM

    def test_overwrites_visible_in_order(self):
        system = open_system(SystemConfig(num_clients=1, seed=1), backend="ustor")
        outcomes = run_ops(
            system,
            [(0, "write", b"v1"), (0, "write", b"v2"), (0, "read", 0)],
        )
        assert outcomes[-1].value == b"v2"

    def test_timestamps_strictly_increase(self):
        system = open_system(SystemConfig(num_clients=1, seed=1), backend="ustor")
        outcomes = run_ops(system, [(0, "write", b"a"), (0, "read", 0), (0, "write", b"b")])
        stamps = [o.timestamp for o in outcomes]
        assert stamps == sorted(stamps) and len(set(stamps)) == 3

    def test_versions_grow_monotonically(self):
        system = open_system(SystemConfig(num_clients=1, seed=1), backend="ustor")
        outcomes = run_ops(system, [(0, "write", b"a"), (0, "read", 0)])
        assert outcomes[0].version.lt(outcomes[1].version)


class TestTwoClients:
    def test_reader_sees_committed_write(self):
        system = open_system(SystemConfig(num_clients=2, seed=2), backend="ustor")
        outcomes = run_ops(system, [(0, "write", b"shared"), (1, "read", 0)])
        assert outcomes[1].value == b"shared"

    def test_read_returns_writer_version(self):
        system = open_system(SystemConfig(num_clients=2, seed=2), backend="ustor")
        outcomes = run_ops(system, [(0, "write", b"x"), (1, "read", 0)])
        reader_version = outcomes[1].reader_version
        assert reader_version is not None
        assert reader_version.vector[0] == 1

    def test_cross_client_versions_are_chained(self):
        system = open_system(SystemConfig(num_clients=2, seed=2), backend="ustor")
        outcomes = run_ops(
            system,
            [(0, "write", b"x"), (1, "read", 0), (0, "write", b"y"), (1, "read", 0)],
        )
        versions = [o.version for o in outcomes]
        # Every consecutive pair along the schedule is ordered (the view
        # histories are prefixes of one another).
        for earlier, later in zip(versions, versions[1:]):
            assert earlier.le(later)


@pytest.mark.parametrize("protocol", ["ustor", "faust", "lockstep"])
def test_operations_invoked_while_busy_wait_in_the_client(protocol):
    # Three operations go straight into the protocol client at once: the
    # second and third wait in its queue and run one at a time, in
    # invocation order — the same on every client protocol.
    config = SystemConfig(num_clients=2, seed=2, latency=FixedLatency(1.0))
    if protocol == "lockstep":
        system = build_deployment(config, lockstep_protocol())
    else:
        quiet = FaustParams(enable_dummy_reads=False, enable_probes=False)
        system = open_system(replace(config, faust=quiet), backend=protocol)
    records = []
    system.trace.tap(records.append)
    client = system.clients[0]
    outcomes = []
    client.write(b"a", outcomes.append)
    client.write(b"b", outcomes.append)
    client.read(1, outcomes.append)
    assert client.busy and not client.idle
    # Starting an operation now is still the protocol's own error.
    with pytest.raises(ProtocolError, match="already has an operation"):
        client._invoke(OpKind.READ, 1, None, None)
    assert system.run_until(lambda: len(outcomes) == 3, timeout=1_000)
    assert [(o.kind, o.timestamp) for o in outcomes] == [
        (OpKind.WRITE, 1), (OpKind.WRITE, 2), (OpKind.READ, 3)
    ]
    assert client.idle
    ops = sorted(
        (op for op in system.history() if op.client == 0),
        key=lambda op: op.invoked_at,
    )
    assert [op.timestamp for op in ops] == [1, 2, 3]
    for earlier, later in zip(ops, ops[1:]):
        assert earlier.responded_at <= later.invoked_at
    # On the wire: SUBMIT, REPLY, SUBMIT, REPLY, ... — never two SUBMITs
    # of this client before the first one's REPLY (a SUBMIT sent at the
    # instant a REPLY lands sorts after it: "reply" < "submit").
    exchange = sorted(
        [(m.sent_at, "submit") for m in records
         if m.src == client.name and m.kind.endswith("SUBMIT")]
        + [(m.delivered_at, "reply") for m in records
           if m.dst == client.name and m.kind.endswith("REPLY")]
    )
    assert [kind for _at, kind in exchange] == ["submit", "reply"] * 3


class TestConcurrency:
    def test_concurrent_write_and_read_both_complete(self):
        system = open_system(
            SystemConfig(num_clients=2, seed=3, latency=FixedLatency(2.0)),
            backend="ustor",
        )
        boxes = [[], []]
        system.clients[0].write(b"w", boxes[0].append)
        system.clients[1].read(0, boxes[1].append)
        assert system.run_until(lambda: all(boxes), timeout=100)
        # The read, racing the write, may return BOTTOM or the new value.
        assert boxes[1][0].value in (BOTTOM, b"w")

    def test_wait_freedom_with_slow_commits(self):
        # Delay all COMMIT deliveries: reads by others must still complete
        # in one round (this is exactly what fork-linearizable protocols
        # cannot do).
        system = open_system(SystemConfig(num_clients=3, seed=4), backend="ustor")
        system.network.add_delay("C1", "S", 0.0)  # ensure link exists
        outcomes = []
        system.clients[0].write(b"w", outcomes.append)
        assert system.run_until(lambda: len(outcomes) == 1, timeout=100)
        # Now slow C1's channel so its next COMMIT crawls.
        system.network.add_delay("C1", "S", 500.0)
        system.clients[0].write(b"w2", outcomes.append)
        # C1's own op waits for its REPLY (which needs the slow SUBMIT),
        # but C2 and C3 proceed freely meanwhile.
        fast = []
        system.clients[1].read(0, fast.append)
        system.clients[2].read(0, fast.append)
        assert system.run_until(lambda: len(fast) == 2, timeout=100)
        assert all(not c.failed for c in system.clients)

    def test_client_crash_does_not_block_others(self):
        system = open_system(
            SystemConfig(num_clients=3, seed=5, latency=FixedLatency(1.0)),
            backend="ustor",
        )
        victim = system.clients[0]
        victim.write(b"doomed", lambda o: None)
        # Crash after the SUBMIT is sent but before the REPLY arrives.
        system.scheduler.schedule(0.5, victim.crash)
        results = []
        system.scheduler.schedule(3.0, system.clients[1].write, b"alive", results.append)
        system.scheduler.schedule(6.0, system.clients[2].read, 1, results.append)
        assert system.run_until(lambda: len(results) == 2, timeout=200)
        assert results[1].value == b"alive"
        assert not any(c.failed for c in system.clients[1:])


class TestPiggybackMode:
    def test_results_identical_to_eager_mode(self):
        def run(piggyback):
            system = open_system(
                SystemConfig(num_clients=2, seed=6, commit_piggyback=piggyback),
                backend="ustor",
            )
            outcomes = run_ops(
                system,
                [(0, "write", b"a"), (1, "read", 0), (0, "write", b"b"), (1, "read", 0)],
            )
            return [(o.kind, o.value, o.timestamp) for o in outcomes]

        assert run(False) == run(True)

    def test_piggyback_halves_client_messages(self):
        def messages(piggyback):
            system = open_system(
                SystemConfig(num_clients=2, seed=6, commit_piggyback=piggyback),
                backend="ustor",
            )
            run_ops(system, [(0, "write", b"a"), (0, "write", b"b"), (0, "write", b"c")])
            return system.trace.message_count("COMMIT")

        assert messages(False) == 3
        assert messages(True) == 0  # commits ride inside SUBMITs

    def test_piggyback_leaves_pending_entries(self):
        system = open_system(
            SystemConfig(num_clients=2, seed=6, commit_piggyback=True),
            backend="ustor",
        )
        run_ops(system, [(0, "write", b"a")])
        system.run(until=system.now + 10)
        # The final COMMIT never went out: the server's L keeps the entry.
        assert len(system.server.state.pending) == 1


class TestMessageComplexity:
    def test_one_reply_per_operation(self):
        system = open_system(SystemConfig(num_clients=3, seed=7), backend="ustor")
        run_ops(system, [(0, "write", b"a"), (1, "read", 0), (2, "read", 0)])
        assert system.trace.message_count("REPLY") == 3
        assert system.trace.message_count("SUBMIT") == 3

    def test_reply_size_linear_in_clients(self):
        sizes = {}
        for n in (2, 8, 32):
            system = open_system(SystemConfig(num_clients=n, seed=8), backend="ustor")
            run_ops(system, [(0, "write", b"x"), (1, "read", 0)])
            sizes[n] = system.trace.total_bytes("REPLY") / system.trace.message_count("REPLY")
        # Linear growth: scaling n by 4 must scale size by < 6 but clearly
        # more than a constant.
        assert sizes[8] < 6 * sizes[2]
        assert sizes[32] < 6 * sizes[8]
        assert sizes[32] > 2 * sizes[8] * 0.5


class TestRandomizedRuns:
    @pytest.mark.parametrize("seed", range(8))
    def test_linearizable_causal_and_wait_free(self, seed):
        system = open_system(
            SystemConfig(
                num_clients=4,
                seed=seed,
                latency=ExponentialLatency(1.0, cap=8.0),
            ),
            backend="ustor",
        )
        scripts = generate_scripts(
            4, WorkloadConfig(ops_per_client=20, read_fraction=0.6), random.Random(seed)
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        assert driver.run_to_completion(), "wait-freedom: every operation completes"
        history = system.history()
        assert check_linearizability(history)
        assert check_causal_consistency(history)
        views = build_client_views(history, system.clients)
        assert validate_weak_fork_linearizability(history, views)
        assert not any(c.failed for c in system.clients)

    def test_deterministic_replay(self):
        def run():
            system = open_system(SystemConfig(num_clients=3, seed=123), backend="ustor")
            scripts = generate_scripts(
                3, WorkloadConfig(ops_per_client=10), random.Random(123)
            )
            driver = Driver(system)
            driver.attach_all(scripts)
            driver.run_to_completion()
            return [
                (op.client, op.kind, op.invoked_at, op.responded_at)
                for op in system.history()
            ]

        assert run() == run()
