"""View-history reconstruction (VH) and protocol-derived views."""

from __future__ import annotations

import random

import pytest

from repro.api import SystemConfig, open_system
from repro.common.errors import ProtocolError
from repro.consistency import validate_weak_fork_linearizability
from repro.ustor.viewhistory import (
    build_client_views,
    merge_vh_records,
    reconstruct_view_history,
    view_from_keys,
)
from repro.workloads.generator import Driver, WorkloadConfig, generate_scripts

from test_ustor_protocol import run_ops


class TestReconstruction:
    def test_single_op_vh_is_itself(self):
        system = open_system(SystemConfig(num_clients=2, seed=1), backend="ustor")
        run_ops(system, [(0, "write", b"a")])
        records = merge_vh_records(system.clients)
        assert reconstruct_view_history(records, (0, 1)) == ((0, 1),)

    def test_vh_matches_server_schedule(self):
        # Sequential ops: VH of the last op is exactly the schedule.
        system = open_system(SystemConfig(num_clients=3, seed=2), backend="ustor")
        run_ops(
            system,
            [(0, "write", b"a"), (1, "read", 0), (2, "read", 0), (0, "write", b"b")],
        )
        records = merge_vh_records(system.clients)
        vh = reconstruct_view_history(records, (0, 2))  # C1's second op
        assert vh == ((0, 1), (1, 1), (2, 1), (0, 2))

    def test_vh_prefix_structure(self):
        system = open_system(SystemConfig(num_clients=2, seed=3), backend="ustor")
        run_ops(system, [(0, "write", b"a"), (1, "read", 0), (0, "write", b"b")])
        records = merge_vh_records(system.clients)
        vh_first = reconstruct_view_history(records, (0, 1))
        vh_last = reconstruct_view_history(records, (0, 2))
        assert vh_last[: len(vh_first)] == vh_first

    def test_missing_record_raises(self):
        with pytest.raises(ProtocolError):
            reconstruct_view_history({}, (0, 1))

    def test_concurrent_ops_appear_in_vh(self):
        # Slow down C1's COMMIT so C2's read sees C1's write in L.
        system = open_system(SystemConfig(num_clients=2, seed=4), backend="ustor")
        box0, box1 = [], []
        system.clients[0].write(b"w", box0.append)
        system.scheduler.schedule(2.5, system.clients[1].read, 0, box1.append)
        system.network.add_delay("C1", "S", 10.0)
        system.run(until=100)
        assert box0 and box1
        records = merge_vh_records(system.clients)
        vh = reconstruct_view_history(records, (1, 1))
        assert (0, 1) in vh  # the write is in the reader's view history


class TestProtocolViews:
    @pytest.mark.parametrize("seed", range(4))
    def test_views_validate_on_random_runs(self, seed):
        system = open_system(SystemConfig(num_clients=3, seed=seed), backend="ustor")
        scripts = generate_scripts(
            3, WorkloadConfig(ops_per_client=15), random.Random(seed)
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        assert driver.run_to_completion()
        history = system.history()
        views = build_client_views(history, system.clients)
        assert set(views) <= {0, 1, 2}
        result = validate_weak_fork_linearizability(history, views)
        assert result, result.violation

    def test_whole_run_views_validate(self):
        """A 4 x 400-op run: every condition is one pass, so the theorem
        is checked on the whole run, not a 15-op sample."""
        system = open_system(SystemConfig(num_clients=4, seed=3), backend="ustor")
        scripts = generate_scripts(
            4,
            WorkloadConfig(ops_per_client=400, read_fraction=0.6, mean_think_time=0.0),
            random.Random(3),
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        assert driver.run_to_completion(timeout=10_000_000)
        history = system.history()
        assert len(history) == 1600
        views = build_client_views(history, system.clients)
        assert set(views) == {0, 1, 2, 3}
        result = validate_weak_fork_linearizability(history, views)
        assert result, result.violation

    def test_views_are_per_client_last_op(self):
        system = open_system(SystemConfig(num_clients=2, seed=9), backend="ustor")
        run_ops(system, [(0, "write", b"a"), (1, "read", 0)])
        history = system.history()
        views = build_client_views(history, system.clients)
        assert [op.client for op in views[1]] == [0, 1]

    def test_view_from_keys_maps_protocol_timestamps(self):
        system = open_system(SystemConfig(num_clients=2, seed=9), backend="ustor")
        run_ops(system, [(0, "write", b"a"), (1, "read", 0)])
        history = system.history()
        view = view_from_keys(history, [(0, 1), (1, 1)])
        assert [(op.client, op.timestamp) for op in view] == [(0, 1), (1, 1)]
        with pytest.raises(ProtocolError, match="never recorded"):
            view_from_keys(history, [(0, 2)])

    def test_client_without_ops_has_no_view(self):
        system = open_system(SystemConfig(num_clients=3, seed=9), backend="ustor")
        run_ops(system, [(0, "write", b"a")])
        views = build_client_views(system.history(), system.clients)
        assert 1 not in views and 2 not in views
