"""View-history reconstruction (VH) and protocol-derived views."""

from __future__ import annotations

import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import CheckpointPolicy, SystemConfig, open_system
from repro.common.errors import ProtocolError
from repro.consistency import validate_weak_fork_linearizability
from repro.ustor.byzantine import ADVERSARIES
from repro.ustor.client import ViewHistoryLog, ViewHistoryRecord
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


def _record(client, t, parent, concurrent):
    """The record the dict kept for ``(client, t)`` before the log packed it."""
    flat = iter(concurrent)
    return ViewHistoryRecord(
        parent=parent, concurrent=tuple(zip(flat, flat)), own=(client, t)
    )


class ShadowedLog(ViewHistoryLog):
    """A log that also keeps the dict it replaced, filled and trimmed as
    the dict was (a full scan for the keys at or below the floor)."""

    def __init__(self, client):
        super().__init__(client)
        self.shadow = {}

    def add(self, t, parent, concurrent):
        super().add(t, parent, concurrent)
        self.shadow[(self._client, t)] = _record(self._client, t, parent, concurrent)

    def trim(self, floor):
        super().trim(floor)
        for key in [key for key in self.shadow if key[1] <= floor]:
            del self.shadow[key]


def _shadowed(system):
    for client in system.clients:
        client.vh_records = ShadowedLog(client.client_id)


def _views_from_shadows(history, clients):
    stand_ins = [
        SimpleNamespace(client_id=c.client_id, vh_records=c.vh_records.shadow)
        for c in clients
    ]
    return build_client_views(history, stand_ins)


_PAIRS = st.lists(
    st.tuples(st.integers(0, 7), st.integers(1, 10**12)), max_size=6
).map(lambda pairs: [cell for pair in pairs for cell in pair])
_RECORDS = st.lists(
    st.tuples(
        st.none() | st.tuples(st.integers(0, 7), st.integers(1, 10**12)), _PAIRS
    ),
    max_size=30,
)


class TestViewHistoryLog:
    @given(records=_RECORDS, floor=st.integers(-2, 35), more=_RECORDS)
    def test_equals_the_dict_it_replaces_before_and_after_trim(
        self, records, floor, more
    ):
        log, reference, stamps = ViewHistoryLog(3), {}, itertools.count(1)

        def extend(batch):
            for parent, concurrent in batch:
                t = next(stamps)
                log.add(t, parent, concurrent)
                reference[(3, t)] = _record(3, t, parent, concurrent)

        extend(records)
        assert log == reference and dict(log) == reference
        assert list(log) == list(reference) and len(log) == len(reference)
        log.trim(floor)
        for key in [key for key in reference if key[1] <= floor]:
            del reference[key]
        assert log == reference and list(log) == list(reference)
        for absent in [(3, 0), (3, floor), (2, 1), (3, 10**6), "x", (3,)]:
            assert absent not in log and log.get(absent) is None
        # The log goes on at the next own timestamp, trimmed or not.
        extend(more)
        assert log == reference and list(log) == list(reference)

    @pytest.mark.parametrize("stamps", [[2], [1, 3], [1, 1], [1, 2, 2]])
    def test_an_out_of_order_add_raises(self, stamps):
        log = ViewHistoryLog(0)
        *good, bad = stamps
        for t in good:
            log.add(t, None, [])
        with pytest.raises(ProtocolError, match="out of order"):
            log.add(bad, None, [])
        assert len(log) == len(good)

    def test_a_trim_below_the_kept_records_keeps_them(self):
        log = ViewHistoryLog(1)
        for t in range(1, 6):
            log.add(t, (0, t), [2, t])
        log.trim(3)
        log.trim(2)
        assert list(log) == [(1, 4), (1, 5)]
        assert log[(1, 5)] == ViewHistoryRecord((0, 5), ((2, 5),), (1, 5))

    @pytest.mark.parametrize("backend", ["ustor", "faust"])
    @pytest.mark.parametrize("name", ADVERSARIES)
    def test_views_match_the_dict_on_every_catalogue_row(self, name, backend):
        system = open_system(
            SystemConfig(
                num_clients=3, seed=5, server_factory=ADVERSARIES[name].factory
            ),
            backend=backend,
        )
        _shadowed(system)
        scripts = generate_scripts(
            3, WorkloadConfig(ops_per_client=12), random.Random(5)
        )
        driver = Driver(system)
        driver.attach_all(scripts)
        system.run(until=400.0)
        history = system.history()
        assert build_client_views(history, system.clients) == _views_from_shadows(
            history, system.clients
        )

    def test_views_match_the_dict_on_a_checkpointed_faust_run(self):
        system = open_system(
            SystemConfig(
                num_clients=3, seed=7, checkpoint=CheckpointPolicy(interval=8)
            ),
            backend="faust",
        )
        _shadowed(system)
        sessions = system.sessions()
        for round_ in range(40):
            for session in sessions:
                session.write_sync(b"r%d-c%d" % (round_, session.client_id))
        installed = [c.checkpoint_manager.installed.seq for c in system.clients]
        assert min(installed) > 2, installed  # the logs were trimmed
        for client in system.clients:
            assert client.vh_records == client.vh_records.shadow
            assert len(client.vh_records) < 40
        # A survivor's view history runs back into records the
        # checkpoints trimmed: both rebuild what they still can, and fail
        # alike on the rest.
        history = system.history()
        assert _outcome(build_client_views, history, system.clients) == _outcome(
            _views_from_shadows, history, system.clients
        )
        merged = merge_vh_records(system.clients)
        shadows = {}
        for client in system.clients:
            shadows.update(client.vh_records.shadow)
        assert merged == shadows
        assert [_outcome(reconstruct_view_history, merged, key) for key in merged] == [
            _outcome(reconstruct_view_history, shadows, key) for key in shadows
        ]


def _outcome(function, *args):
    """What ``function(*args)`` returns, or the message it raises."""
    try:
        return function(*args)
    except ProtocolError as exc:
        return str(exc)
