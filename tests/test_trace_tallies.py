"""The trace keeps per-kind tallies; a tap sees every record they count.

:class:`~repro.sim.trace.SimTrace` holds one ``(count, bytes)`` tally per
message kind and builds a :class:`~repro.sim.trace.MessageRecord` only
while a tap is attached.  Two properties pin that:

* on every kind of deployment — USTOR, FAUST with checkpoints and
  membership (so offline mail flows), a sharded replicated
  cluster, FAUST over loopback tcp — the records a tap attached right
  after ``open_system`` sees add up, kind by kind, to the tallies;
* the trace's resident bytes do not grow with the run: a FAUST run four
  times as long, with or without checkpoints, leaves as many bytes
  allocated in ``trace.py``, up to the running totals that outgrew
  CPython's small-int cache.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest

from repro.api import CheckpointPolicy, SystemConfig, open_system
from repro.workloads.generator import WorkloadConfig, run_closed_loop
from test_net_loopback import WALL_CLOCK_FAUST, open_loopback


def tap(system) -> list:
    records: list = []
    system.trace.tap(records.append)
    return records


def assert_tallies_are_the_records(trace, records) -> None:
    assert records, "the tap saw no message"
    by_kind: dict[str, tuple[int, int]] = {}
    for record in records:
        count, size = by_kind.get(record.kind, (0, 0))
        by_kind[record.kind] = (count + 1, size + record.size)
    assert trace.tallies() == by_kind
    for kind, (count, size) in by_kind.items():
        assert trace.message_count(kind) == count, kind
        assert trace.total_bytes(kind) == size, kind
    assert trace.message_count() == len(records)
    assert trace.total_bytes() == sum(record.size for record in records)
    assert trace.message_count("NO-SUCH-KIND") == 0
    assert trace.total_bytes("NO-SUCH-KIND") == 0


WORKLOAD = WorkloadConfig(ops_per_client=8, mean_think_time=1.0)


class TestTapsSeeWhatTalliesCount:
    def test_ustor(self):
        system = open_system(SystemConfig(num_clients=3, seed=4), backend="ustor")
        records = tap(system)
        run_closed_loop(system, WORKLOAD, random.Random(4))
        assert_tallies_are_the_records(system.trace, records)

    def test_faust_with_checkpoints_and_membership(self):
        system = open_system(
            SystemConfig(
                num_clients=4,
                seed=4,
                checkpoint=CheckpointPolicy(interval=4),
                membership=True,
            ),
            backend="faust",
        )
        records = tap(system)
        run_closed_loop(system, WORKLOAD, random.Random(4))
        system.run(until=system.now + 50.0)
        assert any(r.kind.startswith("offline:") for r in records)
        assert any(r.kind.startswith("offline-delivery:") for r in records)
        assert_tallies_are_the_records(system.trace, records)

    def test_sharded_replicated_cluster(self):
        system = open_system(
            SystemConfig(num_clients=4, seed=4, shards=2, replicas=3),
            backend="cluster",
        )
        records = tap(system)
        shard_records = [tap(shard) for shard in system.shards]
        run_closed_loop(system, WORKLOAD, random.Random(4))
        assert_tallies_are_the_records(system.trace, records)
        for shard, mine in zip(system.shards, shard_records):
            assert_tallies_are_the_records(shard.trace, mine)
        assert len(records) == sum(len(mine) for mine in shard_records)

    @pytest.mark.net
    def test_faust_over_loopback_tcp(self):
        system, _host = open_loopback(
            3, backend="faust", default_timeout=2.0, faust=WALL_CLOCK_FAUST
        )
        with system:
            records = tap(system)
            handles = []
            for i in range(3):
                session = system.session(i)
                handles += [session.write(b"v%d" % i), session.read((i + 1) % 3)]
            assert system.run_until(
                lambda: all(h.done() for h in handles), timeout=5.0
            )
            assert_tallies_are_the_records(system.trace, records)

    def test_an_untapped_callback_sees_nothing_more(self):
        system = open_system(SystemConfig(num_clients=2, seed=4), backend="ustor")
        records: list = []
        untap = system.trace.tap(records.append)
        system.session(0).write_sync(b"x")
        seen = len(records)
        untap()
        system.session(1).write_sync(b"y")
        assert seen and len(records) == seen
        assert system.trace.message_count() > seen


#: Every kind a fault-free FAUST run without checkpoints sends.
FAUST_KINDS = (
    "SUBMIT", "REPLY", "COMMIT",
    "offline:PROBE", "offline-delivery:PROBE",
    "offline:VERSION", "offline-delivery:VERSION",
)

#: What checkpoints add to those: the proposal to the server and the
#: clients' co-signing shares over the offline channel.
CHECKPOINT_KINDS = (
    "CHECKPOINT", "offline:CHECKPOINT-SHARE", "offline-delivery:CHECKPOINT-SHARE",
)

#: What one running total may add: an ``int`` object, where the shorter
#: run's total was still one of CPython's cached small ints.
INT_BYTES = 32


def _trace_bytes_after(ops_per_client: int, checkpoint, kinds) -> int:
    """Bytes still allocated in ``repro/sim/trace.py`` after a FAUST run
    of ``ops_per_client`` operations per client, which sends ``kinds``."""
    tracemalloc.start()
    try:
        system = open_system(
            SystemConfig(num_clients=3, seed=4, checkpoint=checkpoint),
            backend="faust",
        )
        run_closed_loop(
            system,
            WorkloadConfig(ops_per_client=ops_per_client, mean_think_time=1.0),
            random.Random(4),
        )
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, "*repro/sim/trace.py")]
        )
        trace = system.trace
        assert set(trace.tallies()) == set(kinds)
        # A fault-free run notes nothing, installs included.
        assert trace.notes == []
        return sum(stat.size for stat in snapshot.statistics("filename"))
    finally:
        tracemalloc.stop()


def _assert_flat(checkpoint, kinds) -> None:
    short = _trace_bytes_after(100, checkpoint, kinds)
    long = _trace_bytes_after(400, checkpoint, kinds)
    # Four times the messages, the same tallies: the two totals of a kind
    # are the only bytes a longer run can add, give or take a list the
    # allocator hands back from its free list (one record per message
    # would be hundreds of kilobytes).
    assert abs(long - short) <= 2 * len(kinds) * INT_BYTES, (short, long)


def test_the_trace_does_not_grow_with_the_run():
    _assert_flat(None, FAUST_KINDS)


def test_the_trace_does_not_grow_with_checkpoints():
    # Installs at every client leave no note either.
    _assert_flat(CheckpointPolicy(interval=16), FAUST_KINDS + CHECKPOINT_KINDS)
