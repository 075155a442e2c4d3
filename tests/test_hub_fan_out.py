"""The notification hub fans ``stable_i(W)`` out and keeps only ``fail_i``.

Definition 5's outputs are delivered, not replayed.  The
:class:`~repro.api.events.NotificationHub` counts what it emitted and
keeps its ``fail_i`` outputs (at most one per client and shard); a
subscription with a callback keeps nothing, one without a callback is
the caller's own record.  These tests pin that:

* with a callback subscriber attached (as the e2e harness attaches one),
  the bytes allocated in ``api/events.py`` do not grow with the run;
* a callback-less subscription made right after ``open_system`` sees
  exactly what a callback saw, and its ``seq`` values are ``0`` up to
  the hub's ``emitted`` count with no gap;
* ``failure_events()`` (a copy) and ``first_failures()`` still answer
  from the failures the hub keeps.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

from repro.api import (
    FailureNotification,
    FaustParams,
    StabilityNotification,
    SystemConfig,
    open_system,
)
from repro.ustor.byzantine import SplitBrainServer
from repro.workloads.generator import WorkloadConfig, run_closed_loop

CLIENTS = 4

#: What a longer run may leave beyond a shorter one, per client: an
#: object reused from a free list, never one per notification (a kept
#: stream is over 100 B per ``stable_i``, and each client outputs one
#: every few operations).
PER_CLIENT_BYTES = 64


def _hub_bytes_after(ops_per_client: int) -> int:
    """Bytes still allocated in ``repro/api/events.py`` after a FAUST run
    of ``ops_per_client`` operations per client, with a counting callback
    subscribed for the whole run."""
    tracemalloc.start()
    try:
        system = open_system(
            SystemConfig(num_clients=CLIENTS, seed=4), backend="faust"
        )
        delivered = [0]

        def count(_event) -> None:
            delivered[0] += 1

        subscription = system.notifications.subscribe(count)
        run_closed_loop(
            system,
            WorkloadConfig(ops_per_client=ops_per_client, mean_think_time=1.0),
            random.Random(4),
        )
        gc.collect()  # a full collection also empties CPython's free lists
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, "*repro/api/events.py")]
        )
        assert delivered[0] == system.notifications.emitted > ops_per_client
        assert subscription.events == []
        assert system.notifications.failure_events() == []
        return sum(stat.size for stat in snapshot.statistics("filename"))
    finally:
        tracemalloc.stop()


def test_the_hub_does_not_grow_with_the_run():
    _hub_bytes_after(10)  # the first deployment in a process allocates more
    short, long = _hub_bytes_after(100), _hub_bytes_after(400)
    assert abs(long - short) <= CLIENTS * PER_CLIENT_BYTES, (short, long)


def _split_brain_system():
    return open_system(
        SystemConfig(
            num_clients=CLIENTS,
            seed=7,
            server_factory=lambda n, name: SplitBrainServer(
                n, groups=[{0, 1}, {2, 3}], fork_time=10.0, name=name
            ),
            faust=FaustParams(delta=15.0, probe_check_period=5.0),
        ),
        backend="faust",
    )


def test_a_callback_keeps_nothing_and_a_record_keeps_what_it_saw():
    system = _split_brain_system()
    hub = system.notifications
    seen: list = []
    called = hub.subscribe(seen.append)
    kept = hub.subscribe()
    run_closed_loop(
        system,
        WorkloadConfig(ops_per_client=6, mean_think_time=1.0),
        random.Random(7),
    )
    system.run(until=system.now + 200.0)

    kinds = {type(e) for e in seen}
    assert kinds == {StabilityNotification, FailureNotification}, kinds
    assert called.events == []
    assert kept.events == seen
    # Every output, numbered in emission order from 0 with no gap.
    assert [e.seq for e in kept.events] == list(range(hub.emitted))
    failures = [e for e in kept.events if isinstance(e, FailureNotification)]
    hub.failure_events().clear()  # a copy: the hub's record stays whole
    assert hub.failure_events() == failures
    first: dict = {}
    for event in failures:
        first.setdefault(event.client, event.time)
    assert hub.first_failures() == dict(sorted(first.items()))
    # fail_i is output at most once per client (one shard here).
    assert len({e.client for e in failures}) == len(failures)

