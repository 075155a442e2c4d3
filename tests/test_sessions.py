"""SessionPool: many logical sessions over few signer slots.

The pool is pure bookkeeping — no scheduler, no network — so these tests
drive it directly: lease/release cycling, the reconnect path that wants
one *specific* slot back, lazy materialization of backing clients,
eviction quarantine driven by installed epochs, and the churn planner's
overload rejection.  The tens-of-thousands-of-sessions claim is tested
literally: 20k sessions cycle through 8 slots without the signer count
ever exceeding 8.
"""

from __future__ import annotations

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.faust.membership import Epoch
from repro.sim.faults import Fault
from repro.workloads.sessions import (
    SessionPool,
    _max_concurrent,
    plan_churn_windows,
)


class _FakeClient:
    """Stands in for a FaustClient with membership on."""

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.listeners = []

    def add_epoch_listener(self, listener) -> None:
        self.listeners.append(listener)

    def install(self, epoch: Epoch) -> None:
        for listener in self.listeners:
            listener(epoch)


def _pool(n: int = 4):
    built: list[int] = []
    clients: dict[int, _FakeClient] = {}

    def provider(slot: int) -> _FakeClient:
        built.append(slot)
        clients[slot] = _FakeClient(slot)
        return clients[slot]

    return SessionPool(n, provider=provider), built, clients


def _epoch(number: int, members) -> Epoch:
    return Epoch(
        epoch=number, members=tuple(members), parent_digest=b"x", digest=b"y"
    )


# --------------------------------------------------------------------- #
# Lease lifecycle
# --------------------------------------------------------------------- #


def test_acquire_release_cycles_slots_with_monotonic_session_ids():
    pool, _built, _clients = _pool(2)
    a = pool.acquire()
    b = pool.acquire()
    assert {a.slot, b.slot} == {0, 1}
    assert (a.session_id, b.session_id) == (0, 1)
    assert pool.in_use == 2 and pool.available == 0
    pool.release(a)
    assert pool.in_use == 1 and pool.available == 1
    c = pool.acquire()
    assert c.slot == a.slot  # the freed slot, reused
    assert c.session_id == 2  # but a brand-new logical session
    assert pool.peak_in_use == 2
    assert pool.sessions_created == 3


def test_exhaustion_raises_and_try_acquire_returns_none():
    pool, _built, _clients = _pool(1)
    pool.acquire()
    assert pool.try_acquire() is None
    with pytest.raises(ConfigurationError, match="signer slot"):
        pool.acquire()


def test_release_of_a_stale_lease_is_a_no_op():
    pool, _built, _clients = _pool(1)
    lease = pool.acquire()
    pool.release(lease)
    pool.release(lease)  # double release: no double-free
    assert pool.available == 1
    fresh = pool.acquire()
    pool.release(lease)  # releasing the old lease cannot evict the new one
    assert pool.lease_for(fresh.slot) is fresh


def test_try_acquire_slot_is_the_reconnect_path():
    pool, _built, _clients = _pool(3)
    lease = pool.acquire()  # slot 0
    # A specific free slot can be claimed out of order...
    back = pool.try_acquire_slot(2)
    assert back is not None and back.slot == 2
    # ...but a leased slot, or nonsense, cannot.
    assert pool.try_acquire_slot(lease.slot) is None
    assert pool.try_acquire_slot(2) is None
    assert pool.try_acquire_slot(-1) is None
    assert pool.try_acquire_slot(99) is None
    # The generic path still hands out the remaining slot.
    assert pool.acquire().slot == 1


# --------------------------------------------------------------------- #
# Lazy materialization
# --------------------------------------------------------------------- #


def test_clients_materialize_lazily_once_per_slot():
    pool, built, _clients = _pool(100)
    assert built == []  # building the pool costs nothing
    a = pool.acquire()
    assert built == [a.slot]
    pool.release(a)
    pool.try_acquire_slot(a.slot)
    assert built == [a.slot]  # re-lease does not re-build
    pool.try_acquire_slot(7)
    assert built == [a.slot, 7]


def test_pool_without_provider_rejects_materialization():
    pool = SessionPool(2)
    with pytest.raises(ConfigurationError, match="provider"):
        pool.acquire()


def test_pool_needs_at_least_one_slot():
    with pytest.raises(ConfigurationError, match="at least one"):
        SessionPool(0)


# --------------------------------------------------------------------- #
# Membership-driven quarantine
# --------------------------------------------------------------------- #


def test_eviction_quarantines_the_slot_and_ends_its_session():
    pool, _built, clients = _pool(3)
    leases = [pool.acquire() for _ in range(3)]
    clients[0].install(_epoch(1, members=(0, 2)))  # slot 1 evicted
    assert pool.quarantined == (1,)
    assert pool.sessions_evicted == 1
    assert pool.lease_for(1) is None
    assert pool.try_acquire_slot(1) is None
    assert pool.try_acquire() is None  # 0 and 2 are still leased
    # Releasing an evicted session's stale lease cannot resurrect it.
    pool.release(leases[1])
    assert pool.available == 0


def test_readmission_recycles_the_slot():
    pool, _built, clients = _pool(3)
    for _ in range(3):
        pool.acquire()
    clients[0].install(_epoch(1, members=(0, 2)))
    clients[0].install(_epoch(2, members=(0, 1, 2)))  # slot 1 re-admitted
    assert pool.quarantined == ()
    assert pool.sessions_recycled == 1
    fresh = pool.try_acquire()
    assert fresh is not None and fresh.slot == 1


def test_epochs_are_deduplicated_across_reporting_clients():
    pool, _built, clients = _pool(3)
    for _ in range(3):
        pool.acquire()
    epoch = _epoch(1, members=(0, 2))
    clients[0].install(epoch)
    clients[2].install(epoch)  # every member reports the same install
    assert pool.sessions_evicted == 1  # counted once
    clients[0].install(_epoch(2, members=(0, 1, 2)))
    clients[2].install(_epoch(2, members=(0, 1, 2)))
    assert pool.sessions_recycled == 1


def test_eviction_of_a_free_slot_removes_it_from_the_free_list():
    pool, _built, clients = _pool(2)
    lease = pool.acquire()  # slot 0, materialized (and subscribed)
    pool.release(lease)
    clients[0].install(_epoch(1, members=(1,)))  # slot 0 evicted while free
    assert pool.sessions_evicted == 0  # nobody was holding it
    assert pool.try_acquire_slot(0) is None
    got = pool.acquire()
    assert got.slot == 1


# --------------------------------------------------------------------- #
# Scale: sessions are cheap, signers are not
# --------------------------------------------------------------------- #


def test_twenty_thousand_sessions_over_eight_slots():
    pool, built, _clients = _pool(8)
    rng = random.Random(7)
    live = []
    for _ in range(20_000):
        if live and (len(live) == 8 or rng.random() < 0.5):
            pool.release(live.pop(rng.randrange(len(live))))
        lease = pool.acquire()
        live.append(lease)
    assert pool.sessions_created == 20_000
    assert pool.peak_in_use <= 8
    assert len(built) == len(set(built)) <= 8
    ids = pool._next_session
    assert ids == 20_000  # monotonic, never reused


# --------------------------------------------------------------------- #
# Churn planning
# --------------------------------------------------------------------- #


def test_churn_plan_is_deterministic_and_sane():
    a = plan_churn_windows(
        random.Random(11), 20, horizon=500.0, mean_duration=5.0, num_slots=40
    )
    b = plan_churn_windows(
        random.Random(11), 20, horizon=500.0, mean_duration=5.0, num_slots=40
    )
    assert a == b
    assert len(a) == 20
    assert all(0.0 <= w.start < 500.0 for w in a)
    assert all(w.duration >= 1.0 for w in a)
    assert a == sorted(a, key=lambda w: (w.start, w.duration))


def test_churn_plan_rejects_concurrent_overload():
    with pytest.raises(ConfigurationError, match="signer set"):
        plan_churn_windows(
            random.Random(3), 50, horizon=10.0, mean_duration=60.0, num_slots=2
        )


def test_churn_plan_rejects_negative_count():
    with pytest.raises(ConfigurationError, match="non-negative"):
        plan_churn_windows(
            random.Random(3), -1, horizon=10.0, mean_duration=1.0, num_slots=2
        )


def test_max_concurrent_counts_overlap():
    windows = [
        Fault("away", None, 0.0, 10.0),
        Fault("away", None, 5.0, 10.0),
        Fault("away", None, 20.0, 1.0),
    ]
    assert _max_concurrent(windows) == 2
    assert _max_concurrent([]) == 0
    assert windows[0].end == 10.0
