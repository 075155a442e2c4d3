"""The discrete-event scheduler: ordering, determinism, bounded runs."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.sim.scheduler import Scheduler


class TestOrdering:
    def test_time_order(self):
        sched = Scheduler()
        fired = []
        sched.schedule(2.0, fired.append, "late")
        sched.schedule(1.0, fired.append, "early")
        sched.run()
        assert fired == ["early", "late"]

    def test_fifo_tie_break(self):
        sched = Scheduler()
        fired = []
        for tag in range(5):
            sched.schedule(1.0, fired.append, tag)
        sched.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        sched = Scheduler()
        seen = []
        sched.schedule(3.5, lambda: seen.append(sched.now))
        sched.run()
        assert seen == [3.5]
        assert sched.now == 3.5

    def test_nested_scheduling(self):
        sched = Scheduler()
        fired = []

        def outer():
            fired.append("outer")
            sched.schedule(1.0, fired.append, "inner")

        sched.schedule(1.0, outer)
        sched.run()
        assert fired == ["outer", "inner"]
        assert sched.now == 2.0

    def test_zero_delay_runs_at_current_time(self):
        sched = Scheduler()
        times = []
        sched.schedule(5.0, lambda: sched.schedule(0.0, lambda: times.append(sched.now)))
        sched.run()
        assert times == [5.0]


class TestBounds:
    def test_run_until_time_bound_inclusive(self):
        sched = Scheduler()
        fired = []
        sched.schedule(1.0, fired.append, 1)
        sched.schedule(2.0, fired.append, 2)
        sched.schedule(3.0, fired.append, 3)
        sched.run(until=2.0)
        assert fired == [1, 2]
        assert sched.now == 2.0
        sched.run()
        assert fired == [1, 2, 3]

    def test_run_until_advances_clock_to_bound(self):
        sched = Scheduler()
        sched.schedule(10.0, lambda: None)
        sched.run(until=4.0)
        assert sched.now == 4.0

    def test_max_events(self):
        sched = Scheduler()
        fired = []
        for i in range(10):
            sched.schedule(float(i), fired.append, i)
        assert sched.run(max_events=3) == 3
        assert fired == [0, 1, 2]

    def test_run_until_predicate(self):
        sched = Scheduler()
        fired = []
        for i in range(10):
            sched.schedule(float(i + 1), fired.append, i)
        assert sched.run_until(lambda: len(fired) >= 4)
        assert len(fired) == 4

    def test_run_until_predicate_timeout(self):
        sched = Scheduler()
        sched.schedule(100.0, lambda: None)
        assert not sched.run_until(lambda: False, timeout=5.0)
        assert sched.now == 5.0

    def test_run_until_true_immediately(self):
        sched = Scheduler()
        assert sched.run_until(lambda: True)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sched = Scheduler()
        fired = []
        handle = sched.schedule(1.0, fired.append, "x")
        handle.cancel()
        sched.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sched = Scheduler()
        handle = sched.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_pending_excludes_cancelled(self):
        sched = Scheduler()
        keep = sched.schedule(1.0, lambda: None)
        drop = sched.schedule(2.0, lambda: None)
        drop.cancel()
        assert sched.pending == 1
        assert not keep.cancelled


class TestErrors:
    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Scheduler().schedule(-1.0, lambda: None)
        # NaN fails every comparison: ``delay < 0`` let it into the clock.
        with pytest.raises(SimulationError):
            Scheduler().schedule(float("nan"), lambda: None)

    def test_scheduling_into_past_rejected(self):
        sched = Scheduler()
        sched.schedule(5.0, lambda: None)
        sched.run()
        with pytest.raises(SimulationError):
            sched.schedule_at(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sched.schedule_at(float("nan"), lambda: None)
        sched.schedule_at(float("inf"), lambda: None)  # a window that never ends
        assert sched.pending == 1


class TestDeterminism:
    def test_rng_is_seeded(self):
        a = Scheduler(seed=42).rng.random()
        b = Scheduler(seed=42).rng.random()
        assert a == b

    def test_different_seeds_differ(self):
        assert Scheduler(seed=1).rng.random() != Scheduler(seed=2).rng.random()

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=30))
    def test_any_delay_set_fires_in_order(self, delays):
        sched = Scheduler()
        fired = []
        for delay in delays:
            sched.schedule(delay, lambda d=delay: fired.append(d))
        sched.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    def test_events_processed_counter(self):
        sched = Scheduler()
        for i in range(7):
            sched.schedule(float(i), lambda: None)
        sched.run()
        assert sched.events_processed == 7


# --------------------------------------------------------------------- #
# One event loop, three ways to drive it
# --------------------------------------------------------------------- #

#: A scripted run: ``(delay, spawn delay or None, index to cancel or None)``
#: per root event.  Coarse delays make same-time ties common.
_scripts = st.lists(
    st.tuples(
        st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.5]),
        st.one_of(st.none(), st.sampled_from([0.0, 1.0, 2.5])),
        st.one_of(st.none(), st.integers(min_value=0, max_value=11)),
    ),
    max_size=12,
)


def _load(script):
    """A scheduler holding ``script``; returns it with its firing log.

    Every root event logs itself, may spawn a child (nested scheduling)
    and may cancel another root's handle (before or after that one fired).
    """
    sched = Scheduler(seed=3)
    log: list = []
    handles: list = []

    def fire(index, spawn, cancel):
        log.append((sched.now, "root", index))
        if spawn is not None:
            sched.schedule(spawn, lambda: log.append((sched.now, "child", index)))
        if cancel is not None and cancel < len(handles):
            handles[cancel].cancel()

    for index, (delay, spawn, cancel) in enumerate(script):
        handles.append(sched.schedule(delay, fire, index, spawn, cancel))
    return sched, log, handles


def _by_step(sched):
    while sched.step():
        pass


def _by_run_in_slices(sched):
    # A time bound, then an event budget, then the rest: all three exits.
    sched.run(until=1.0)
    sched.run(max_events=2)
    sched.run()


def _by_run_until(sched):
    assert not sched.run_until(lambda: False, timeout=1.0)
    assert not sched.run_until(lambda: False, max_events=2)
    assert not sched.run_until(lambda: False)


class TestDriversAgree:
    @given(_scripts)
    def test_same_events_whichever_way_the_loop_is_driven(self, script):
        outcomes = []
        for drive in (_by_step, _by_run_in_slices, _by_run_until):
            sched, log, handles = _load(script)
            scheduled = [handle.time for handle in handles]
            drive(sched)
            outcomes.append(
                (log, sched.events_processed, sched.pending, scheduled,
                 [handle.cancelled for handle in handles])
            )
            assert sched.pending == 0 and not sched.step()
            assert sched.events_processed == len(log)
        assert outcomes[0] == outcomes[1] == outcomes[2]

    @given(_scripts)
    def test_ties_fire_in_scheduling_order(self, script):
        sched, log, _ = _load(script)
        sched.run()
        roots = [(time, index) for time, kind, index in log if kind == "root"]
        assert roots == sorted(roots)
        assert [time for time, _, _ in log] == sorted(time for time, _, _ in log)

    def test_handle_reports_its_time_and_cancel_before_fire_holds(self):
        sched = Scheduler()
        fired = []
        sched.run(until=2.0)
        keep = sched.schedule(1.5, fired.append, "keep")
        drop = sched.schedule(0.5, fired.append, "drop")
        assert (keep.time, drop.time) == (3.5, 2.5)
        assert sched.pending == 2
        drop.cancel()
        assert drop.cancelled and not keep.cancelled and sched.pending == 1
        assert sched.run_until(lambda: bool(fired), timeout=10.0)
        assert fired == ["keep"] and sched.now == 3.5
        assert sched.events_processed == 1 and sched.pending == 0
        keep.cancel()  # after the fact: a no-op
        assert fired == ["keep"]

    def test_a_cancelled_head_is_dropped_even_past_the_bound(self):
        sched = Scheduler()
        sched.schedule(5.0, lambda: None).cancel()
        assert sched.run(until=1.0) == 0
        assert sched.now == 1.0 and sched.pending == 0 and not sched.step()
