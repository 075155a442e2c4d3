"""Periodic timers, metrics aggregation, and trace queries."""

from __future__ import annotations

import pytest

from repro.analysis.stats import percentile, summarize
from repro.common.errors import SimulationError
from repro.sim.scheduler import Scheduler
from repro.sim.timers import PeriodicTimer
from repro.sim.trace import SimTrace


class TestPeriodicTimer:
    def test_fires_periodically(self):
        sched = Scheduler()
        ticks = []
        timer = PeriodicTimer(sched, 2.0, lambda: ticks.append(sched.now))
        timer.start()
        sched.run(until=7.0)
        assert ticks == [2.0, 4.0, 6.0]

    def test_initial_delay(self):
        sched = Scheduler()
        ticks = []
        timer = PeriodicTimer(sched, 5.0, lambda: ticks.append(sched.now), initial_delay=1.0)
        timer.start()
        sched.run(until=7.0)
        assert ticks == [1.0, 6.0]

    def test_stop(self):
        sched = Scheduler()
        ticks = []
        timer = PeriodicTimer(sched, 1.0, lambda: ticks.append(sched.now))
        timer.start()
        sched.schedule(2.5, timer.stop)
        sched.run(until=10.0)
        assert ticks == [1.0, 2.0]

    def test_callback_can_stop_timer(self):
        sched = Scheduler()
        ticks = []
        timer = PeriodicTimer(sched, 1.0, lambda: (ticks.append(sched.now), timer.stop()))
        timer.start()
        sched.run(until=10.0)
        assert ticks == [1.0]

    def test_start_is_idempotent(self):
        sched = Scheduler()
        ticks = []
        timer = PeriodicTimer(sched, 1.0, lambda: ticks.append(1))
        timer.start()
        timer.start()
        sched.run(until=1.0)
        assert ticks == [1]

    def test_jitter_stays_near_period(self):
        sched = Scheduler(seed=9)
        ticks = []
        timer = PeriodicTimer(sched, 10.0, lambda: ticks.append(sched.now), jitter=0.2)
        timer.start()
        sched.run(until=100.0)
        gaps = [b - a for a, b in zip(ticks, ticks[1:])]
        assert all(8.0 <= g <= 12.0 for g in gaps)
        assert len(ticks) >= 8

    def test_invalid_period_rejected(self):
        with pytest.raises(SimulationError):
            PeriodicTimer(Scheduler(), 0.0, lambda: None)

    def test_invalid_jitter_rejected(self):
        with pytest.raises(SimulationError):
            PeriodicTimer(Scheduler(), 1.0, lambda: None, jitter=1.0)


class TestMetrics:
    def test_summary_values(self):
        s = summarize([1, 2, 3, 4, 5])
        assert s.count == 5
        assert s.mean == 3
        assert s.minimum == 1
        assert s.maximum == 5
        assert s.p50 == 3

    def test_percentile_nearest_rank(self):
        data = sorted([10.0, 20.0, 30.0, 40.0])
        assert percentile(data, 0.0) == 10.0
        assert percentile(data, 0.5) == 20.0
        assert percentile(data, 1.0) == 40.0

    def test_percentile_rejects_empty(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_summarize_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_summary_format(self):
        text = summarize([1.0, 2.0]).format("ms")
        assert "mean=1.500 ms" in text


class TestTrace:
    def test_note_queries(self):
        trace = SimTrace()
        trace.note(1.0, "C1", "checkpoint", (1, (1, 0)))
        trace.note(2.0, "C2", "client-crash")
        trace.note(3.0, "C1", "checkpoint", (2, (2, 0)))
        assert len(trace.notes_of_kind("checkpoint")) == 2
        first = trace.first_note("checkpoint", source="C1")
        assert first is not None and first.time == 1.0
        assert trace.first_note("nothing") is None

    def test_message_aggregation(self):
        trace = SimTrace()
        trace.record_message(0.0, 1.0, "A", "B", "SUBMIT", 100)
        trace.record_message(0.0, 1.0, "A", "B", "SUBMIT", 50)
        trace.record_message(0.0, 1.0, "B", "A", "REPLY", 70)
        assert trace.message_count() == 3
        assert trace.message_count("SUBMIT") == 2
        assert trace.total_bytes("SUBMIT") == 150
        assert trace.total_bytes() == 220
