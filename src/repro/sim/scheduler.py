"""Deterministic discrete-event scheduler.

Everything in this reproduction — protocol runs, Byzantine attacks,
benchmarks — executes on this single-threaded event loop.  Determinism is a
design requirement (DESIGN.md §5): given the same seed and the same call
sequence, two runs produce byte-identical traces, which the test suite and
the experiment harness rely on.

Events scheduled for the same simulated time fire in scheduling order
(stable tie-break by a monotonically increasing sequence number), so the
asynchronous-network semantics of the paper's model are explored
reproducibly rather than via wall-clock races.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Any, Callable

from repro.common.errors import SimulationError


class _ScheduledEvent:
    """One scheduled callback.

    The heap holds ``(time, seq, event)`` tuples, so ordering is a C
    tuple compare that never reaches the event (``seq`` is unique).
    """

    __slots__ = ("time", "fn", "args", "cancelled")

    def __init__(self, time: float, fn: Callable[..., None], args: tuple[Any, ...]) -> None:
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False


class EventHandle:
    """Cancellation handle returned by :meth:`Scheduler.schedule`."""

    __slots__ = ("_event",)

    def __init__(self, event: _ScheduledEvent) -> None:
        self._event = event

    def cancel(self) -> None:
        """Prevent the event from firing (idempotent; no-op if already fired)."""
        self._event.cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def time(self) -> float:
        return self._event.time


class Scheduler:
    """A seeded discrete-event loop with virtual time.

    >>> sched = Scheduler(seed=7)
    >>> fired = []
    >>> _ = sched.schedule(2.0, fired.append, "b")
    >>> _ = sched.schedule(1.0, fired.append, "a")
    >>> sched.run()
    2
    >>> fired
    ['a', 'b']
    """

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        self._seq = 0
        #: Heap of ``(time, seq, event)``: ordered by the first two alone.
        self._queue: list[tuple[float, int, _ScheduledEvent]] = []
        self._rng = random.Random(seed)
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def rng(self) -> random.Random:
        """The run's single source of randomness (latency sampling etc.)."""
        return self._rng

    @property
    def pending(self) -> int:
        """Number of scheduled-and-not-yet-fired (or cancelled) events."""
        return sum(1 for entry in self._queue if not entry[2].cancelled)

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` time units from now."""
        if not delay >= 0:  # NaN fails too
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at an absolute virtual time."""
        if not time >= self._now:  # NaN fails too; inf is a legal "never"
            raise SimulationError(
                f"cannot schedule at {time} which is before now={self._now}"
            )
        event = _ScheduledEvent(time, fn, args)
        heapq.heappush(self._queue, (time, self._seq, event))
        self._seq += 1
        return EventHandle(event)

    def _fire(self, event: _ScheduledEvent) -> None:
        """Advance the clock to ``event`` (already popped) and run it."""
        self._now = event.time
        self._events_processed += 1
        event.fn(*event.args)

    def step(self) -> bool:
        """Fire the next event; return False when the queue is empty."""
        queue = self._queue
        while queue:
            event = heapq.heappop(queue)[2]
            if not event.cancelled:
                self._fire(event)
                return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Run events until the queue drains, ``until`` passes, or the budget ends.

        Returns the number of events fired by this call.  ``until`` is an
        inclusive virtual-time bound: events at exactly ``until`` still fire
        (``inf`` is legal; NaN is refused, since no event is ever past it).
        """
        if until is not None and math.isnan(until):
            raise SimulationError("run(until=nan) would never stop")
        queue = self._queue
        pop = heapq.heappop
        fired = 0
        while queue:
            event = queue[0][2]
            if event.cancelled:
                pop(queue)
                continue
            if until is not None and event.time > until:
                break
            if max_events is not None and fired >= max_events:
                break
            pop(queue)
            self._fire(event)
            fired += 1
        if until is not None and (max_events is None or fired < max_events):
            # "Run until T" leaves the clock at T even if the queue drained
            # early, so subsequent relative scheduling anchors at T.
            self._now = max(self._now, until)
        return fired

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float | None = None,
        max_events: int = 10_000_000,
    ) -> bool:
        """Run until ``predicate()`` holds; return whether it ever did.

        ``timeout`` bounds virtual time (``inf`` is legal, NaN refused);
        ``max_events`` guards against non-terminating protocols (a genuine
        possibility when simulating blocking baselines — see E5).
        """
        if timeout is not None and math.isnan(timeout):
            raise SimulationError("run_until(timeout=nan) has no deadline")
        deadline = None if timeout is None else self._now + timeout
        queue = self._queue
        pop = heapq.heappop
        fired = 0
        if predicate():
            return True
        while queue and fired < max_events:
            event = queue[0][2]
            if event.cancelled:
                pop(queue)
                continue
            if deadline is not None and event.time > deadline:
                self._now = max(self._now, deadline)
                return predicate()
            pop(queue)
            self._fire(event)
            fired += 1
            if predicate():
                return True
        return predicate()
