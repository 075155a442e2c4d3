"""A wall-clock scheduler with the simulator's timer surface.

Protocol components never import the sim :class:`~repro.sim.scheduler.
Scheduler` type — they call ``scheduler.now``, ``scheduler.rng`` and
``scheduler.schedule(delay, fn, *args)`` and keep the returned handle to
cancel it.  :class:`RealtimeScheduler` provides exactly that surface on
top of an asyncio event loop, so the Session flush timers, the
``PeriodicTimer`` driving incremental audits, and client deadline logic
run unchanged against real time.

``now`` is seconds since the scheduler's epoch (loop creation), so
timestamps recorded in histories and traces start near zero like the
simulator's — one simulated time unit maps to one wall-clock second.
"""

from __future__ import annotations

import asyncio
import random
from typing import TYPE_CHECKING, Any, Callable

from repro.common.errors import SimulationError

if TYPE_CHECKING:
    from repro.net.client import NetRuntime


class RealtimeHandle:
    """Cancellation handle mirroring the sim scheduler's ``EventHandle``."""

    __slots__ = ("_timer", "time")

    def __init__(self, timer: asyncio.TimerHandle, time: float) -> None:
        self._timer = timer
        self.time = time

    def cancel(self) -> None:
        self._timer.cancel()

    @property
    def cancelled(self) -> bool:
        return self._timer.cancelled()


class RealtimeScheduler:
    """Wall-clock implementation of the scheduler seam.

    ``run``/``run_until`` are what :class:`~repro.workloads.runner.
    StorageSystem` delegates to on every world; here they pump the
    attached runtime's event loop rather than draining a virtual event
    queue.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, *, seed: int = 0) -> None:
        self.loop = loop
        self.rng = random.Random(seed)
        self.events_processed = 0
        self._epoch = loop.time()
        self._runtime: "NetRuntime | None" = None

    # -- time ---------------------------------------------------------- #

    @property
    def now(self) -> float:
        return self.loop.time() - self._epoch

    # -- timers -------------------------------------------------------- #

    def schedule(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> RealtimeHandle:
        if not delay >= 0:  # NaN fails too
            raise SimulationError(f"cannot schedule {delay} into the past")

        def fire() -> None:
            self.events_processed += 1
            fn(*args)

        timer = self.loop.call_later(delay, fire)
        return RealtimeHandle(timer, self.now + delay)

    def schedule_at(
        self, time: float, fn: Callable[..., Any], *args: Any
    ) -> RealtimeHandle:
        return self.schedule(max(0.0, time - self.now), fn, *args)

    # -- running ------------------------------------------------------- #

    def attach_runtime(self, runtime: "NetRuntime") -> None:
        self._runtime = runtime

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float | None = None,
        max_events: int | None = None,
    ) -> bool:
        if self._runtime is None:
            raise SimulationError(
                "RealtimeScheduler.run_until needs an attached NetRuntime"
            )
        return self._runtime.pump_until(predicate, timeout)

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Pump until the clock reads ``until`` seconds; returns the number
        of timer events this call fired (like the simulator's ``run``)."""
        if until is None:
            raise SimulationError(
                "a wall-clock scheduler cannot run to quiescence; "
                "give run() a wall-clock bound or use run_until()"
            )
        before = self.events_processed
        self.run_until(lambda: self.now >= until, timeout=None)
        return self.events_processed - before
