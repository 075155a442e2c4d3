"""Workload generation and the driver that feeds operations to clients.

A workload is, per client, a list of :class:`PlannedOp` — operation kind,
target register, value, and a think-time before issuing.  The
:class:`Driver` walks each client through its script, issuing the next
operation when the previous one completes, and keeps completion statistics
(essential for the wait-freedom experiments, where *not completing* is the
phenomenon under study).

Closed loop vs open loop.  Scripted workloads are *closed-loop*: each
client issues its next operation only after the previous one completed,
so the offered load adapts to the system's speed and queueing delay is
invisible.  The scale harness (:mod:`repro.workloads.scale`) needs the
opposite — *open-loop* arrivals (:class:`TimedOp`, Poisson interarrivals,
Zipf key popularity) issue at absolute times regardless of completion, so
measured latency includes the queueing a loaded deployment actually
inflicts (the coordinated-omission trap closed loops fall into).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError, ProtocolError
from repro.common.types import ClientId, OpKind, RegisterId
from repro.workloads.runner import Deployment


@dataclass(frozen=True)
class PlannedOp:
    """One scripted operation."""

    kind: OpKind
    register: RegisterId
    value: bytes | None = None  # writes only
    think_time: float = 0.0  # delay between previous completion and issue


@dataclass
class WorkloadConfig:
    """Knobs for random workload generation."""

    ops_per_client: int = 20
    read_fraction: float = 0.5
    value_size: int = 32
    mean_think_time: float = 2.0
    #: clients that issue no operations (pure observers)
    silent_clients: frozenset[ClientId] = frozenset()
    #: client -> the registers its reads may target (default: any)
    read_pools: dict = field(default_factory=dict)
    #: client -> registers one of which its second operation must read
    early_reads: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigurationError("read_fraction must be in [0, 1]")
        if self.ops_per_client < 0 or self.value_size < 1:
            raise ConfigurationError("invalid workload parameters")


def unique_value(client: ClientId, sequence: int, size: int) -> bytes:
    """A distinct, self-describing register value (Section 2 assumes
    written values are unique; we make them traceable too)."""
    stem = f"C{client + 1}#{sequence}|".encode()
    if len(stem) >= size:
        return stem
    return stem + bytes((client * 131 + sequence * 17 + k) % 256 for k in range(size - len(stem)))


def generate_scripts(
    num_clients: int, config: WorkloadConfig, rng: random.Random
) -> dict[ClientId, list[PlannedOp]]:
    """Random per-client scripts under ``config``."""
    scripts: dict[ClientId, list[PlannedOp]] = {}
    for client in range(num_clients):
        ops: list[PlannedOp] = []
        if client in config.silent_clients:
            scripts[client] = ops
            continue
        write_count = 0
        pool = config.read_pools.get(client, range(num_clients))
        early = config.early_reads.get(client)
        for index in range(config.ops_per_client):
            think = rng.expovariate(1.0 / config.mean_think_time) if config.mean_think_time > 0 else 0.0
            if early and index == 1:
                ops.append(PlannedOp(OpKind.READ, rng.choice(early), think_time=think))
            elif rng.random() < config.read_fraction:
                ops.append(PlannedOp(OpKind.READ, rng.choice(pool), think_time=think))
            else:
                write_count += 1
                ops.append(
                    PlannedOp(
                        OpKind.WRITE,
                        client,
                        value=unique_value(client, write_count, config.value_size),
                        think_time=think,
                    )
                )
        scripts[client] = ops
    return scripts


class ZipfSampler:
    """Zipf(s)-distributed indexes over ``0 .. num_items - 1``.

    Item ``k`` (0-based) is drawn with probability proportional to
    ``1 / (k + 1) ** exponent`` — the skewed key popularity real storage
    front-ends see.  The CDF is precomputed once; each draw is a single
    uniform variate plus a bisection, so sampling stays O(log n) and the
    sequence is fully determined by the caller's RNG.
    """

    def __init__(self, num_items: int, exponent: float = 1.0) -> None:
        if num_items < 1:
            raise ConfigurationError("ZipfSampler needs at least one item")
        if exponent < 0:
            raise ConfigurationError("Zipf exponent must be non-negative")
        self.num_items = num_items
        self.exponent = exponent
        weights = [1.0 / (k + 1) ** exponent for k in range(num_items)]
        total = sum(weights)
        cdf: list[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            cdf.append(acc)
        cdf[-1] = 1.0  # guard against float drift at the tail
        self._cdf = cdf

    def sample(self, rng: random.Random) -> int:
        """Draw one index using ``rng``."""
        return bisect_left(self._cdf, rng.random())


@dataclass(frozen=True)
class TimedOp:
    """One open-loop operation: issued at absolute time ``at``."""

    at: float
    kind: OpKind
    register: RegisterId
    value: bytes | None = None  # writes only


@dataclass
class OpenLoopConfig:
    """Knobs for open-loop (Poisson/Zipf) schedule generation."""

    #: Mean arrivals per virtual time unit, per client.
    rate: float = 1.0
    #: Schedule horizon: arrivals are drawn over ``[0, duration]``.
    duration: float = 100.0
    read_fraction: float = 0.5
    #: Key-popularity skew for read targets (0 = uniform).
    zipf_exponent: float = 1.0
    value_size: int = 32

    def __post_init__(self) -> None:
        if not (self.rate > 0 and self.duration > 0):  # NaN fails too
            raise ConfigurationError("rate and duration must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigurationError("read_fraction must be in [0, 1]")
        if self.zipf_exponent < 0 or self.value_size < 1:
            raise ConfigurationError("invalid open-loop parameters")


def generate_open_loop(
    num_clients: int, config: OpenLoopConfig, rng: random.Random
) -> dict[ClientId, list[TimedOp]]:
    """Per-client open-loop schedules: Poisson arrivals, Zipf read keys.

    Arrival times are cumulative exponential interarrivals (a Poisson
    process of rate ``config.rate`` per client); reads target a
    Zipf-popular register, writes go to the client's own register (SWMR).
    The schedule depends only on ``rng``, so a pinned seed replays the
    identical workload.
    """
    sampler = ZipfSampler(num_clients, config.zipf_exponent)
    schedules: dict[ClientId, list[TimedOp]] = {}
    for client in range(num_clients):
        at = 0.0
        ops: list[TimedOp] = []
        writes = 0
        while True:
            at += rng.expovariate(config.rate)
            if at > config.duration:
                break
            if rng.random() < config.read_fraction:
                ops.append(TimedOp(at, OpKind.READ, sampler.sample(rng)))
            else:
                writes += 1
                ops.append(
                    TimedOp(
                        at,
                        OpKind.WRITE,
                        client,
                        unique_value(client, writes, config.value_size),
                    )
                )
        schedules[client] = ops
    return schedules


@dataclass
class DriverStats:
    """Per-client completion accounting."""

    issued: dict[ClientId, int] = field(default_factory=dict)
    completed: dict[ClientId, int] = field(default_factory=dict)
    planned: dict[ClientId, int] = field(default_factory=dict)

    def total_completed(self) -> int:
        """Operations completed across every client."""
        return sum(self.completed.values())

    def total_planned(self) -> int:
        """Operations planned across every client."""
        return sum(self.planned.values())

    def progress(self) -> str:
        """``completed/planned`` across every client, as tables print it."""
        return f"{self.total_completed()}/{self.total_planned()}"

    def all_done(self, clients=None) -> bool:
        """True when every client (of ``clients``) completed its full plan."""
        return all(
            self.completed.get(c, 0) >= planned
            for c, planned in self.planned.items()
            if clients is None or c in clients
        )


class Driver:
    """Feeds scripts to clients, one operation at a time per client.

    ``via_sessions=True`` routes operations through the api-level
    per-client sessions instead of calling the protocol clients
    directly — the mode a batching deployment needs, since the session
    is the layer that buffers and auto-flushes submissions
    (``SystemConfig(batching=...)``).
    """

    def __init__(self, system: Deployment, via_sessions: bool = False) -> None:
        self._system = system
        self._via_sessions = via_sessions
        self.stats = DriverStats()

    def attach(self, client_id: ClientId, script: list[PlannedOp]) -> None:
        """Start feeding ``script`` to ``client_id`` (closed loop)."""
        self.stats.planned[client_id] = len(script)
        self.stats.issued.setdefault(client_id, 0)
        self.stats.completed.setdefault(client_id, 0)
        if script:
            self._schedule_next(client_id, script, 0)

    def attach_all(self, scripts: dict[ClientId, list[PlannedOp]]) -> None:
        """Attach every client's closed-loop script."""
        for client_id, script in scripts.items():
            self.attach(client_id, script)

    def _schedule_next(self, client_id: ClientId, script, index: int) -> None:
        planned = script[index]
        self._system.scheduler.schedule(
            planned.think_time, self._issue, client_id, script, index
        )

    def _issue(self, client_id: ClientId, script, index: int) -> None:
        client = self._system.clients[client_id]
        if client.halted:
            return  # a crashed or failed client takes no more steps
        planned: PlannedOp = script[index]
        self.stats.issued[client_id] += 1

        def completed(_outcome) -> None:
            self.stats.completed[client_id] += 1
            if index + 1 < len(script):
                self._schedule_next(client_id, script, index + 1)

        if self._via_sessions:
            # Pipelined submission: the session (and its batch buffer)
            # absorbs the stream, so think time spaces *submissions* and
            # batches can actually fill — waiting for completion first
            # would cap every batch at one operation.
            session = self._system.session(client_id)
            try:
                handle = (
                    session.write(planned.value)
                    if planned.kind is OpKind.WRITE
                    else session.read(planned.register)
                )
            except ProtocolError:
                return  # client died between operations; stop the script
            def settled(h) -> None:
                if h._exception is None:
                    self.stats.completed[client_id] += 1
            handle.add_done_callback(settled)
            if index + 1 < len(script):
                self._schedule_next(client_id, script, index + 1)
        elif planned.kind is OpKind.WRITE:
            client.write(planned.value, completed)
        else:
            client.read(planned.register, completed)

    # ------------------------------------------------------------------ #
    # Open-loop mode
    # ------------------------------------------------------------------ #

    def attach_open_loop(
        self,
        client_id: ClientId,
        schedule: list[TimedOp],
        on_latency=None,
    ) -> None:
        """Drive one client by absolute arrival times (open loop).

        Operations issue at each :class:`TimedOp`'s ``at`` regardless of
        whether earlier ones completed — the client's submission queue
        absorbs the backlog, so ``on_latency(client_id, latency)`` (called
        at each completion with ``completion_time - arrival_time``)
        measures *response time including queueing delay*, which is the
        quantity a closed-loop driver cannot see.
        """
        self.stats.planned[client_id] = (
            self.stats.planned.get(client_id, 0) + len(schedule)
        )
        self.stats.issued.setdefault(client_id, 0)
        self.stats.completed.setdefault(client_id, 0)
        if schedule:
            self._system.scheduler.schedule_at(
                schedule[0].at, self._issue_timed, client_id, schedule, 0, on_latency
            )

    def attach_open_loop_all(
        self, schedules: dict[ClientId, list[TimedOp]], on_latency=None
    ) -> None:
        """Attach every client's open-loop schedule."""
        for client_id, schedule in schedules.items():
            self.attach_open_loop(client_id, schedule, on_latency)

    def _issue_timed(self, client_id: ClientId, schedule, index: int, on_latency) -> None:
        # Chain before issuing: a dead client stops the chain below, but a
        # slow one must not delay the next arrival (that's the open loop).
        if index + 1 < len(schedule):
            self._system.scheduler.schedule_at(
                schedule[index + 1].at,
                self._issue_timed, client_id, schedule, index + 1, on_latency,
            )
        client = self._system.clients[client_id]
        if client.halted:
            return
        op: TimedOp = schedule[index]
        self.stats.issued[client_id] += 1
        arrival = op.at

        def completed(_outcome) -> None:
            self.stats.completed[client_id] += 1
            if on_latency is not None:
                on_latency(client_id, self._system.now - arrival)

        if op.kind is OpKind.WRITE:
            client.write(op.value, completed)
        else:
            client.read(op.register, completed)

    # ------------------------------------------------------------------ #
    # Run helpers
    # ------------------------------------------------------------------ #

    def run_to_completion(self, timeout: float = 100_000.0) -> bool:
        """Run until every script finished; False if blocked/failed first."""
        return self._system.run_until(self.stats.all_done, timeout=timeout)

    def settled(self) -> bool:
        """Every client finished its script or halted — a failed or
        crashed client (Byzantine server caught) never will."""
        stats = self.stats
        return all(
            stats.completed.get(c.client_id, 0) >= stats.planned.get(c.client_id, 0)
            or c.halted
            for c in self._system.clients
        )

    def completion_fraction(self) -> float:
        """Completed / planned over all clients (1.0 when nothing planned)."""
        planned = self.stats.total_planned()
        if planned == 0:
            return 1.0
        return self.stats.total_completed() / planned


def run_closed_loop(
    system: Deployment,
    workload: WorkloadConfig | dict[ClientId, list[PlannedOp]],
    rng: random.Random | None = None,
    *,
    until: float | None = None,
    timeout: float = 1_000_000.0,
    or_halted: bool = False,
    via_sessions: bool = False,
) -> Driver:
    """The closed-loop run: scripts for every client, attached, driven.

    ``workload`` is a :class:`WorkloadConfig` (scripts are drawn from
    ``rng``) or ready-made scripts.  ``until`` runs the system to that
    time whatever the scripts do; without it the run ends when every
    script finished (``or_halted``: or its client did — over real time
    nobody waits out ``timeout`` for a client that output ``fail``), and
    ``driver.stats.all_done()`` says whether everything completed.
    """
    if isinstance(workload, WorkloadConfig):
        workload = generate_scripts(len(system.clients), workload, rng)
    driver = Driver(system, via_sessions=via_sessions)
    driver.attach_all(workload)
    if until is not None:
        system.run(until=until)
    else:
        done = driver.settled if or_halted else driver.stats.all_done
        system.run_until(done, timeout=timeout)
    return driver
