"""Reliable FIFO channels between clients and the server.

The model (Section 2, Figure 1) assumes *asynchronous reliable FIFO*
channels between each client and the server.  FIFO matters for correctness:
USTOR's check ``V^c[i] = V_i[i]`` (Algorithm 1, line 36) is sound only
because the server processes a client's COMMIT before that client's next
SUBMIT, which FIFO order guarantees.

This module enforces FIFO per directed link regardless of the latency
model: a message's delivery time is clamped to be no earlier than the
previously scheduled delivery on the same link.  Latencies are sampled from
pluggable distributions using the scheduler's seeded RNG, so adversarial
and randomized schedules are reproducible.

**Transport batching** (``Network(batching=True)``) coalesces a *burst* —
all messages sent on one directed link during one scheduler turn — into a
single delivery event: one latency sample, one heap push/pop, one wakeup
at the receiver, with the members handed over in send order (FIFO is
preserved by construction).  This models real transports that pack
same-destination frames into one packet, and is the macro lever behind
the end-to-end throughput work: a client's COMMIT + next SUBMIT, or a
flushed batch of session operations, crosses the simulated wire as one
event instead of k.  Per-message trace records are still emitted (E3/E4
count messages, not packets); burst formation is visible through the
``bursts_formed`` / ``messages_coalesced`` counters.

:class:`Network` is the simulator's implementation of the transport seam
(:class:`repro.net.transport.Transport`): it satisfies that protocol
structurally — ``register``/``send``/``trace`` — without importing it,
and :mod:`repro.net` provides the real-socket implementation of the same
surface.  Protocol nodes only ever see the seam.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

from repro.common.errors import ChannelError, SimulationError
from repro.sim.process import Node
from repro.sim.scheduler import Scheduler
from repro.sim.trace import SimTrace

#: Minimal spacing between deliveries on one link, keeping delivery times
#: strictly increasing so event ordering is unambiguous.
_FIFO_EPSILON = 1e-9


class LatencyModel(ABC):
    """Distribution of one-way message delays on a link."""

    @abstractmethod
    def sample(self, rng) -> float:
        """Draw a non-negative delay."""


class FixedLatency(LatencyModel):
    """Constant delay — the workhorse for deterministic unit tests."""

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ChannelError(f"latency must be non-negative, got {delay}")
        self.delay = delay

    def sample(self, rng) -> float:
        return self.delay

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FixedLatency({self.delay})"


class UniformLatency(LatencyModel):
    """Uniform delay in ``[low, high]`` — models jittery WAN links."""

    def __init__(self, low: float, high: float) -> None:
        if not 0 <= low <= high:
            raise ChannelError(f"need 0 <= low <= high, got [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng) -> float:
        return rng.uniform(self.low, self.high)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UniformLatency({self.low}, {self.high})"


class ExponentialLatency(LatencyModel):
    """Exponential delay with a mean and an optional cap.

    Heavy-tailed enough to produce interesting interleavings (concurrent
    operations, late COMMITs) while the cap keeps runs finite-horizon.
    """

    def __init__(self, mean: float, cap: float | None = None) -> None:
        if mean <= 0:
            raise ChannelError(f"mean latency must be positive, got {mean}")
        if cap is not None and cap < mean:
            raise ChannelError("latency cap must be at least the mean")
        self.mean = mean
        self.cap = cap

    def sample(self, rng) -> float:
        delay = rng.expovariate(1.0 / self.mean)
        if self.cap is not None:
            delay = min(delay, self.cap)
        return delay

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExponentialLatency(mean={self.mean}, cap={self.cap})"


def message_kind(message: Any) -> str:
    """Best-effort short name of a message for traces and metrics."""
    kind = getattr(message, "kind", None)
    if isinstance(kind, str):
        return kind
    return type(message).__name__


def message_size(message: Any) -> int:
    """Wire size in bytes, if the message models it (else 0)."""
    fn = getattr(message, "wire_size", None)
    if callable(fn):
        return int(fn())
    return 0


class _Burst:
    """Messages coalesced onto one link delivery (batching mode only).

    ``marker`` identifies the scheduler turn the burst was opened in; a
    burst accepts members only while the marker matches, so a member can
    never be scheduled into a delivery that predates its send.
    """

    __slots__ = ("marker", "delivery", "messages")

    def __init__(self, marker: tuple, delivery: float, message: Any) -> None:
        self.marker = marker
        self.delivery = delivery
        self.messages: list[Any] = [message]


class _Link:
    """One directed link: latency model, FIFO clamp state and, in
    batching mode, the burst still open on it (``None`` once delivered)."""

    __slots__ = ("latency", "last_delivery", "extra_delay", "burst")

    def __init__(self, latency: LatencyModel) -> None:
        self.latency = latency
        self.last_delivery = -1.0
        self.extra_delay = 0.0
        self.burst: _Burst | None = None


class Network:
    """The star topology of Figure 1: every client linked to the server.

    Links are created lazily with a default latency model and can be
    reconfigured per direction (``set_latency``) or slowed down
    (``add_delay``) to build adversarial timings.  Channels are *reliable*:
    nothing is ever dropped — messages to a crashed node are recorded as
    undeliverable but that models the receiver's crash, not channel loss.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        default_latency: LatencyModel | None = None,
        trace: SimTrace | None = None,
        batching: bool = False,
        rng=None,
    ) -> None:
        self._scheduler = scheduler
        self._default_latency = default_latency or FixedLatency(1.0)
        # Latency sampling RNG.  Defaults to the scheduler's seeded RNG
        # (one stream per simulated world); a dedicated ``rng`` gives this
        # network its own stream — the cluster backend derives one per
        # shard so shards don't consume correlated "randomness".
        self._rng = rng if rng is not None else scheduler.rng
        self._trace = trace
        self._nodes: dict[str, Node] = {}
        self._links: dict[tuple[str, str], _Link] = {}
        self._batching = bool(batching)
        #: Delivery events created for message bursts (batching mode).
        self.bursts_formed = 0
        #: Messages that rode an already-open burst (saved scheduler events).
        self.messages_coalesced = 0

    @property
    def trace(self) -> SimTrace | None:
        return self._trace

    @property
    def batching(self) -> bool:
        """Is same-turn burst coalescing enabled on this network?"""
        return self._batching

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #

    def register(self, node: Node) -> None:
        if node.name in self._nodes:
            raise ChannelError(f"node name {node.name!r} already registered")
        self._nodes[node.name] = node
        node.bind(self._scheduler, self)

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise ChannelError(f"unknown node {name!r}") from None

    def _link(self, src: str, dst: str) -> _Link:
        key = (src, dst)
        link = self._links.get(key)
        if link is None:
            link = _Link(self._default_latency)
            self._links[key] = link
        return link

    def set_latency(self, src: str, dst: str, latency: LatencyModel) -> None:
        """Override the latency model of one directed link."""
        self._link(src, dst).latency = latency

    def add_delay(self, src: str, dst: str, extra: float) -> None:
        """Add a constant extra delay on a link (adversarial slow-down)."""
        if extra < 0:
            raise ChannelError("extra delay must be non-negative")
        self._link(src, dst).extra_delay = extra

    # ------------------------------------------------------------------ #
    # Transmission
    # ------------------------------------------------------------------ #

    def send(self, src: str, dst: str, message: Any) -> None:
        self._transmit(src, (dst,), message)

    def send_multi(self, src: str, dsts: tuple, message: Any) -> None:
        """One logical send fanned out to several destinations.

        The replica broadcast: **one** latency sample is drawn and shared
        by every destination (each link still adds its own adversarial
        ``extra_delay`` and keeps its own FIFO clamp).  Sharing the sample
        keeps honest replicas deterministic copies of each other — they
        see the same client stream in the same order at the same instants
        — and consumes exactly one RNG draw whatever the group size, so
        a replicated run's RNG stream does not depend on n.  Destinations
        whose link has an open same-turn burst ride it instead (batching
        mode), exactly as :meth:`send` would.
        """
        self._transmit(src, dsts, message)

    def _transmit(self, src: str, dsts: tuple, message: Any) -> None:
        """Hand ``message`` to the link towards each of ``dsts``.

        Everything that is the same for every destination is worked out
        once: the registration checks, the clock, the burst marker, the
        trace's ``(kind, size)`` and the shared latency sample (drawn only
        if some destination needs a delivery of its own).
        """
        nodes = self._nodes
        if src not in nodes:
            raise ChannelError(f"sender {src!r} is not registered")
        for dst in dsts:
            if dst not in nodes:
                raise ChannelError(f"recipient {dst!r} is not registered")
        scheduler = self._scheduler
        now = scheduler.now
        trace = self._trace
        if trace is not None:
            kind, size = message_kind(message), message_size(message)
        batching = self._batching
        marker = (scheduler.events_processed, now) if batching else None
        sample: float | None = None
        for dst in dsts:
            link = self._link(src, dst)
            burst = link.burst
            if burst is not None and burst.marker == marker:
                # Same link, same turn: ride the already-scheduled delivery.
                burst.messages.append(message)
                self.messages_coalesced += 1
                if trace is not None:
                    trace.record_message(now, burst.delivery, src, dst, kind, size)
                continue
            if sample is None:
                sample = link.latency.sample(self._rng)
            candidate = now + (sample + link.extra_delay)
            if candidate < now:
                raise SimulationError("latency model produced a negative delay")
            # FIFO clamp: never deliver before (or at) the previous delivery.
            delivery = max(candidate, link.last_delivery + _FIFO_EPSILON)
            link.last_delivery = delivery
            if trace is not None:
                trace.record_message(now, delivery, src, dst, kind, size)
            if batching:
                burst = link.burst = _Burst(marker, delivery, message)
                self.bursts_formed += 1
                scheduler.schedule_at(
                    delivery, self._deliver_burst, link, src, dst, burst
                )
            else:
                scheduler.schedule_at(delivery, self._deliver, src, dst, message)

    def _deliver(self, src: str, dst: str, message: Any) -> None:
        node = self._nodes.get(dst)
        if node is None:  # pragma: no cover - nodes are never unregistered
            return
        node.deliver(src, message)

    def _deliver_burst(
        self, link: _Link, src: str, dst: str, burst: _Burst
    ) -> None:
        if link.burst is burst:
            link.burst = None
        node = self._nodes.get(dst)
        if node is None:  # pragma: no cover - nodes are never unregistered
            return
        for message in burst.messages:
            node.deliver(src, message)
