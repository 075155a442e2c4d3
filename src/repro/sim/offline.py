"""The paper's offline client-to-client communication method.

Section 2: *"there is a reliable offline communication method between
clients, which eventually delivers messages, even if the clients are not
simultaneously connected"*.  FAUST (Section 6) sends PROBE, VERSION and
FAILURE messages over it.

We model a store-and-forward mailbox service (think: encrypted e-mail).
Each client is *online* or *offline*:

* a send is accepted at any time and assigned a transport delay;
* if the recipient is online when the message "arrives", it is delivered;
* otherwise it waits in the recipient's mailbox and is flushed the moment
  the recipient comes back online.

Delivery per (sender, recipient) pair preserves send order, and every
message is eventually delivered to a recipient that is online infinitely
often — exactly the eventual-delivery guarantee the paper needs for
detection completeness (Definition 5, condition 7).
"""

from __future__ import annotations

from collections import deque
from functools import cache
from typing import Any

from repro.common.errors import ChannelError
from repro.sim.network import FixedLatency, LatencyModel, message_kind, message_size
from repro.sim.process import Node
from repro.sim.scheduler import Scheduler
from repro.sim.trace import SimTrace

_FIFO_EPSILON = 1e-9


@cache
def _trace_label(prefix: str, kind: str) -> str:
    """``prefix + kind``, built once per message kind: every trace record
    of that kind shares the one string."""
    return prefix + kind


class OfflineChannel:
    """Mailbox-based eventual delivery between clients."""

    def __init__(
        self,
        scheduler: Scheduler,
        latency: LatencyModel | None = None,
        trace: SimTrace | None = None,
    ) -> None:
        self._scheduler = scheduler
        self._latency = latency or FixedLatency(5.0)
        self._trace = trace
        self._nodes: dict[str, Node] = {}
        self._online: dict[str, bool] = {}
        self._mailbox: dict[str, deque[tuple[str, Any]]] = {}
        self._last_arrival: dict[tuple[str, str], float] = {}

    # ------------------------------------------------------------------ #
    # Membership and connectivity
    # ------------------------------------------------------------------ #

    def register(self, node: Node, online: bool = True) -> None:
        if node.name in self._nodes:
            raise ChannelError(f"node {node.name!r} already on the offline channel")
        self._nodes[node.name] = node
        self._online[node.name] = online
        self._mailbox[node.name] = deque()

    def is_online(self, name: str) -> bool:
        self._require(name)
        return self._online[name]

    def set_online(self, name: str, online: bool) -> None:
        """Connect or disconnect a client; reconnection flushes its mailbox."""
        self._require(name)
        was_online = self._online[name]
        self._online[name] = online
        if online and not was_online:
            self._flush(name)

    def _require(self, name: str) -> None:
        if name not in self._nodes:
            raise ChannelError(f"unknown offline-channel member {name!r}")

    # ------------------------------------------------------------------ #
    # Transmission
    # ------------------------------------------------------------------ #

    def send(self, src: str, dst: str, message: Any) -> None:
        """Accept a message for eventual delivery.

        The sender may be anyone registered, online or not: posting to
        the mailbox service models e.g. queuing e-mail locally while
        disconnected.
        """
        self._require(src)
        self._require(dst)
        now = self._scheduler.now
        key = (src, dst)
        arrival = now + self._latency.sample(self._scheduler.rng)
        arrival = max(arrival, self._last_arrival.get(key, -1.0) + _FIFO_EPSILON)
        self._last_arrival[key] = arrival
        if self._trace is not None:
            self._trace.record_message(
                now,
                None,  # delivered_at: actual delivery recorded at hand-off
                src,
                dst,
                _trace_label("offline:", message_kind(message)),
                message_size(message),
            )
        self._scheduler.schedule_at(arrival, self._arrive, src, dst, message)

    def _arrive(self, src: str, dst: str, message: Any) -> None:
        """The message reached the mailbox service near ``dst``."""
        self._mailbox[dst].append((src, message))
        if self._online[dst]:
            self._flush(dst)

    def _flush(self, dst: str) -> None:
        box = self._mailbox[dst]
        node = self._nodes[dst]
        while box:
            src, message = box.popleft()
            if self._trace is not None:
                now = self._scheduler.now
                self._trace.record_message(
                    now, now, "mailbox", dst,
                    _trace_label("offline-delivery:", message_kind(message)), 0,
                )
            node.deliver(src, message)

    # ------------------------------------------------------------------ #
    # Introspection (used by tests)
    # ------------------------------------------------------------------ #

    def mailbox_depth(self, name: str) -> int:
        self._require(name)
        return len(self._mailbox[name])
