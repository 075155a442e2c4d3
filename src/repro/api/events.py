"""Typed failure-awareness notifications and the subscription hub.

The paper's service interface (Definition 5) *outputs* ``stable_i(W)``
and ``fail_i`` actions; polling attributes off a client loses their
ordering and forces the application to know the protocol internals.  The
hub turns them into first-class events: every notification carries a
global sequence number (total emission order across all clients), the
virtual time it fired, and the client it fired at.

Like the paper's output actions, notifications are delivered, not
replayed: the hub keeps the count emitted so far and its ``fail_i``
outputs (at most one per client and shard), not the ``stable_i(W)``
stream.  A subscription delivers through a callback, which keeps
nothing, or — without one — accumulates on ``subscription.events`` from
the moment it subscribed; both respect optional kind and client filters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.common.types import ClientId


@dataclass(frozen=True)
class Notification:
    """Base class for fail-aware service outputs."""

    seq: int  # global emission order across the whole system
    time: float  # virtual time of the output action
    client: ClientId  # the client the action occurred at
    #: The shard whose server this output is about (0 when unsharded).
    shard: int = field(default=0, kw_only=True)


@dataclass(frozen=True)
class StabilityNotification(Notification):
    """``stable_i(W)`` — operations up to ``cut[j]`` are consistent with
    client ``j`` (Definition 5, conditions 6-7); ``cut`` is the stability
    vector of ``shard``."""

    cut: tuple[int, ...]


@dataclass(frozen=True)
class FailureNotification(Notification):
    """``fail_i`` — proof that ``shard``'s server misbehaved reached this
    client (other shards are independent trust domains)."""

    reason: str


class Subscription:
    """One listener's registration with a :class:`NotificationHub`."""

    def __init__(
        self,
        hub: "NotificationHub",
        callback: Callable[[Notification], None] | None,
        kinds: tuple[type, ...] | None,
        clients: frozenset[ClientId] | None,
    ) -> None:
        self._hub = hub
        self._kinds = kinds
        self._clients = clients
        self.active = True
        #: Without a callback: the notifications delivered to this
        #: subscription, in emission order.  A callback keeps nothing.
        self.events: list[Notification] = []
        self._callback = callback if callback is not None else self.events.append

    def _matches(self, event: Notification) -> bool:
        if self._kinds is not None and not isinstance(event, self._kinds):
            return False
        if self._clients is not None and event.client not in self._clients:
            return False
        return True

    def _deliver(self, event: Notification) -> None:
        if self.active and self._matches(event):
            self._callback(event)

    def unsubscribe(self) -> None:
        """Stop delivery permanently (already-accumulated events remain)."""
        self.active = False
        self._hub._drop(self)


class NotificationHub:
    """Fan-out point for a system's stability and failure notifications."""

    def __init__(self) -> None:
        self._subscriptions: list[Subscription] = []
        #: Notifications emitted so far: the next one's ``seq``.
        self.emitted = 0
        self._failures: list[FailureNotification] = []

    def subscribe(
        self,
        callback: Callable[[Notification], None] | None = None,
        *,
        kinds: type | Iterable[type] | None = None,
        clients: Iterable[ClientId] | None = None,
    ) -> Subscription:
        """Register a listener.

        ``kinds`` restricts delivery to the given notification classes
        (e.g. ``StabilityNotification``); ``clients`` to the given client
        ids.  Without a ``callback`` the subscription simply accumulates
        matching events on ``subscription.events``.
        """
        if kinds is not None and isinstance(kinds, type):
            kinds = (kinds,)
        subscription = Subscription(
            self,
            callback,
            tuple(kinds) if kinds is not None else None,
            frozenset(clients) if clients is not None else None,
        )
        self._subscriptions.append(subscription)
        return subscription

    def _drop(self, subscription: Subscription) -> None:
        if subscription in self._subscriptions:
            self._subscriptions.remove(subscription)

    def _emit(self, event: Notification) -> None:
        self.emitted += 1
        # Iterate over a copy: a callback may unsubscribe (or subscribe).
        for subscription in list(self._subscriptions):
            subscription._deliver(event)

    def watch(
        self,
        instance,
        client: ClientId,
        clock: Callable[[], float],
        shard: int = 0,
    ) -> None:
        """Wire one protocol client's ``stable_i`` / ``fail_i`` outputs to
        this hub, tagged with ``client`` and ``shard`` and timed by
        ``clock``.  A client that has already failed is reported now:
        watching a known-bad server must not go silent."""
        if hasattr(instance, "add_stable_listener"):
            instance.add_stable_listener(
                lambda cut: self.emit_stability(clock(), client, cut, shard=shard)
            )
        instance.add_failure_listener(
            lambda reason: self.emit_failure(clock(), client, reason, shard=shard)
        )
        if instance.failed:
            self.emit_failure(clock(), client, instance.fail_reason, shard=shard)

    def emit_stability(
        self, time: float, client: ClientId, cut: tuple[int, ...], *, shard: int = 0
    ) -> None:
        """Fan out a ``stable_i(W)`` output action."""
        self._emit(StabilityNotification(self.emitted, time, client, cut, shard=shard))

    def emit_failure(
        self, time: float, client: ClientId, reason: str, *, shard: int = 0
    ) -> None:
        """Record and fan out a ``fail_i`` output action."""
        event = FailureNotification(self.emitted, time, client, reason, shard=shard)
        self._failures.append(event)
        self._emit(event)

    def failure_events(self) -> list[FailureNotification]:
        """Every ``fail_i`` notification emitted so far, in order."""
        return list(self._failures)

    def first_failures(self) -> dict[ClientId, float]:
        """Who output ``fail_i``, and when first: client -> time, by client."""
        first: dict[ClientId, float] = {}
        for event in self._failures:
            first.setdefault(event.client, event.time)
        return dict(sorted(first.items()))
