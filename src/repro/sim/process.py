"""Process abstraction: anything that lives on the simulated network.

A :class:`Node` is a named message handler bound to a scheduler and one or
more channels.  Clients, servers (correct and Byzantine) and test stubs all
derive from it.  Crashing is modelled here because the paper allows *any
number of clients* to crash (Section 2): a crashed node silently stops
receiving and sending, and its pending timers become inert.

Crash-*recovery* is modelled here too (the storage-engine work extends
the fault model beyond the paper's crash-stop): a node whose class sets
``holds_mail_while_down`` keeps messages delivered during its downtime
and replays them, in arrival order, when :meth:`Node.restart` brings it
back — the reliable FIFO channels of the model outliving one endpoint's
restart, exactly as clients that retry against a recovering server would
observe.  What *state* the node comes back with is the subclass's
business (:meth:`Node.on_restart`); for the USTOR server that is its
:class:`~repro.store.engine.StorageEngine`'s recovery.

A :class:`ClientNode` is what every client protocol shares: the one
place its operations wait (one at a time, in invocation order), the
checks an invocation must pass, and the other way a client stops:
outputting ``fail_i`` (Definition 5), which halts it for good.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

from repro.common.errors import ProtocolError, SimulationError
from repro.common.types import ClientId, OpKind, client_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.network import Network
    from repro.sim.scheduler import Scheduler


class Node:
    """Base class for every simulated party."""

    #: When True, messages delivered while this node is down are held and
    #: replayed by :meth:`restart`; when False (crash-stop, the default)
    #: they are dropped.
    holds_mail_while_down = False

    def __init__(self, name: str) -> None:
        self.name = name
        self._scheduler: "Scheduler | None" = None
        self._network: "Network | None" = None
        self._crashed = False
        self._held_mail: list[tuple[str, Any]] = []

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def bind(self, scheduler: "Scheduler", network: "Network") -> None:
        """Attach this node to a run; called by :meth:`Network.register`."""
        self._scheduler = scheduler
        self._network = network

    @property
    def scheduler(self) -> "Scheduler":
        if self._scheduler is None:
            raise SimulationError(f"node {self.name!r} is not bound to a scheduler")
        return self._scheduler

    @property
    def network(self) -> "Network":
        if self._network is None:
            raise SimulationError(f"node {self.name!r} is not bound to a network")
        return self._network

    @property
    def now(self) -> float:
        return self.scheduler.now

    # ------------------------------------------------------------------ #
    # Failure model
    # ------------------------------------------------------------------ #

    @property
    def crashed(self) -> bool:
        return self._crashed

    def crash(self) -> None:
        """Crash-stop this node: no further sends, receives, or timer work."""
        self._crashed = True

    def restart(self) -> None:
        """Return from a crash (crash-*recovery*, not the paper's crash-stop).

        Runs :meth:`on_restart` first — the subclass's chance to restore
        durable state — then replays any mail held during the downtime, in
        arrival order.  A no-op on a node that is not down.
        """
        if not self._crashed:
            return
        self._crashed = False
        self.on_restart()
        held, self._held_mail = self._held_mail, []
        for src, message in held:
            if self._crashed:  # a replayed message may crash us again
                self._held_mail.append((src, message))
                continue
            self.on_message(src, message)

    def on_restart(self) -> None:
        """Hook: restore state from durable storage before mail replays."""

    def pause(self) -> None:
        """Stop background activity until :meth:`resume` (a node that has
        none — everything but the fail-aware client — has nothing to stop)."""

    def resume(self) -> None:
        """Wake up after :meth:`pause`."""

    # ------------------------------------------------------------------ #
    # Messaging
    # ------------------------------------------------------------------ #

    def send(self, dst: str, message: Any) -> None:
        """Send over the network; silently dropped if this node has crashed.

        (A crashed process takes no further steps, so the drop is the
        simulation guarding itself against buggy callers, not a channel
        fault: the paper's channels are reliable.)
        """
        if self._crashed:
            return
        self.network.send(self.name, dst, message)

    def send_multi(self, dsts: tuple, message: Any) -> None:
        """Send one message to several destinations (replica broadcast).

        Uses the transport's ``send_multi`` when it has one (the simulated
        network shares a single latency sample across the group); falls
        back to per-destination sends on transports without the hook.
        """
        if self._crashed:
            return
        fanout = getattr(self.network, "send_multi", None)
        if fanout is not None:
            fanout(self.name, tuple(dsts), message)
            return
        for dst in dsts:
            self.network.send(self.name, dst, message)

    def deliver(self, src: str, message: Any) -> None:
        """Entry point used by channels; filters deliveries after a crash."""
        if self._crashed:
            if self.holds_mail_while_down:
                self._held_mail.append((src, message))
            return
        self.on_message(src, message)

    def on_message(self, src: str, message: Any) -> None:
        """Handle one delivered message.  Subclasses override."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "crashed" if self._crashed else "up"
        return f"<{type(self).__name__} {self.name} ({state})>"


class ClientNode(Node):
    """Client ``C_i`` of ``n``: the base of every client protocol (USTOR,
    FAUST, the lock-step baseline), which says only when it is
    :attr:`busy` and how ``_invoke`` starts one operation.

    Held here once: the invocation checks; one FIFO queue of ``(kind,
    register, value, callback)``, where an operation invoked while
    another is in flight waits, so each client's history stays
    well-formed; the pump, which starts the queue's head whenever the
    client is idle and not halted, and again after each completion's
    callback; and one failure state, output through :meth:`_fail` at
    most once.
    """

    def __init__(self, client_id: ClientId, num_clients: int) -> None:
        super().__init__(client_name(client_id))
        self._id = client_id
        self._n = num_clients
        self._queue: deque[tuple[OpKind, int, Any, Callable | None]] = deque()
        self._failed = False
        self._fail_reason: str | None = None
        self._fail_listeners: list[Callable[[str], None]] = []

    @property
    def client_id(self) -> ClientId:
        return self._id

    # ------------------------------------------------------------------ #
    # Operations: one at a time, the rest queued
    # ------------------------------------------------------------------ #

    @property
    def busy(self) -> bool:
        """Is an operation in flight?  Each protocol answers."""
        raise NotImplementedError

    @property
    def idle(self) -> bool:
        """No operation in flight or queued."""
        return not self.busy and not self._queue

    def check_invocation(self, kind: OpKind, register: int, value: Any) -> None:
        """Raise :class:`ProtocolError` for an operation this client cannot
        take: a non-bytes value, a register outside ``[0, n)``, or a
        client that has halted."""
        if kind is OpKind.WRITE and not isinstance(value, bytes):
            raise ProtocolError("register values are bytes")
        if not 0 <= register < self._n:
            raise ProtocolError(f"register {register} out of range")
        if self._failed:
            raise ProtocolError(f"{self.name} has failed and halted")
        if self._crashed:
            raise ProtocolError(f"{self.name} has crashed")

    def _enqueue(self, kind: OpKind, register: int, value: Any, callback) -> None:
        """Queue one checked operation; ``callback(outcome)`` runs when it
        completes."""
        self.check_invocation(kind, register, value)
        self._queue.append((kind, register, value, callback))
        self._pump()

    def _pump(self) -> None:
        """Start the oldest queued operation if this client can."""
        if self._queue and not self.busy and not self.halted:
            kind, register, value, callback = self._queue.popleft()
            self._invoke(kind, register, value, partial(self._completed, callback))

    def _completed(self, callback, outcome) -> None:
        """Return one operation to its invoker, then start the next one (a
        client that failed meanwhile returns nothing more)."""
        if callback is not None and not self._failed:
            callback(outcome)
        self._pump()

    # ------------------------------------------------------------------ #
    # Failure: fail_i, output once
    # ------------------------------------------------------------------ #

    @property
    def failed(self) -> bool:
        """Has ``fail_i`` been output (client halted)?"""
        return self._failed

    @property
    def fail_reason(self) -> str | None:
        """The reason ``fail_i`` carried; ``None`` while it has not."""
        return self._fail_reason

    @property
    def halted(self) -> bool:
        """Has this client stopped taking steps — crashed, or output
        ``fail``?"""
        return self._crashed or self._failed

    @property
    def halt_reason(self) -> str | None:
        """Why :attr:`halted`: the ``fail`` reason, else ``"crashed"``;
        ``None`` while the client is up."""
        if self._fail_reason is not None:
            return self._fail_reason
        return "crashed" if self._crashed else None

    def add_failure_listener(self, listener: Callable[[str], None]) -> None:
        """Invoke ``listener(reason)`` when this client outputs ``fail_i``."""
        self._fail_listeners.append(listener)

    def _fail(self, reason: str) -> bool:
        """Output ``fail_i`` and halt; a client that has already failed
        stays as it is.  Always returns False, for checks that
        ``return self._fail(...)``."""
        if not self._failed:
            self._failed = True
            self._fail_reason = reason
            self._halt(reason)
            for listener in list(self._fail_listeners):
                listener(reason)
        return False

    def _halt(self, reason: str) -> None:
        """Hook: stop this client's own activity as it fails, before any
        listener hears of it (a client that has none stops nothing)."""
