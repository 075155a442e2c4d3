"""Asyncio client runtime: real connections behind the unchanged facade.

The protocol clients (:class:`~repro.ustor.client.UstorClient`) and the
session layer above them are event-driven and never block, so moving
them onto sockets needs no changes there — only a transport whose
``send`` writes frames, and a scheduler whose ``now`` is a wall clock.
:class:`TcpWorld` supplies both to the one wiring loop
(:func:`repro.workloads.runner.wire_deployment`) whenever
``open_system`` opens a ``SystemConfig(transport="tcp", ...)``, so what
comes back is the same :class:`~repro.workloads.runner.StorageSystem` that
``Session``/``OpHandle``, the incremental auditors, the workload driver
and the consistency checkers already drive — :class:`NetSystem` adds
only what sockets add (the runtime, the connections, a real ``close``).

Connections
-----------

Each :class:`ClientConnection` is a :class:`~repro.net.framing.FrameLink`,
as each of the server's accepted sockets is: it dials with
``loop.create_connection``, says HELLO, takes WELCOME as its first frame
and, once a connection is lost, dials again from ``connection_lost``
after its backoff's next delay.  The model assumes reliable FIFO
channels; TCP provides that only while one connection lives, so each
connection keeps an ``unacked`` list of every frame sent since its last
REPLY and retransmits it after each WELCOME (the server deduplicates —
see :mod:`repro.net.server`).  A REPLY empties the list *before* it is
delivered, so the COMMIT (and any next SUBMIT) the delivery triggers
starts the next unacked window.

Waiting
-------

``run_until(predicate, timeout)`` pumps the event loop until the
predicate holds or ``timeout`` wall-clock seconds pass.  The loop runs
uninterrupted meanwhile: each connection re-checks the predicate in
place after every frame it delivered (``NetRuntime.wake``), a 50 ms
fallback tick re-checks it for whatever changes state without a frame
(timers, connects) and watches the deadline, and only a verdict stops
the loop.  Session code maps a ``False`` return to
:class:`~repro.api.errors.OperationTimeout` — the paper's timed model
(operations complete or time out in bounded wall-clock time) lands on
exactly the same exception the simulated deadline used.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import (
    ConfigurationError,
    EncodingError,
    ProtocolError,
    SimulationError,
)
from repro.net.framing import MAX_FRAME_BYTES, FrameLink
from repro.net.realtime import RealtimeScheduler
from repro.obs.registry import SIZE_BUCKETS, get_registry
from repro.net.wire import (
    decode_payload,
    hello_payload,
    message_to_payload,
    payload_to_message,
)
from repro.sim.network import FixedLatency
from repro.sim.trace import SimTrace
from repro.ustor.client import UstorClient
from repro.ustor.messages import ReplyMessage
from repro.workloads import runner

__all__ = [
    "NetRuntime",
    "ClientConnection",
    "ClientTransport",
    "NetSystem",
    "TcpWorld",
    "ReconnectBackoff",
    "parse_endpoint",
]


class ReconnectBackoff:
    """Exponential reconnect backoff with deterministic full-range jitter.

    Consecutive failed attempts wait ``base * multiplier**attempt``
    capped at ``cap``, each scaled by a jitter factor drawn uniformly
    from ``[0.5, 1.0)`` — enough spread that a fleet of clients whose
    server just died does not retry in lockstep (the reconnect
    thundering herd), while keeping a floor of half the nominal delay so
    backoff still backs off.  The jitter stream is ``random.Random(seed)``,
    so a seeded deployment replays the exact same delays.

    :meth:`reset` (called after a successful handshake) starts the
    schedule over, so one long outage does not penalize the next blip.
    """

    def __init__(
        self,
        base: float = 0.05,
        *,
        multiplier: float = 2.0,
        cap: float = 2.0,
        seed: int = 0,
    ) -> None:
        if base <= 0:
            raise ConfigurationError("backoff base must be positive")
        if multiplier < 1.0:
            raise ConfigurationError("backoff multiplier must be >= 1")
        if cap < base:
            raise ConfigurationError("backoff cap must be >= base")
        self._base = base
        self._multiplier = multiplier
        self._cap = cap
        self._rng = random.Random(seed)
        self._attempt = 0

    def next_delay(self) -> float:
        """The delay to sleep before the next reconnect attempt."""
        ceiling = self._base * self._multiplier**self._attempt
        if ceiling < self._cap:
            # Past the cap every delay is the cap: the exponent stops
            # growing, so a long outage cannot overflow the power.
            self._attempt += 1
        else:
            ceiling = self._cap
        return ceiling * (0.5 + 0.5 * self._rng.random())

    def reset(self) -> None:
        """A connection succeeded; start the schedule over."""
        self._attempt = 0


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` with loud failure: the one
    parser of an address to connect to (``SystemConfig`` checks every
    endpoint with it before anything connects; ``repro stats`` too)."""
    host, sep, port = (
        endpoint.rpartition(":") if isinstance(endpoint, str) else ("", "", "")
    )
    if not (sep and host and port.isdigit() and 1 <= int(port) <= 65535):
        raise ConfigurationError(
            f"endpoints are 'host:port' strings with a port in 1-65535, "
            f"got {endpoint!r}"
        )
    return host, int(port)


#: Longest the pump goes without re-checking its predicate: frames wake
#: it at once, this covers what arrives no other way (timers, connects).
_FALLBACK_TICK = 0.05


class NetRuntime:
    """Owns the event loop and the pump that stands in for ``run_until``."""

    def __init__(self, *, seed: int = 0) -> None:
        self.loop = asyncio.new_event_loop()
        self.scheduler = RealtimeScheduler(self.loop, seed=seed)
        self.scheduler.attach_runtime(self)
        #: The wait in progress — its predicate (``None`` whenever no
        #: verdict is owed, which makes late wake-ups no-ops), its deadline
        #: on the scheduler clock, the armed fallback tick — and what ended
        #: it: ``True``/``False``, or the exception the predicate raised.
        self._predicate: Callable[[], bool] | None = None
        self._deadline: float | None = None
        self._ticker: asyncio.Handle | None = None
        self._outcome: bool | Exception = False
        self._closed = False

    @property
    def waiting(self) -> bool:
        """Is a :meth:`pump_until` owed a verdict?"""
        return self._predicate is not None

    def wake(self) -> None:
        """Re-check a pending :meth:`pump_until` in place (called on frame
        receipt and handshake); a verdict stops the loop."""
        predicate = self._predicate
        if predicate is None:
            return
        try:
            satisfied = predicate()
        except Exception as exc:
            # The caller of pump_until owns this, not whichever connection
            # callback happened to do the re-check.
            self._finish(exc)
            return
        if satisfied:
            self._finish(True)

    def _finish(self, outcome: bool | Exception) -> None:
        self._outcome = outcome
        self._predicate = None
        self.loop.stop()

    def _tick(self) -> None:
        """The fallback poll: whatever changes state without a frame
        arriving (timers, connects), and the deadline."""
        self.wake()
        if self._predicate is None:
            return
        delay = _FALLBACK_TICK
        if self._deadline is not None:
            remaining = self._deadline - self.scheduler.now
            if remaining <= 0:
                self._finish(False)
                return
            delay = min(delay, remaining)
        self._ticker = self.loop.call_later(delay, self._tick)

    def pump_until(
        self, predicate: Callable[[], bool], timeout: float | None = None
    ) -> bool:
        """Drive the loop until ``predicate()`` or ``timeout`` seconds.

        The loop runs uninterrupted: nothing is allocated per wake-up and
        only a verdict — predicate satisfied, predicate raised, deadline
        passed — stops it.
        """
        if self.loop.is_running():
            raise SimulationError(
                "re-entrant wait: run_until called from inside the event loop"
            )
        self._predicate = predicate
        self._deadline = None if timeout is None else self.scheduler.now + timeout
        self._ticker = self.loop.call_soon(self._tick)
        try:
            self.loop.run_forever()
        finally:
            self._predicate = None
            self._ticker.cancel()
        outcome, self._outcome = self._outcome, False
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def run_coroutine(self, coro):
        """Run one coroutine to completion on the runtime's loop."""
        return self.loop.run_until_complete(coro)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.loop.close()


class ClientConnection(FrameLink):
    """One client's TCP link to one server, with reconnect + retransmit:
    the :class:`~repro.net.framing.FrameLink` of every connection it dials.
    """

    def __init__(
        self,
        runtime: NetRuntime,
        client_id: int,
        num_clients: int,
        endpoint: str,
        server_name: str,
        *,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        reconnect_delay: float = 0.05,
        reconnect_seed: int | None = None,
        sim_trace: SimTrace | None = None,
        trace_writer=None,
        trace_s2c: bool = True,
    ) -> None:
        super().__init__(max_bytes=max_frame_bytes)
        self._runtime = runtime
        self.client_id = client_id
        self._n = num_clients
        self.host, self.port = parse_endpoint(endpoint)
        self.server_name = server_name
        # Per-client jitter stream: default seed keys off the client id
        # so a fleet sharing one config still de-synchronizes.
        self._backoff = ReconnectBackoff(
            reconnect_delay,
            seed=client_id if reconnect_seed is None else reconnect_seed,
        )
        self._sim_trace = sim_trace
        self._trace_writer = trace_writer
        #: With a replica group the raw per-replica REPLY stream is not
        #: the client's logical input (the quorum winner is), so inbound
        #: recording moves to the resolution hook and this stays False.
        self._trace_s2c = trace_s2c
        self._node: UstorClient | None = None
        #: The dial in flight, and the timer of the next one.
        self._dialing: asyncio.Task | None = None
        self._redial: asyncio.TimerHandle | None = None
        self._closed = False
        self.connected = False
        #: A fatal handshake mismatch (wrong server / population); set
        #: once, stops reconnecting for good.
        self.error: str | None = None
        #: Frames sent since the last REPLY received, for retransmission.
        self.unacked: list[bytes] = []
        self.reconnects = 0
        self.frames_sent = 0
        self.frames_received = 0
        # Registry handles captured once, for what no attribute keeps:
        # retransmitted frames and the frame-size distribution (no-op
        # instruments when metrics are off).
        registry = get_registry()
        self._obs_retransmissions = registry.counter("net.retransmissions")
        self._obs_frame_bytes = registry.histogram(
            "net.frame_bytes", SIZE_BUCKETS
        )

    def attach(self, node: UstorClient) -> None:
        self._node = node

    def start(self) -> None:
        """Dial the server; a failed dial, like a lost connection, dials
        again after the backoff's next delay (until :meth:`aclose`)."""
        self._dialing = self._runtime.loop.create_task(self._dial())

    async def _dial(self) -> None:
        try:
            await self._runtime.loop.create_connection(
                lambda: self, self.host, self.port
            )
        except OSError:
            self.connection_lost(None)

    # -- outbound ------------------------------------------------------ #

    def send_message(self, message) -> None:
        payload = message_to_payload(message)
        self.unacked.append(payload)
        if self._trace_writer is not None:
            self._trace_writer.frame("c2s", self.client_id, payload, retx=False)
        if self._sim_trace is not None:
            self._record(self._node.name, self.server_name, message, payload)
        # Until WELCOME it waits in unacked for the handshake's flush.
        if self.connected and self.send(payload):
            self.frames_sent += 1
            self._obs_frame_bytes.observe(len(payload))

    def _record(self, src: str, dst: str, message, payload: bytes) -> None:
        now = self._runtime.scheduler.now
        kind = getattr(message, "kind", type(message).__name__)
        self._sim_trace.record_message(now, now, src, dst, kind, len(payload))

    # -- the link ------------------------------------------------------ #

    def connection_made(self, transport) -> None:
        super().connection_made(transport)
        self.send(hello_payload(self.client_id, self._n))

    def frame_received(self, payload: bytes) -> None:
        if not self.connected:
            self._welcome(payload)
            return
        self.frames_received += 1
        if self._trace_writer is not None and self._trace_s2c:
            self._trace_writer.frame("s2c", self.client_id, payload, retx=False)
        message = payload_to_message(payload)
        if self._sim_trace is not None:
            self._record(self.server_name, self._node.name, message, payload)
        if isinstance(message, ReplyMessage):
            # Everything up to here is answered; the COMMIT/next SUBMIT the
            # delivery below triggers opens the next unacked window.
            self.unacked.clear()
        if self._node is not None:
            self._node.deliver(self.server_name, message)
        self._runtime.wake()

    def _welcome(self, payload: bytes) -> None:
        """The connection's first frame: WELCOME from the expected server,
        then everything unacknowledged goes out again."""
        record = decode_payload(payload, max_bytes=self._max_bytes)
        if record != ("WELCOME", self.server_name, self._n):
            # A mis-wired deployment, not a transient fault: reconnecting
            # will not fix it, so stop for good.
            self.error = (
                f"endpoint {self.host}:{self.port} answered as "
                f"{record[1:]!r}; expected server "
                f"{self.server_name!r} with {self._n} client(s)"
            )
            self._closed = True
            raise ProtocolError(self.error)
        self.connected = True
        self._backoff.reset()
        self._runtime.wake()
        for payload in self.unacked:
            # Retransmissions are flagged so the replayer knows the
            # logical message was already recorded once.
            if self._trace_writer is not None:
                self._trace_writer.frame("c2s", self.client_id, payload, retx=True)
            self.send(payload)
        if self.unacked:
            self.reconnects += 1
            self._obs_retransmissions.inc(len(self.unacked))

    def frame_refused(self, error) -> None:
        # Undecodable bytes from the (untrusted) server: note it; the link
        # drops the connection and deadlines do their job.
        if isinstance(error, EncodingError) and self._sim_trace is not None:
            now = self._runtime.scheduler.now
            self._sim_trace.note(now, self._node.name, "net-malformed-frame")

    def connection_lost(self, exc: Exception | None) -> None:
        self.connected = False
        self.transport = None
        if not self._closed:
            self._redial = self._runtime.loop.call_later(
                self._backoff.next_delay(), self.start
            )

    # -- teardown ------------------------------------------------------ #

    async def aclose(self) -> None:
        self._closed = True
        if self._redial is not None:
            self._redial.cancel()
        if self._dialing is not None:
            self._dialing.cancel()
            await asyncio.wait([self._dialing])
        if self.transport is not None:
            self.transport.close()
            await asyncio.sleep(0)  # connection_lost releases the socket


class ClientTransport:
    """The :class:`~repro.net.transport.Transport` over per-client sockets.

    Routes ``send(src, dst, ...)`` to the connection registered for the
    ``(client, server)`` pair — one client may hold several connections
    on a sharded deployment.
    """

    def __init__(self, runtime: NetRuntime, trace: SimTrace | None = None) -> None:
        self._runtime = runtime
        self._trace = trace
        self._routes: dict[tuple[str, str], ClientConnection] = {}

    @property
    def trace(self) -> SimTrace | None:
        return self._trace

    def register(self, node) -> None:
        node.bind(self._runtime.scheduler, self)

    def add_route(self, client_name: str, connection: ClientConnection) -> None:
        self._routes[(client_name, connection.server_name)] = connection

    def send(self, src: str, dst: str, message) -> None:
        route = self._routes.get((src, dst))
        if route is None:
            raise ConfigurationError(
                f"no connection from {src!r} to {dst!r}"
            )
        route.send_message(message)


@dataclass(kw_only=True)
class NetSystem(runner.StorageSystem):
    """A deployment over real sockets: the one system surface plus what
    sockets add.  ``server`` is ``None`` — the servers are separate
    processes, or the loopback ``hosts``."""

    runtime: NetRuntime
    connections: list[ClientConnection]
    #: The world's clock — all wall-clock seconds.
    quiescence_poll: float = 0.05
    quiescence_timeout: float = 30.0
    audit_every: float = 1.0
    #: Loopback hosts owned by (and closed with) this system.
    hosts: list = field(default_factory=list)
    trace_writer: object | None = None
    #: Whether :meth:`close` also closes the runtime's event loop: False
    #: when the runtime was injected (loopback tests share one between
    #: host and clients and own its lifetime themselves).
    owns_runtime: bool = True
    #: Client-side ``/metrics`` endpoint, once :meth:`start_metrics` ran.
    metrics_server: object | None = None

    def wait_connected(self, timeout: float = 5.0) -> None:
        """Block until every connection finished its handshake."""
        ok = self.run_until(
            lambda: any(c.error for c in self.connections)
            or all(c.connected for c in self.connections),
            timeout=timeout,
        )
        errors = sorted({c.error for c in self.connections if c.error})
        if errors:
            raise ConfigurationError("; ".join(errors))
        if not ok:
            missing = [
                f"{c.host}:{c.port}" for c in self.connections if not c.connected
            ]
            raise ConfigurationError(
                f"could not connect to {sorted(set(missing))} "
                f"within {timeout:g}s"
            )

    def start_metrics(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        on_scrape: Callable[[], None] | None = None,
    ):
        """Expose the current registry on an HTTP ``/metrics`` endpoint.

        Runs on this system's event loop; returns the started
        :class:`~repro.obs.exposition.MetricsHTTPServer` (its ``port``
        resolves the ephemeral bind).  Stopped again by :meth:`close`.
        """
        from repro.obs.exposition import MetricsHTTPServer

        server = MetricsHTTPServer(
            get_registry(), host=host, port=port, on_scrape=on_scrape
        )
        self.runtime.run_coroutine(server.start())
        self.metrics_server = server
        return server

    def close(self) -> None:
        """Tear down connections, loopback hosts, trace and loop."""

        async def shutdown() -> None:
            for connection in self.connections:
                await connection.aclose()
            for host in self.hosts:
                await host.stop()
            if self.metrics_server is not None:
                await self.metrics_server.stop()

        if not self.runtime.loop.is_closed():
            self.runtime.run_coroutine(shutdown())
        if self.trace_writer is not None:
            self.trace_writer.close()
        if self.owns_runtime:
            self.runtime.close()


class TcpWorld(runner.World):
    """Real sockets to the ``config.endpoints`` a
    :class:`~repro.api.config.SystemConfig` names: a wall-clock
    scheduler, one :class:`ClientConnection` per (client, replica
    endpoint), no co-located server, and an offline channel that hands
    mail between the co-located clients in-process (no latency).

    Two test seams are not config: an injected ``runtime`` (loopback
    tests share one with a :class:`~repro.net.server.NetServerHost`; the
    system then leaves closing it to them) and ``connect_timeout`` (how
    long :meth:`system` waits for every handshake; ``None``: not at all).

    The wire-trace hooks are part of this world.  A trace records each
    client's *logical* streams: outbound frames once per broadcast (on
    replica 0's connection) and inbound ones there too — or, with a
    replica group, at quorum resolution: the winner the protocol engine
    consumed, not any one replica's raw arrivals (a round can resolve
    before ``r0``'s reply lands, and the raw stream would replay out of
    order).  The replayer rebuilds a group client whose rounds resolve on
    that one recorded winner."""

    def __init__(
        self,
        config,
        *,
        runtime: NetRuntime | None = None,
        connect_timeout: float | None = 5.0,
    ) -> None:
        self.owns_runtime = runtime is None
        self.runtime = runtime or NetRuntime(seed=config.seed)
        trace = SimTrace()
        transport = ClientTransport(self.runtime, trace=trace)
        super().__init__(self.runtime.scheduler, transport, trace, FixedLatency(0.0))
        self.connections: list[ClientConnection] = []
        self.trace_writer = None
        self._config = config
        self._connect_timeout = connect_timeout

    def start(self, protocol, recorder, *, num_clients, replica_names):
        """Open the wire trace, if the config asks for one."""
        self._replica_names = replica_names
        config = self._config
        if config.trace_path is not None:
            from repro.net.trace import WireTraceWriter

            self.trace_writer = WireTraceWriter(
                config.trace_path,
                clock=lambda: self.scheduler.now,
                num_clients=num_clients,
                scheme=config.scheme,
                # The deployment's name: the replayer names the group
                # from it and the endpoints, and plays replica 0's part.
                server_name=config.server_name,
                endpoints=config.endpoints,
                commit_piggyback=config.commit_piggyback,
            )
        return []

    def connect(self, client) -> None:
        """One connection per replica endpoint, plus the trace hooks."""
        i, writer = client.client_id, self.trace_writer
        endpoints = self._config.endpoints
        replicated = len(self._replica_names) > 1
        if writer is not None and replicated:
            # The logical inbound stream: the quorum winner at resolution
            # time, recorded in place of any raw per-replica arrival.
            client.resolved_reply_hook = lambda message: writer.frame(
                "s2c", i, message_to_payload(message), retx=False
            )
        for k, (endpoint, name) in enumerate(zip(endpoints, self._replica_names)):
            connection = ClientConnection(
                self.runtime,
                i,
                self._config.num_clients,
                endpoint,
                name,
                sim_trace=self.trace,
                # Distinct deterministic jitter stream per (client, replica)
                # link, reproducible from the system seed.
                reconnect_seed=(self._config.seed << 16) ^ (i * len(endpoints) + k),
                trace_writer=writer if k == 0 else None,
                trace_s2c=not replicated,
            )
            connection.attach(client)
            self.transport.add_route(client.name, connection)
            connection.start()
            self.connections.append(connection)

    def system(self, **wired) -> NetSystem:
        """The :class:`NetSystem` over this world's runtime and links,
        once every handshake finished (``connect_timeout=None``: at once)."""
        system = NetSystem(
            runtime=self.runtime,
            connections=self.connections,
            trace_writer=self.trace_writer,
            owns_runtime=self.owns_runtime,
            **wired,
        )
        if self._connect_timeout is not None:
            try:
                system.wait_connected(timeout=self._connect_timeout)
            except ConfigurationError:
                system.close()
                raise
        return system
