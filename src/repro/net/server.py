"""Asyncio host wrapping a protocol server behind real TCP connections.

The protocol server (:class:`~repro.ustor.server.UstorServer` or one of
its Byzantine variants) is unchanged — it still receives ``on_message``
callbacks and answers with ``send``.  The host supplies everything the
simulator used to: it is the server's transport (``send`` routes REPLYs
onto the right client's socket), it brings a wall-clock scheduler, and
it runs the connection lifecycle.  Each accepted socket is a
:class:`~repro.net.framing.FrameLink`, the class the client's
connections are too: its first frame is the HELLO check, every later
one goes to the server, and a frame that does not decode or that the
server state refuses (a :class:`~repro.common.errors.ProtocolError`,
e.g. a version of the wrong population) costs that connection alone.

Exactly-once over at-least-once
-------------------------------

TCP gives reliable FIFO delivery *per connection*; the model's channels
are reliable *per client*.  Clients bridge the gap by retransmitting
everything sent since their last REPLY when they reconnect, which makes
delivery at-least-once — but a duplicate SUBMIT is protocol-fatal (the
duplicate pending entry would fail every other client's Algorithm 1
line 43 check).  The host therefore deduplicates by the SUBMIT's
timestamp, which the protocol already makes strictly increasing per
client:

* a SUBMIT whose timestamp matches the *reply journal* (the last REPLY
  sent per client) is answered by resending that exact REPLY;
* a SUBMIT at or below the highest timestamp already applied, with no
  journaled REPLY (the journal is volatile — a host restart loses it),
  is dropped: the operation times out at the client, which is precisely
  the fail-aware outcome the paper's timed model prescribes for a server
  that lost the ability to answer correctly;
* COMMITs are always delivered — ``apply_commit`` is idempotent.  A
  COMMIT carries its operation's timestamp ``t`` and no version (the
  server folds ``(V_i, M_i)`` from the REPLY it sent), and it is applied
  only while ``t`` is the timestamp of the client's last SUBMIT: a
  retransmitted COMMIT of an earlier operation changes nothing, and one
  delivered twice in a row stores the same version twice (the comparison
  on line 119 is strict, so it neither advances the commit index nor
  prunes twice).  CHECKPOINTs too: ``apply_checkpoint`` drops only what
  the committed version also covers, so a repeat drops nothing more.
"""

from __future__ import annotations

import asyncio
import os
from typing import Callable

from repro.common.errors import ConfigurationError, EncodingError
from repro.common.types import client_name
from repro.net.framing import MAX_FRAME_BYTES, FrameLink
from repro.net.realtime import RealtimeScheduler
from repro.obs.registry import enable_metrics, get_registry, set_registry
from repro.net.wire import (
    decode_payload,
    message_to_payload,
    payload_to_message,
    welcome_payload,
)
from repro.sim.trace import SimTrace
from repro.store.engine import make_server
from repro.ustor.messages import ReplyMessage, SubmitMessage
from repro.ustor.server import UstorServer


class NetServerHost:
    """One protocol server behind one listening TCP socket.

    Two modes of use:

    * **loopback** — ``await start()`` on an already-running (or pumped)
      event loop; client and server share the loop, which keeps the
      integration tests single-process and fast;
    * **standalone** — :func:`serve_forever` (the ``repro serve``
      subcommand) gives the host its own loop and process.

    ``server_factory`` receives ``(num_clients, server_name)`` exactly
    like ``SystemConfig.server_factory``, so the CLI's Byzantine behaviours plug
    straight in.  The host requires a non-group-commit server: it
    journals each REPLY as the synchronous answer to the SUBMIT being
    delivered, which group commit's deferred replies would break.
    """

    def __init__(
        self,
        num_clients: int,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        server_name: str = "S",
        storage: str = "memory",
        server_factory: Callable[[int, str], UstorServer] | None = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        trace: SimTrace | None = None,
        metrics_port: int | None = None,
        metrics_host: str = "127.0.0.1",
        counter: str | None = None,
    ) -> None:
        if num_clients < 1:
            raise ConfigurationError("need at least one client")
        if counter not in (None, "durable"):
            raise ConfigurationError(
                f"counter= must be None or 'durable', got {counter!r}"
            )
        for what, number in (("port", port), ("metrics port", metrics_port)):
            if number is not None and not 0 <= number <= 65535:
                raise ConfigurationError(
                    f"the {what} must be in 0-65535 (0 picks an ephemeral "
                    f"one), got {number}"
                )
        self._n = num_clients
        self.host = host
        self.port = port
        self.server_name = server_name
        self._max_frame = max_frame_bytes
        self.trace = trace
        #: Monotonic-counter mode (:mod:`repro.replica`): attach a trust
        #: anchor to this host's server so every REPLY carries a counter
        #: attestation.  With ``dir:`` storage the counter value is kept
        #: next to the WAL, so it survives a host restart the way a real
        #: sealed counter would.
        self._counter_mode = counter
        self._counter_state_path = (
            os.path.join(storage[len("dir:"):], "counter.state")
            if counter is not None and storage.startswith("dir:")
            else None
        )
        self._storage = storage
        self._factory = server_factory
        self.scheduler: RealtimeScheduler | None = None
        self.node: UstorServer | None = None
        self._listener: asyncio.Server | None = None
        #: Every accepted socket, handshaken or not (closed by ``stop``).
        self._links: set[_ClientLink] = set()
        #: Client name -> the transport of its one live connection.
        self._connections: dict[str, asyncio.Transport] = {}
        #: Per client: (timestamp of the last replied SUBMIT, its REPLY
        #: payload bytes) — volatile by design; see the module docstring.
        self._journal: dict[int, tuple[int, bytes]] = {}
        #: Highest SUBMIT timestamp delivered per client (dedup floor).
        self._seen: dict[int, int] = {}
        #: Client whose SUBMIT is being delivered right now (journaling).
        self._inflight: str | None = None
        self.submits_deduplicated = 0
        self.submits_dropped_stale = 0
        #: ``/metrics`` endpoint config; started with the host when a port
        #: (0 = ephemeral) was given.
        self._metrics_port = metrics_port
        self._metrics_host = metrics_host
        self.metrics_server = None
        self._obs_submits = get_registry().counter("server.submits_delivered")

    # ---------------------------------------------------------------- #
    # Lifecycle
    # ---------------------------------------------------------------- #

    async def start(self) -> None:
        loop = asyncio.get_event_loop()
        self.scheduler = RealtimeScheduler(loop)
        self.node = make_server(
            self._n,
            self.server_name,
            factory=self._factory,
            storage=self._storage,
            counter=self._counter_mode,
            counter_state_path=self._counter_state_path,
        )
        if getattr(self.node, "group_commit", False):
            raise ConfigurationError(
                "the TCP host needs synchronous replies; build the server "
                "with group_commit=False"
            )
        self.node.bind(self.scheduler, self)  # the host is its transport
        # Recovered durable state re-establishes the dedup floor: without
        # this, a SUBMIT applied (and WAL-logged) just before a crash
        # would be *re-applied* when the client retransmits it after the
        # restart — a duplicate pending entry, which is protocol-fatal
        # for every other client (Algorithm 1 line 43).
        state = getattr(self.node, "state", None)
        if state is not None:
            for client_id, entry in enumerate(state.mem):
                if entry.timestamp:
                    self._seen[client_id] = entry.timestamp
        self._listener = await loop.create_server(
            lambda: _ClientLink(self), self.host, self.port
        )
        self.port = self._listener.sockets[0].getsockname()[1]
        if self._metrics_port is not None:
            from repro.obs.exposition import MetricsHTTPServer

            self.metrics_server = MetricsHTTPServer(
                get_registry(),
                host=self._metrics_host,
                port=self._metrics_port,
                on_scrape=self._publish_counts,
            )
            await self.metrics_server.start()

    def _publish_counts(self) -> None:
        """Publish this host's counts — its server's tallies and its
        SUBMIT dedup counts — into the current registry (the ``on_scrape``
        of its ``/metrics``)."""
        from repro.obs.health import publish_counts, server_counts

        publish_counts(get_registry(), server_counts([self.node], [self]))

    async def stop(self) -> None:
        if self.metrics_server is not None:
            await self.metrics_server.stop()
            self.metrics_server = None
        if self._listener is not None:
            self._listener.close()
            for link in list(self._links):
                link.transport.close()
            await self._listener.wait_closed()
            self._listener = None
            # One loop turn so the closed transports release their sockets
            # (``connection_lost`` runs from ``call_soon``).
            await asyncio.sleep(0)
        engine = getattr(self.node, "engine", None)
        if engine is not None:
            engine.close()

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    # ---------------------------------------------------------------- #
    # Connections
    # ---------------------------------------------------------------- #

    def _accept_hello(self, link: "_ClientLink", payload: bytes) -> int:
        """Check a connection's first frame; returns the client id it
        speaks for once WELCOME is on its way."""
        record = decode_payload(payload, max_bytes=self._max_frame)
        if not (
            record[0] == "HELLO"
            and len(record) == 3
            and isinstance(record[1], int)
            and 0 <= record[1] < self._n
            and record[2] == self._n
        ):
            # Wrong population or malformed handshake: refuse.
            raise EncodingError(f"refused handshake: {record!r}")
        name = client_name(record[1])
        previous = self._connections.get(name)
        if previous is not None:
            previous.close()  # at most one live connection per client
        self._connections[name] = link.transport
        link.send(welcome_payload(self.server_name, self._n))
        return record[1]

    def _handle_client_payload(self, client_id: int, payload: bytes) -> None:
        message = payload_to_message(payload)
        name = client_name(client_id)
        if isinstance(message, SubmitMessage):
            if message.invocation.client != client_id:
                raise EncodingError(
                    f"connection of {name} submitted for client "
                    f"{message.invocation.client}"
                )
            self._deliver_submit(client_id, name, message)
        elif not isinstance(message, ReplyMessage):
            # A COMMIT or a CHECKPOINT; a REPLY from a client is
            # meaningless, and payload_to_message rejected anything else.
            assert self.node is not None
            self.node.deliver(name, message)

    def _deliver_submit(
        self, client_id: int, name: str, message: SubmitMessage
    ) -> None:
        assert self.node is not None
        t = message.timestamp
        journaled = self._journal.get(client_id)
        if journaled is not None and journaled[0] == t:
            # Retransmission of the last answered SUBMIT: resend its REPLY.
            self.submits_deduplicated += 1
            self._write_frame(name, journaled[1])
            return
        floor = self._seen.get(client_id, 0)
        if journaled is not None:
            floor = max(floor, journaled[0])
        if t <= floor:
            # Already applied but the REPLY is gone (journal lost across a
            # host restart): unanswerable — the client's deadline handles it.
            self.submits_dropped_stale += 1
            return
        self._seen[client_id] = t
        self._obs_submits.inc()
        self._inflight = name
        try:
            self.node.deliver(name, message)
        finally:
            self._inflight = None

    # ---------------------------------------------------------------- #
    # Outbound: the protocol server's transport (with ``trace``)
    # ---------------------------------------------------------------- #

    def send(self, src: str, dst: str, message) -> None:
        payload = message_to_payload(message)
        if isinstance(message, ReplyMessage) and self._inflight == dst:
            client_id = int(dst[1:]) - 1  # the inverse of client_name
            self._journal[client_id] = (self._seen[client_id], payload)
        self._write_frame(dst, payload)

    def _write_frame(self, dst: str, payload: bytes) -> None:
        """Route one frame to ``dst``'s live connection, if it has one
        (away, it will retransmit and be journal-answered)."""
        transport = self._connections.get(dst)
        if transport is not None:
            transport.get_protocol().send(payload)


class _ClientLink(FrameLink):
    """One accepted socket: its first frame is the HELLO check, every
    later one goes straight into the host."""

    def __init__(self, host: NetServerHost) -> None:
        super().__init__(max_bytes=host._max_frame)
        self._host = host
        #: ``None`` until the HELLO check passed.
        self.client_id: int | None = None

    def connection_made(self, transport) -> None:
        super().connection_made(transport)
        self._host._links.add(self)

    def frame_received(self, payload: bytes) -> None:
        if self.client_id is None:
            self.client_id = self._host._accept_hello(self, payload)
        else:
            self._host._handle_client_payload(self.client_id, payload)

    def connection_lost(self, exc: Exception | None) -> None:
        host = self._host
        host._links.discard(self)
        if self.client_id is not None:
            name = client_name(self.client_id)
            if host._connections.get(name) is self.transport:
                del host._connections[name]


def serve_forever(
    num_clients: int,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    server_name: str = "S",
    storage: str = "memory",
    server_factory: Callable[[int, str], UstorServer] | None = None,
    announce: Callable[[str], None] = print,
    metrics_port: int | None = None,
    counter: str | None = None,
) -> int:
    """Run one server process until interrupted (``repro serve``).

    Prints ``LISTENING <host> <port>`` once the socket is bound — the
    supervisor and the CI smoke test wait for that line.  With
    ``metrics_port`` (0 = ephemeral) the process enables a recording
    metrics registry, exposes it at ``http://<host>:<metrics_port>/metrics``
    and announces ``METRICS <host> <port>`` the same way.
    """
    loop = asyncio.new_event_loop()
    previous_registry = get_registry()
    try:
        asyncio.set_event_loop(loop)
        if metrics_port is not None:
            enable_metrics()
        server = NetServerHost(
            num_clients,
            host=host,
            port=port,
            server_name=server_name,
            storage=storage,
            server_factory=server_factory,
            metrics_port=metrics_port,
            counter=counter,
        )
        loop.run_until_complete(server.start())
        announce(f"LISTENING {server.host} {server.port}")
        if server.metrics_server is not None:
            announce(
                f"METRICS {server.metrics_server.host} "
                f"{server.metrics_server.port}"
            )
        try:
            loop.run_forever()
        except KeyboardInterrupt:
            pass
        loop.run_until_complete(server.stop())
        return 0
    finally:
        set_registry(previous_registry)
        asyncio.set_event_loop(None)
        loop.close()
