"""The transport seam between protocol nodes and message delivery.

Protocol objects (:class:`~repro.sim.process.Node` subclasses) never open
sockets or schedule events themselves; they call ``self.send(dst, msg)``
and receive ``on_message(src, msg)`` callbacks.  Everything in between is
a *transport*, and this module names that seam.  It is the only place
the worlds a deployment can run in differ (:func:`repro.workloads.runner.
wire_deployment` builds all of them):

* :class:`repro.sim.network.Network` — the discrete-event simulator's
  in-memory message bus (deterministic latency, partitions, batching);
* :class:`repro.net.client.ClientTransport` — real asyncio TCP streams
  carrying length-prefixed TLV frames to server processes (and, on the
  server's side of the socket, the host's reply router);
* :class:`repro.net.trace.PlaybackTransport` — wire-trace replay, which
  captures what clients send instead of delivering it.

The protocol below is structural (:class:`typing.Protocol`): the sim
``Network`` already satisfies it byte-for-byte unchanged, which is the
point — the refactor extracts an interface, it does not fork behaviour.
``send_multi`` is an optional extra only ``Network`` has (one shared
latency sample per replica broadcast); without it a node falls back to
one ``send`` per destination.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

if TYPE_CHECKING:
    from repro.sim.process import Node
    from repro.sim.trace import SimTrace


@runtime_checkable
class Transport(Protocol):
    """What a protocol node needs from its message layer.

    ``register`` wires a node in (binding it to a scheduler and this
    transport); ``send`` moves one message from a named source to a named
    destination; ``trace`` exposes the per-run message/annotation log
    (``None`` when tracing is off) that clients use for fail-notification
    notes.
    """

    def register(self, node: "Node") -> None: ...

    def send(self, src: str, dst: str, message: Any) -> None: ...

    @property
    def trace(self) -> "SimTrace | None": ...
