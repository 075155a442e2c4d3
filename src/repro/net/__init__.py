"""Real transport for the FAUST reproduction.

Everything below ``repro.net`` moves the protocol off the discrete-event
simulator and onto real sockets and real clocks, *without touching* the
protocol state machines: the same :class:`~repro.ustor.client.UstorClient`
and :class:`~repro.ustor.server.UstorServer` objects that run under
``sim.network.Network`` run here, bound to a :class:`Transport`
implementation backed by asyncio TCP streams and a wall-clock scheduler.

Layout:

* :mod:`repro.net.transport` — the ``Transport`` protocol the seam was
  extracted into (``sim.network.Network`` is the other implementation);
* :mod:`repro.net.framing` — length-prefixed frames over byte streams,
  hardened against untrusted peers;
* :mod:`repro.net.wire` — protocol messages <-> canonical TLV payloads;
* :mod:`repro.net.realtime` — wall-clock scheduler with the sim
  ``Scheduler``'s timer surface;
* :mod:`repro.net.server` — asyncio server host (in-process for loopback
  tests, standalone for ``python -m repro serve``);
* :mod:`repro.net.client` — asyncio client runtime, the ``TcpWorld`` the
  one wiring loop builds deployments in, and ``NetSystem``: the
  ``StorageSystem`` ``open_system`` returns on either transport, plus
  what sockets add (connections, a real close);
* :mod:`repro.net.trace` — append-only JSONL wire traces and their
  deterministic replay on the sim backend;
* :mod:`repro.net.supervisor` — OS-process lifecycle for servers.
"""

from repro.net.transport import Transport
from repro.net.client import NetSystem, open_tcp_system
from repro.net.server import NetServerHost, serve_forever
from repro.net.supervisor import ClusterSupervisor, ServerProcess
from repro.net.trace import replay_trace

__all__ = [
    "Transport",
    "NetSystem",
    "open_tcp_system",
    "NetServerHost",
    "serve_forever",
    "ClusterSupervisor",
    "ServerProcess",
    "replay_trace",
]
