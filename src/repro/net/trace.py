"""Append-only JSONL wire traces of real runs, and their sim replay.

Every real (TCP) run can be recorded as one JSON-lines file holding the
run's parameters and every frame as observed **by the clients** —
outbound at the moment of transmission, inbound at the moment of
receipt.  Nothing else is recorded: an invocation *is* its SUBMIT frame
(client, kind, register, value and timestamp all travel in it), and a
response is what the clients derive from the inbound frames.  The
client-side vantage point matters for the security argument: the trace
captures exactly the bytes the clients acted on, so replaying it
re-derives the clients' verdicts *whatever* the server actually was —
honest, Byzantine, or long gone.

Record shapes (one JSON object per line; ``seq`` is a global counter)::

    {"t": "header", "v": 8, "n": ..., "scheme": ..., "server": ...,
     "endpoints": [...], "piggyback": ...}
    {"t": "frame", "seq": k, "dir": "c2s"|"s2c", "c": i,
     "retx": bool, "payload": hex, "at": seconds}

Replay (:func:`replay_trace`) rebuilds *fresh* protocol clients on the
discrete-event simulator — same deterministic keys, so same signatures —
and walks the frames in order at virtual time = ``seq``: each recorded
SUBMIT re-invokes its operation, inbound frames re-deliver (an inbound
frame the live client could not decode is skipped, as the client dropped
it).  Two equivalence checks fall out:

* every client-to-server frame the replayed clients produce is compared
  byte-for-byte against the recorded one (retransmissions excluded —
  they repeat bytes already recorded once);
* the replayed history equals the recorded one up to timestamps
  (:func:`history_signature`), so every consistency checker returns the
  same verdict over both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import (
    ConfigurationError,
    DecodeError,
    EncodingError,
    ProtocolError,
)
from repro.common.types import OpKind
from repro.history.history import History
from repro.net.wire import message_to_payload, payload_to_message
from repro.sim.scheduler import Scheduler
from repro.sim.trace import SimTrace
from repro.ustor.messages import SubmitMessage
from repro.workloads import runner

#: Bumped whenever the canonical encoding or a frame's shape changes:
#: ``payload`` is those bytes, so an older trace cannot be replayed (v1:
#: 8-byte length fields; v2: varint length fields; v3: a REPLY's ``P`` cut
#: to ``L``'s submitters and ``SVER[j] = SVER[c]`` back-referenced; v4: no
#: trace-id element in any frame, a REPLY's attestation its 7th element;
#: v5: frames only — the SUBMIT frame is the invocation; v6: a COMMIT to
#: a lone server carries ``t`` where its version went; v7: a REPLY whose
#: ``SVER[c]`` is its client's own committed version carries ``n`` there;
#: v8: a REPLY's versions travel relative to that committed version — a
#: mask of the equal entries, the others and the signature).
TRACE_VERSION = 8


def _value_to_json(value) -> str | None:
    if value is None:
        return None
    # BOTTOM and a ValueDigest render as their repr ("BOTTOM", "H:<hex>").
    return value.hex() if isinstance(value, bytes) else repr(value)


class WireTraceWriter:
    """Streams one run's frames to disk as they happen.

    :meth:`frame` is the hook the client connections call.  Append-only
    and flushed per record, so a crashed run leaves a usable prefix.
    """

    def __init__(
        self,
        path: str,
        *,
        clock: Callable[[], float],
        num_clients: int,
        scheme: str = "hmac",
        server_name: str = "S",
        endpoints: tuple[str, ...] = (),
        commit_piggyback: bool = False,
    ) -> None:
        self.path = path
        self._clock = clock
        self._file = open(path, "w", encoding="utf-8")
        self._seq = 0
        self._closed = False
        self._emit(
            {
                "t": "header",
                "v": TRACE_VERSION,
                "n": num_clients,
                "scheme": scheme,
                "server": server_name,
                "endpoints": list(endpoints),
                "piggyback": commit_piggyback,
            }
        )

    def _emit(self, record: dict) -> None:
        if self._closed:
            return
        record["seq"] = self._seq
        self._seq += 1
        self._file.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._file.flush()

    def frame(self, direction: str, client: int, payload: bytes, *, retx: bool) -> None:
        self._emit(
            {
                "t": "frame",
                "dir": direction,
                "c": client,
                "retx": retx,
                "payload": payload.hex(),
                "at": round(self._clock(), 6),
            }
        )

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._file.close()


def load_trace(path: str) -> tuple[dict, list[dict]]:
    """Read a trace file; returns ``(header, records)`` in seq order.  A
    file that is not a well-formed trace of this version is a
    :class:`ConfigurationError` naming the path (and the line)."""
    header: dict | None = None
    records: list[tuple[int, dict]] = []
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            if isinstance(record, dict) and record.get("t") == "header":
                header, header_line = record, number
            else:
                records.append((number, record))
    if header is None:
        raise ConfigurationError(f"{path!r} has no trace header")
    if header.get("v") != TRACE_VERSION:
        raise ConfigurationError(
            f"trace version {header.get('v')!r} unsupported "
            f"(this build reads v{TRACE_VERSION})"
        )
    n = header.get("n")
    if (
        type(n) is not int
        or n < 1
        or not isinstance(header.get("server"), str)
        or not isinstance(header.get("endpoints", []), list)
    ):
        raise ConfigurationError(
            f"{path!r} line {header_line}: a header without 'n', 'server' "
            f"or an 'endpoints' list"
        )
    for number, record in records:
        if not _is_frame(record, n):
            raise ConfigurationError(
                f"{path!r} line {number}: not a frame of {n} client(s)"
            )
    records.sort(key=lambda pair: pair[1]["seq"])
    return header, [record for _number, record in records]


def _is_frame(record, n: int) -> bool:
    try:
        bytes.fromhex(record["payload"])
        client, seq, retx = record["c"], record["seq"], record["retx"]
    except (KeyError, TypeError, ValueError):  # TypeError: not an object
        return False
    return (
        record.get("t") == "frame"
        and record.get("dir") in ("c2s", "s2c")
        and type(client) is type(seq) is int
        and 0 <= client < n
        and isinstance(retx, bool)
    )


class PlaybackTransport:
    """Transport for replayed clients: outbound frames are captured, not
    sent — the replayer compares them against the recorded ones."""

    def __init__(self, scheduler: Scheduler, trace: SimTrace | None = None) -> None:
        self._scheduler = scheduler
        self.trace = trace
        self.outbound: dict[str, list[bytes]] = {}

    def register(self, node) -> None:
        node.bind(self._scheduler, self)
        self.outbound.setdefault(node.name, [])

    def send(self, src: str, dst: str, message) -> None:
        self.outbound[src].append(message_to_payload(message))

    def send_multi(self, src: str, dsts: tuple, message) -> None:
        # A broadcast is one logical frame: the trace holds replica 0's copy.
        self.send(src, dsts[0], message)


@dataclass
class ReplayResult:
    """Outcome of replaying one recorded run on the simulator."""

    history: History
    clients: list
    sim_trace: SimTrace
    #: Human-readable descriptions of every point where the replay did
    #: not reproduce the recording byte-for-byte.  Empty = equivalent.
    divergences: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def fail_reasons(self) -> dict[int, str]:
        """``client_id -> fail_i reason`` for every failed replayed client."""
        return {
            c.client_id: c.fail_reason for c in self.clients if c.failed
        }


def replay_trace(path: str) -> ReplayResult:
    """Re-run a recorded TCP run on the sim backend, checking equivalence."""
    header, records = load_trace(path)
    replicas = max(1, len(header.get("endpoints", [])))
    scheduler = Scheduler(seed=0)
    sim_trace = SimTrace()
    transport = PlaybackTransport(scheduler, trace=sim_trace)
    # The replay world: a scheduler, the capturing transport and an idle
    # offline channel — recorded frames stand in for the server.  A replica
    # group's trace holds the winner of each round, so its replayed group
    # clients resolve a round on one REPLY (quorum 1) from replica 0.
    system = runner.wire_deployment(
        runner.World(scheduler, transport, sim_trace),
        runner.ustor_protocol(),
        num_clients=header["n"],
        scheme=str(header.get("scheme", "hmac")),  # a name, or an unknown one
        server_name=header["server"],
        replicas=replicas,
        quorum=1,
        commit_piggyback=bool(header.get("piggyback", False)),
    )
    server_name = runner.replica_names(header["server"], replicas)[0]
    clients = system.clients
    divergences: list[str] = []

    def apply(record: dict) -> None:
        client = clients[record["c"]]
        at = f"seq {record['seq']}"
        payload = bytes.fromhex(record["payload"])
        try:
            message = payload_to_message(payload)
        except (DecodeError, EncodingError) as exc:
            # s2c: the live client dropped the connection on these bytes
            # and never acted on them; neither does the replay.
            if record["dir"] == "c2s":
                divergences.append(
                    f"{at}: recorded frame from {client.name} does not decode ({exc})"
                )
            return
        if record["dir"] == "s2c":
            client.deliver(server_name, message)
            return
        if record["retx"]:
            return  # the logical frame was already checked once
        if isinstance(message, SubmitMessage) and client.busy:
            # The replayed client would queue it, not send it.
            divergences.append(
                f"{at}: recorded SUBMIT from {client.name} while its previous "
                f"operation was still waiting for a REPLY"
            )
        elif isinstance(message, SubmitMessage):
            # The SUBMIT is the invocation: re-invoke what it carries.
            try:
                if message.invocation.opcode is OpKind.WRITE:
                    client.write(message.value)
                else:
                    client.read(message.invocation.register)
            except ProtocolError as exc:
                divergences.append(
                    f"{at}: replayed {client.name} rejected the recorded "
                    f"invocation ({exc})"
                )
        produced = transport.outbound[client.name]
        if not produced:
            divergences.append(
                f"{at}: recording has a frame from {client.name} the replay "
                f"never produced"
            )
        elif produced.pop(0) != payload:
            divergences.append(
                f"{at}: frame from {client.name} differs between recording "
                f"and replay"
            )

    for index, record in enumerate(records):
        # Virtual time = record index keeps invocation/response order (and
        # therefore History's sort) identical to the recording's.
        scheduler.schedule_at(float(index), apply, record)
    scheduler.run()

    for name, leftover in transport.outbound.items():
        if leftover:
            divergences.append(
                f"replay produced {len(leftover)} frame(s) from {name} "
                f"that the recording never carried"
            )
    return ReplayResult(
        history=system.history(),
        clients=clients,
        sim_trace=sim_trace,
        divergences=divergences,
    )


def history_signature(history: History) -> tuple:
    """A history's content minus its clock: what both transports must agree
    on.  Wall-clock instants differ between a real run and its replay by
    construction; everything else — per-client operation sequences, kinds,
    registers, values, protocol timestamps, completion — must not."""
    return tuple(
        (
            op.client,
            op.kind.name,
            op.register,
            _value_to_json(op.value),
            op.timestamp,
            op.responded_at is not None,
        )
        for op in history
    )
