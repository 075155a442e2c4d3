"""The connection model of :mod:`repro.net`: who reads the socket, how.

Both ends read through one ``FrameLink`` (an ``asyncio.BufferedProtocol``)
per socket, and ``run_until`` pumps the loop with the predicate
re-checked in place.  What is pinned here is everything that must *not*
depend on those mechanics:

* what either end gets out of a byte stream is independent of how TCP
  segmented it — replies, dedup counters and server state included;
* a hostile or broken peer costs its own connection and nothing else —
  a frame that decodes but that the server state refuses included;
* waits honour their deadline, see timer-driven state within the
  fallback tick, and hand a raising predicate to their *caller*;
* a SIGINT that lands inside a frame handler stops ``serve_forever``
  through its orderly path.

One process, one event loop, loopback sockets — tier-1.
"""

from __future__ import annotations

import asyncio
import logging
import signal
import socket
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import SystemConfig, open_system
from repro.api.config import BatchingPolicy
from repro.api.session import Session
from repro.common.encoding import encode
from repro.common.errors import SimulationError
from repro.common.types import OpKind
from repro.net.client import ClientConnection, NetRuntime, parse_endpoint
from repro.net.framing import MAX_FRAME_BYTES, encode_frame
from repro.net.server import NetServerHost, serve_forever
from repro.net.trace import load_trace
from repro.net.wire import hello_payload, message_to_payload, welcome_payload
from repro.ustor.messages import OWN_FORM_MAX_CLIENTS
from repro.ustor.server import UstorServer

pytestmark = pytest.mark.net

NUM_CLIENTS = 2


def _start_host(runtime: NetRuntime) -> NetServerHost:
    host = NetServerHost(NUM_CLIENTS)
    runtime.run_coroutine(host.start())
    return host


def _open_deployment(runtime: NetRuntime, **config_kwargs):
    """A live host and its clients on the shared runtime; closing the
    system stops the host."""
    host = _start_host(runtime)
    system = open_system(
        SystemConfig(
            NUM_CLIENTS,
            transport="tcp",
            endpoints=(host.endpoint,),
            default_timeout=10.0,
            **config_kwargs,
        ),
        backend="ustor",
        runtime=runtime,
    )
    system.hosts.append(host)
    return system, host


class _RawPeer(asyncio.Protocol):
    """Collects whatever the server sends until the connection is gone
    (a reset included: bytes that arrived before it are kept)."""

    def __init__(self) -> None:
        self.answered = bytearray()
        self.gone = asyncio.get_running_loop().create_future()

    def data_received(self, data: bytes) -> None:
        self.answered += data

    def connection_lost(self, exc: Exception | None) -> None:
        self.gone.set_result(None)


async def _exchange(endpoint: str, fragments: list[bytes]) -> bytes:
    """Play ``fragments`` to the server as one socket write each, half-close,
    and return every byte it answered until it closed the connection."""
    transport, peer = await asyncio.get_running_loop().create_connection(
        _RawPeer, *parse_endpoint(endpoint)
    )
    try:
        for fragment in fragments:
            if transport.is_closing():
                break  # the server hung up on us
            transport.write(fragment)
            # Two loop turns: the first lets the selector see the bytes,
            # the second runs the server's read before the next write.
            await asyncio.sleep(0)
            await asyncio.sleep(0)
        if not transport.is_closing():
            try:
                transport.write_eof()
            except OSError:
                pass  # reset under us: connection_lost is on its way
        await asyncio.wait_for(peer.gone, timeout=5.0)
    finally:
        transport.close()
    return bytes(peer.answered)


def _fragments(stream: bytes, cuts) -> list[bytes]:
    edges = [0, *sorted(set(cuts)), len(stream)]
    return [stream[a:b] for a, b in zip(edges, edges[1:]) if a < b]


@pytest.fixture(scope="module")
def runtime():
    runtime = NetRuntime()
    yield runtime
    runtime.close()


@pytest.fixture(scope="module")
def recorded(runtime, tmp_path_factory) -> dict[tuple[str, int], list[bytes]]:
    """Frame payloads of a real two-client run, per direction and client:
    client 0 runs three operations alone, then client 1 runs two."""
    trace_path = tmp_path_factory.mktemp("recorded") / "run.jsonl"
    system, _host = _open_deployment(runtime, trace_path=str(trace_path))
    with system:
        alice, bob = system.session(0), system.session(1)
        alice.write_sync(b"a1")
        alice.read_sync(0)
        alice.write_sync(b"a2")
        system.run_until_quiescent(timeout=2.0)
        bob.write_sync(b"b1")
        bob.read_sync(0)
        system.run_until_quiescent(timeout=2.0)
    frames: dict[tuple[str, int], list[bytes]] = {}
    for record in load_trace(str(trace_path))[1]:
        if record["t"] == "frame":
            frames.setdefault((record["dir"], record["c"]), []).append(
                bytes.fromhex(record["payload"])
            )
    return frames


@pytest.fixture(scope="module")
def client_stream(recorded) -> tuple[bytes, list[int]]:
    """Client 0's connection as bytes, with two retransmissions spliced in
    after its second REPLY — SUBMIT 1 again (applied long ago: dropped as
    stale) and SUBMIT 2 again (the journaled one: its REPLY is resent) —
    and the offsets at which its frames start."""
    submit1, commit1, submit2, commit2, submit3, commit3 = recorded[("c2s", 0)]
    payloads = [
        hello_payload(0, NUM_CLIENTS),
        submit1, commit1, submit2, submit1, submit2, commit2, submit3, commit3,
    ]
    stream, starts = b"", []
    for payload in payloads:
        starts.append(len(stream))
        stream += encode_frame(payload)
    return stream, starts


def _serve_stream(runtime: NetRuntime, fragments: list[bytes]):
    """A fresh host's whole answer to one connection, and what it became."""
    host = _start_host(runtime)
    try:
        answered = runtime.run_coroutine(_exchange(host.endpoint, fragments))
        return (
            answered,
            host.submits_deduplicated,
            host.submits_dropped_stale,
            host.node.state,
        )
    finally:
        runtime.run_coroutine(host.stop())


class TestSegmentationIndependence:
    @pytest.fixture(scope="class")
    def frame_aligned(self, runtime, recorded, client_stream):
        stream, starts = client_stream
        answered, deduplicated, dropped, state = reference = _serve_stream(
            runtime, _fragments(stream, starts)
        )
        # The reference is the recorded run itself: the replies client 0
        # got then, with the journaled one sent a second time.
        reply1, reply2, reply3 = recorded[("s2c", 0)]
        assert answered == b"".join(
            encode_frame(payload)
            for payload in (
                welcome_payload("S", NUM_CLIENTS), reply1, reply2, reply2, reply3,
            )
        )
        assert (deduplicated, dropped) == (1, 1)
        assert state.mem[0].timestamp == 3 and not state.pending
        return reference

    @settings(max_examples=30, deadline=None)
    @given(cuts=st.sets(st.integers(min_value=1, max_value=4096), max_size=40))
    @example(cuts=frozenset())  # every frame in one segment
    @example(cuts=frozenset({1, 2, 3, 5}))  # HELLO split across segments
    @example(cuts=frozenset(range(1, 4096, 7)))
    def test_any_fragmentation_same_replies_counters_and_state(
        self, runtime, client_stream, frame_aligned, cuts
    ):
        stream, _starts = client_stream
        fragments = _fragments(stream, (cut for cut in cuts if cut < len(stream)))
        assert _serve_stream(runtime, fragments) == frame_aligned

    def test_byte_by_byte(self, runtime, client_stream, frame_aligned):
        stream, _starts = client_stream
        fragments = [stream[i : i + 1] for i in range(len(stream))]
        assert _serve_stream(runtime, fragments) == frame_aligned

    def test_frames_behind_a_bad_frame_are_not_delivered(
        self, runtime, recorded, client_stream, frame_aligned
    ):
        # Client 1's SUBMIT on client 0's connection is the bad frame;
        # whatever shares its segment — or the stream — behind it is lost,
        # everything in front of it was served.
        stream, starts = client_stream
        good = stream[: starts[3]]  # HELLO, SUBMIT 1, COMMIT 1
        bad = encode_frame(recorded[("c2s", 1)][0])
        rest = stream[starts[3] :]
        one_segment = _serve_stream(runtime, [good + bad + rest])
        assert one_segment == _serve_stream(runtime, [good, bad, rest])
        answered, deduplicated, dropped, state = one_segment
        assert answered == frame_aligned[0][: len(answered)]
        assert answered.endswith(encode_frame(recorded[("s2c", 0)][0]))
        assert (deduplicated, dropped) == (0, 0)
        assert state.mem[0].timestamp == 1 and state.mem[1].timestamp == 0


BAD_STREAMS = [
    "oversized-prefix-first",
    "oversized-prefix-after-hello",
    "eof-inside-hello",
    "eof-inside-submit",
    "submit-for-another-client",
    "hello-wrong-population",
    "hello-undecodable",
    "hello-old-format",
    "deep-nesting-after-hello",
    "checkpoint-cut-not-ints",
    "checkpoint-cut-of-another-population",
]

#: ``encode(("HELLO", 1, 2))`` as a build before the varint length fields
#: wrote it: every length eight big-endian bytes.  Spelt out here, not
#: produced by a kept copy of the old encoder.
_L1, _L3, _L5 = ((n).to_bytes(8, "big") for n in (1, 3, 5))
OLD_FORMAT_HELLO = (
    b"\x05" + _L1 + b"\x05" + _L3
    + b"\x04" + _L5 + b"HELLO"
    + b"\x02\x01" + _L1 + b"\x01"
    + b"\x02\x01" + _L1 + b"\x02"
)
#: 2 000 bytes of one-element sequence headers around a ``None``.
DEEP_PAYLOAD = b"\x05\x01" * 1000 + b"\x00"

_ZERO = (((0, 0), (None, None)), None)  # SVER[c] of two clients, zero
_SIG = b"\x01" * 64
_DIGEST = b"\x02" * 32
_MEM = (1, b"v", _SIG)
#: REPLYs of the right shape whose proof list or back-reference the
#: decoder refuses (``tests/test_reply_wire_form.py`` has the full set).
MALFORMED_REPLIES = {
    "proof-count": encode(("REPLY", (0, _ZERO, (), (_SIG,), None, None))),
    "submitter-out-of-range": encode(
        ("REPLY", (0, _ZERO, ((2, OpKind.WRITE, 2, _SIG),), (_SIG,), None, None))
    ),
    "back-reference-in-a-write": encode(("REPLY", (0, _ZERO, (), (), True, None))),
    # Own form: the population n stands where SVER[c] went.
    "back-reference-to-no-population": encode(
        ("REPLY", (0, 0, (), (), None, None))
    ),
    "back-reference-to-a-huge-population": encode(
        ("REPLY", (0, 1 << 40, (), (), None, None))
    ),
    "back-reference-population-below-l": encode(
        ("REPLY", (0, 1, ((1, OpKind.WRITE, 1, _SIG),), (_SIG,), None, None))
    ),
    "back-reference-own-reader-without-mem": encode(
        ("REPLY", (0, 2, (), (), True, None))
    ),
    # Relative form: (mask of the entries equal to the client's committed
    # version, the other (V[k], M[k]) pairs, the COMMIT-signature).
    "relative-mask-bit-past-n": encode(
        ("REPLY", (0, (0b1001, (1, _DIGEST), _SIG), (), (), None, None))
    ),
    "relative-changed-count-not-n-minus-popcount": encode(
        ("REPLY", (0, _ZERO, (), (), (0b1, (1, _DIGEST, 2, _DIGEST), _SIG), _MEM))
    ),
    "relative-population-past-the-bound": encode(
        ("REPLY", (0, ((1 << (OWN_FORM_MAX_CLIENTS + 1)) - 1, (), _SIG),
                   (), (), None, None))
    ),
    # MEM[j] in digest form: (t, (H(x),), delta).
    "digest-of-31-bytes": encode(
        ("REPLY", (0, _ZERO, (), (), _ZERO, (1, (_DIGEST[:31],), _SIG)))
    ),
    "digest-in-a-write-reply": encode(
        ("REPLY", (0, _ZERO, (), (), None, (1, (_DIGEST,), _SIG)))
    ),
}
#: A client sending a server any of these pays with its connection too.
BAD_STREAMS += [
    f"reply-{case}"
    for case in MALFORMED_REPLIES
    if case.startswith(("back-reference", "relative", "digest"))
]
#: A read's digest request (``True`` in the value slot) on a write SUBMIT.
DIGEST_REQUEST_ON_A_WRITE = encode(
    ("SUBMIT", (1, (1, OpKind.WRITE, 1, _SIG), True, _SIG, None))
)
BAD_STREAMS.append("submit-digest-request-on-a-write")


def _bad_stream(case: str, recorded) -> tuple[list[bytes], bytes]:
    """The segments a raw peer sends in client 1's seat, and the bytes the
    server may answer before it hangs up."""
    hello = encode_frame(hello_payload(1, NUM_CLIENTS))
    welcome = encode_frame(welcome_payload("S", NUM_CLIENTS))
    oversized = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
    return {
        "oversized-prefix-first": ([oversized + b"x"], b""),
        "oversized-prefix-after-hello": ([hello + oversized], welcome),
        "eof-inside-hello": ([hello[:-3]], b""),
        "eof-inside-submit": (
            [hello, encode_frame(recorded[("c2s", 1)][0])[:-5]], welcome,
        ),
        "submit-for-another-client": (
            [hello + encode_frame(recorded[("c2s", 0)][0])], welcome,
        ),
        "hello-wrong-population": (
            [encode_frame(hello_payload(1, NUM_CLIENTS + 1))], b"",
        ),
        "hello-undecodable": ([encode_frame(b"\xff\xfe not a record")], b""),
        "hello-old-format": ([encode_frame(OLD_FORMAT_HELLO)], b""),
        "deep-nesting-after-hello": ([hello + encode_frame(DEEP_PAYLOAD)], welcome),
        # The decoder refuses the first; the server state the second.
        "checkpoint-cut-not-ints": (
            [hello + encode_frame(encode(("CHECKPOINT", (1, (b"1", 0), ()))))],
            welcome,
        ),
        "checkpoint-cut-of-another-population": (
            [hello + encode_frame(encode(("CHECKPOINT", (1, (1, 0, 0), ()))))],
            welcome,
        ),
        "submit-digest-request-on-a-write": (
            [hello + encode_frame(DIGEST_REQUEST_ON_A_WRITE)], welcome,
        ),
        **{
            f"reply-{name}": ([hello + encode_frame(payload)], welcome)
            for name, payload in MALFORMED_REPLIES.items()
        },
    }[case]


class TestBadPeerCostsOnlyItsConnection:
    @pytest.fixture()
    def deployment(self, runtime):
        """A live host, client 0 connected for real, client 1's seat free
        for the raw peer to claim."""
        system, host = _open_deployment(runtime)
        runtime.run_coroutine(system.connections[1].aclose())
        with system:
            yield system, host

    @pytest.mark.parametrize("case", BAD_STREAMS)
    def test_connection_closed_nothing_applied_others_served(
        self, runtime, recorded, deployment, case
    ):
        system, host = deployment
        segments, expected_answer = _bad_stream(case, recorded)
        session = system.session(0)
        assert session.write_sync(b"before") == 1
        state = host.node.state
        answered = runtime.run_coroutine(_exchange(host.endpoint, segments))
        assert answered == expected_answer
        assert state.submits_applied == 1 and state.mem[1].timestamp == 0
        assert "C2" not in host._connections and len(host._links) == 1
        assert session.write_sync(b"still-served") == 2
        assert system.connections[0].reconnects == 0

    def test_state_refused_frame_costs_only_its_connection(
        self, runtime, deployment, caplog
    ):
        # A COMMIT that decodes but whose version counts three clients:
        # the server state refuses it (``ProtocolError`` from line 119's
        # comparison).  That must close this connection like an
        # undecodable frame, not escape the protocol's read callback —
        # where asyncio logs "Fatal error: protocol.… call failed".
        system, host = deployment
        session = system.session(0)
        assert session.write_sync(b"before") == 1
        state = host.node.state
        commit = encode(
            ("COMMIT", (((1, 0, 0), (b"d" * 32, None, None)), _SIG, _SIG))
        )
        hello = encode_frame(hello_payload(1, NUM_CLIENTS))
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            answered = runtime.run_coroutine(
                _exchange(host.endpoint, [hello, encode_frame(commit)])
            )
        assert answered == encode_frame(welcome_payload("S", NUM_CLIENTS))
        assert not [r for r in caplog.records if r.name == "asyncio"]
        assert state.sver[1].version.is_zero
        assert "C2" not in host._connections and len(host._links) == 1
        assert session.write_sync(b"still-served") == 2
        assert system.connections[0].reconnects == 0

    def test_peer_is_cut_off_without_waiting_for_its_eof(self, runtime, deployment):
        _system, host = deployment

        async def scenario() -> bytes:
            transport, peer = await asyncio.get_running_loop().create_connection(
                _RawPeer, *parse_endpoint(host.endpoint)
            )
            try:
                transport.write((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
                await asyncio.wait_for(peer.gone, timeout=5.0)
            finally:
                transport.close()
            return bytes(peer.answered)

        assert runtime.run_coroutine(scenario()) == b""

    def test_stop_closes_connections_that_never_said_hello(self, runtime):
        host = _start_host(runtime)

        async def scenario() -> bytes:
            transport, peer = await asyncio.get_running_loop().create_connection(
                _RawPeer, *parse_endpoint(host.endpoint)
            )
            try:
                await asyncio.sleep(0)
                await asyncio.sleep(0)
                assert len(host._links) == 1
                await host.stop()
                await asyncio.wait_for(peer.gone, timeout=5.0)
            finally:
                transport.close()
            return bytes(peer.answered)

        assert runtime.run_coroutine(scenario()) == b""
        assert not host._links and not host._connections


class _RawServer(asyncio.Protocol):
    """Plays ``segments`` to whichever client connects, one socket write
    each, two loop turns apart (what it is sent is ignored)."""

    def __init__(self, segments: list[bytes]) -> None:
        self._segments = segments

    def connection_made(self, transport) -> None:
        asyncio.get_running_loop().create_task(self._play(transport))

    async def _play(self, transport) -> None:
        for segment in self._segments:
            transport.write(segment)
            await asyncio.sleep(0)
            await asyncio.sleep(0)


def _client_reads(runtime: NetRuntime, segments: list[bytes]) -> tuple:
    """What a client connection delivers, and its counters, when a raw
    server answers its HELLO with ``segments``."""
    server = runtime.run_coroutine(
        runtime.loop.create_server(lambda: _RawServer(segments), "127.0.0.1", 0)
    )
    port = server.sockets[0].getsockname()[1]
    connection = ClientConnection(
        runtime, 0, NUM_CLIENTS, f"127.0.0.1:{port}", "S"
    )
    delivered: list[bytes] = []

    class Sink:
        name = "C1"

        def deliver(self, _src, message) -> None:
            delivered.append(message_to_payload(message))

    connection.attach(Sink())
    try:
        connection.start()
        assert runtime.pump_until(lambda: len(delivered) == 2, timeout=2.0)
        return delivered, (
            connection.connected,
            connection.frames_sent,
            connection.frames_received,
            connection.reconnects,
            connection.unacked,
        )
    finally:
        runtime.run_coroutine(connection.aclose())
        server.close()
        runtime.run_coroutine(server.wait_closed())


class TestClientReadPath:
    def test_eof_inside_a_reply_is_noted_then_reconnected(self, runtime):
        # The (untrusted) server end dies mid-frame: the client must call
        # that a malformed stream, not an orderly shutdown, and carry on.
        system, host = _open_deployment(runtime)
        with system:
            session = system.session(0)
            assert session.write_sync(b"one") == 1
            # Let the COMMIT land first: closing over unread bytes would
            # reset the connection instead of ending the stream.
            assert system.run_until(
                lambda: not host.node.state.pending, timeout=2.0
            )
            transport = host._connections["C1"]
            transport.write(encode_frame(b"x" * 64)[:-10])
            transport.close()
            # ... and let the client read the stream to its end before the
            # next SUBMIT, for the same reason.
            assert system.run_until(
                lambda: system.trace.notes_of_kind("net-malformed-frame"),
                timeout=2.0,
            )
            assert session.write_sync(b"two") == 2
            notes = system.trace.notes_of_kind("net-malformed-frame")
            assert [note.source for note in notes] == ["C1"]
            connection = system.connections[0]
            assert connection.frames_received == 2 and connection.reconnects == 1

    def test_deeply_nested_frame_is_noted_then_reconnected(self, runtime):
        # 2 KB from the (untrusted) server that would recurse a thousand
        # levels: the connection task must survive it as it survives any
        # other undecodable frame — note, reconnect, next operation served.
        system, host = _open_deployment(runtime)
        with system:
            session = system.session(0)
            assert session.write_sync(b"one") == 1
            assert system.run_until(
                lambda: not host.node.state.pending, timeout=2.0
            )
            host._connections["C1"].write(encode_frame(DEEP_PAYLOAD))
            assert system.run_until(
                lambda: system.trace.notes_of_kind("net-malformed-frame"),
                timeout=2.0,
            )
            assert session.write_sync(b"two") == 2
            notes = system.trace.notes_of_kind("net-malformed-frame")
            assert [note.source for note in notes] == ["C1"]
            assert system.connections[0].reconnects == 1

    @pytest.mark.parametrize("case", sorted(MALFORMED_REPLIES))
    def test_malformed_reply_is_noted_then_reconnected(self, runtime, case):
        # A REPLY whose proofs do not match L, that back-references
        # SVER[c] without MEM[j], or whose relative version's mask does
        # not fit its population, is a malformed frame like any other:
        # one note, one reconnect, and the next operation is served.
        system, host = _open_deployment(runtime)
        with system:
            session = system.session(0)
            assert session.write_sync(b"one") == 1
            assert system.run_until(
                lambda: not host.node.state.pending, timeout=2.0
            )
            host._connections["C1"].write(encode_frame(MALFORMED_REPLIES[case]))
            assert system.run_until(
                lambda: system.trace.notes_of_kind("net-malformed-frame"),
                timeout=2.0,
            )
            assert session.write_sync(b"two") == 2
            notes = system.trace.notes_of_kind("net-malformed-frame")
            assert [note.source for note in notes] == ["C1"]
            assert system.connections[0].reconnects == 1
            assert not system.clients[0].failed

    def test_many_replies_in_one_segment_all_delivered(self, runtime, recorded):
        # A server that answers in bursts: WELCOME's successor frames land
        # in one read and every one of them must reach the client.
        system, host = _open_deployment(runtime)
        with system:
            connection = system.connections[1]
            delivered = []

            class Sink:
                name = "C2"

                def deliver(self, _src, message) -> None:
                    delivered.append(message)

            connection.attach(Sink())
            burst = b"".join(encode_frame(p) for p in recorded[("s2c", 1)])
            host._connections["C2"].write(burst)
            assert system.run_until(lambda: len(delivered) == 2, timeout=2.0)
            assert connection.frames_received == 2


    def test_welcome_and_replies_read_the_same_however_split(
        self, runtime, recorded, caplog
    ):
        replies = recorded[("s2c", 0)][:2]
        frames = [
            encode_frame(payload)
            for payload in (welcome_payload("S", NUM_CLIENTS), *replies)
        ]
        stream = b"".join(frames)
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            whole = _client_reads(runtime, [stream])
            byte_by_byte = _client_reads(
                runtime, [stream[i : i + 1] for i in range(len(stream))]
            )
            per_frame = _client_reads(runtime, frames)
        assert whole == (replies, (True, 0, 2, 0, []))
        assert byte_by_byte == whole and per_frame == whole
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_oversized_prefix_is_noted_then_reconnected(self, runtime, caplog):
        system, host = _open_deployment(runtime)
        with system, caplog.at_level(logging.ERROR, logger="asyncio"):
            session = system.session(0)
            assert session.write_sync(b"one") == 1
            assert system.run_until(
                lambda: not host.node.state.pending, timeout=2.0
            )
            host._connections["C1"].write((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            assert system.run_until(
                lambda: system.trace.notes_of_kind("net-malformed-frame"),
                timeout=2.0,
            )
            assert session.write_sync(b"two") == 2
            notes = system.trace.notes_of_kind("net-malformed-frame")
            assert [note.source for note in notes] == ["C1"]
            assert system.connections[0].reconnects == 1
        assert not [r for r in caplog.records if r.name == "asyncio"]


class TestPump:
    def test_timeout_honoured_with_no_traffic(self, runtime):
        started = time.monotonic()
        assert runtime.pump_until(lambda: False, timeout=0.03) is False
        assert 0.03 <= time.monotonic() - started < 0.5

    def test_nan_bound_rejected_before_the_loop_turns(self, runtime):
        # A NaN deadline is never reached (``remaining <= 0`` is always
        # false) and ``now >= nan`` never holds: both refused at the
        # scheduler, the entry every wait takes to the pump.  The stop is a
        # backstop so a regression fails here instead of pumping forever.
        backstop = runtime.loop.call_later(1.0, runtime.loop.stop)
        with pytest.raises(SimulationError):
            runtime.scheduler.run_until(lambda: False, timeout=float("nan"))
        with pytest.raises(SimulationError):
            runtime.scheduler.run(until=float("nan"))
        backstop.cancel()
        assert runtime.scheduler.run_until(lambda: True, timeout=float("inf"))

    def test_satisfied_predicate_still_turns_the_loop_once(self, runtime):
        ran = []
        runtime.loop.call_soon(ran.append, True)
        assert runtime.pump_until(lambda: True, timeout=1.0) is True
        assert ran == [True]

    def test_timer_driven_predicate_seen_within_the_fallback_tick(self, runtime):
        fired = []
        runtime.scheduler.schedule(0.02, fired.append, True)
        started = time.monotonic()
        assert runtime.pump_until(lambda: bool(fired), timeout=2.0) is True
        # No frame ever arrives: only the tick can have seen it, and it did
        # so long before the deadline.
        assert time.monotonic() - started < 0.5

    def test_session_flush_timer_settles_a_parked_operation(self, runtime):
        system, host = _open_deployment(runtime)
        with system:
            system.batching = BatchingPolicy(max_batch=8, max_delay=0.02)
            handle = Session(system, 0).write(b"parked")
            assert system.connections[0].frames_sent == 0  # buffered, not sent
            # Nothing but the flush timer can get this operation moving.
            assert system.run_until(handle.done, timeout=2.0)
            assert handle.result(0.0).timestamp == 1

    def test_raising_predicate_surfaces_to_the_caller(self, runtime):
        def predicate() -> bool:
            raise LookupError("from the first check")

        with pytest.raises(LookupError, match="first check"):
            runtime.pump_until(predicate, timeout=1.0)
        assert runtime.pump_until(lambda: True, timeout=1.0) is True

    def test_raising_timer_callback_stops_the_run(self, runtime):
        # Timer callbacks run protocol code (offline deliveries, periodic
        # ticks): an exception there ends the wait and reaches the caller,
        # as the simulator's run raises it — not asyncio's logger.
        def boom() -> None:
            raise LookupError("from a timer")

        scheduler = runtime.scheduler
        started = time.monotonic()
        scheduler.schedule(0.01, boom)
        with pytest.raises(LookupError, match="from a timer"):
            scheduler.run_until(lambda: False, timeout=2.0)
        scheduler.schedule(0.01, boom)
        with pytest.raises(LookupError, match="from a timer"):
            scheduler.run(until=scheduler.now + 2.0)
        assert time.monotonic() - started < 1.0
        assert scheduler.run_until(lambda: True, timeout=1.0) is True

    def test_predicate_raising_on_a_frame_wakeup_spares_the_connection(
        self, runtime
    ):
        system, host = _open_deployment(runtime)
        with system:
            connection = system.connections[0]
            session = system.session(0)

            def predicate() -> bool:
                # False on the pump's own first check, raises on the
                # re-check the REPLY's arrival triggers.
                if connection.frames_received:
                    raise LookupError("from a connection callback")
                return False

            session.write(b"one")
            with pytest.raises(LookupError, match="connection callback"):
                system.run_until(predicate, timeout=2.0)
            # Same runtime, same connection, next operation.
            assert session.write_sync(b"two") == 2
            assert connection.connected and connection.reconnects == 0

    def test_reentrant_wait_is_refused(self, runtime):
        system, host = _open_deployment(runtime)
        with system:
            refused = []

            def wait_from_inside(_handle) -> None:
                try:
                    system.run_until(lambda: True, timeout=0.1)
                except SimulationError as exc:
                    refused.append(str(exc))

            handle = system.session(0).write(b"x")
            handle.add_done_callback(wait_from_inside)
            assert system.run_until(handle.done, timeout=2.0)
            assert refused and "re-entrant" in refused[0]


class _InterruptedServer(UstorServer):
    """Raises a real SIGINT from inside the first frame it handles."""

    def on_message(self, src, message) -> None:
        signal.raise_signal(signal.SIGINT)
        super().on_message(src, message)  # pragma: no cover - interrupted


class TestInterrupt:
    def test_sigint_inside_a_frame_handler_stops_serve_forever_quietly(
        self, recorded, capfd, caplog
    ):
        peer_saw: list[bytes] = []

        def peer(port: int) -> None:
            with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
                sock.sendall(
                    encode_frame(hello_payload(0, NUM_CLIENTS))
                    + encode_frame(recorded[("c2s", 0)][0])
                )
                chunks = []
                while chunk := sock.recv(65536):
                    chunks.append(chunk)
                peer_saw.append(b"".join(chunks))

        threads: list[threading.Thread] = []

        def announce(line: str) -> None:
            _tag, _host, port = line.split()
            threads.append(threading.Thread(target=peer, args=(int(port),)))
            threads[-1].start()

        with caplog.at_level(logging.WARNING, logger="asyncio"):
            try:
                status = serve_forever(
                    NUM_CLIENTS,
                    server_factory=lambda n, name: _InterruptedServer(n, name=name),
                    announce=announce,
                )
            except KeyboardInterrupt:  # pragma: no cover - the regression
                pytest.fail("KeyboardInterrupt escaped serve_forever")
            finally:
                for thread in threads:
                    thread.join(timeout=5.0)
        assert status == 0
        assert threads and not threads[0].is_alive()
        # WELCOME went out, the interrupted SUBMIT was never answered, and
        # stop() closed the socket.
        assert peer_saw == [encode_frame(welcome_payload("S", NUM_CLIENTS))]
        assert caplog.records == []
        assert capfd.readouterr().err == ""
