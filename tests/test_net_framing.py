"""Framing and wire codecs of the real transport (:mod:`repro.net`).

These are the layers that face untrusted bytes: the length-prefixed
frame decoder and the message<->payload codecs.  Everything here is
pure/in-memory — the socket paths live in ``test_net_loopback.py``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.common.errors import (
    DecodeError,
    EncodingError,
    OversizedFrameError,
    TruncatedFrameError,
)
from repro.crypto.keystore import KeyStore
from repro.net.framing import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    encode_frame,
    read_frame,
)
from repro.net.transport import Transport
from repro.net.wire import (
    decode_payload,
    hello_payload,
    message_to_payload,
    payload_to_message,
    welcome_payload,
)
from repro.sim.network import Network
from repro.sim.scheduler import Scheduler
from repro.ustor.client import UstorClient
from repro.ustor.messages import (
    CheckpointMessage,
    CommitMessage,
    ReplyMessage,
    SubmitMessage,
)


class TestEncodeFrame:
    def test_roundtrip_through_decoder(self):
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(b"abc") + encode_frame(b"")) == [
            b"abc",
            b"",
        ]

    def test_oversized_payload_rejected_at_send(self):
        with pytest.raises(OversizedFrameError):
            encode_frame(b"x" * 11, max_bytes=10)

    def test_limit_is_inclusive(self):
        assert encode_frame(b"x" * 10, max_bytes=10)


class TestFrameDecoder:
    def test_byte_at_a_time_fragmentation(self):
        frame = encode_frame(b"payload-bytes")
        decoder = FrameDecoder()
        out: list[bytes] = []
        for i in range(len(frame)):
            out.extend(decoder.feed(frame[i : i + 1]))
        assert out == [b"payload-bytes"]
        assert decoder.pending_bytes == 0

    def test_many_frames_in_one_chunk(self):
        payloads = [bytes([i]) * i for i in range(5)]
        chunk = b"".join(encode_frame(p) for p in payloads)
        assert FrameDecoder().feed(chunk) == payloads

    def test_declared_oversize_raises_before_buffering(self):
        decoder = FrameDecoder(max_bytes=64)
        header = (65).to_bytes(4, "big")
        with pytest.raises(OversizedFrameError):
            decoder.feed(header)

    def test_pending_bytes_counts_partial_frame(self):
        frame = encode_frame(b"abcdef")
        decoder = FrameDecoder()
        decoder.feed(frame[:7])
        assert decoder.pending_bytes == 7


class TestReadFrame:
    def _reader(self, data: bytes) -> asyncio.StreamReader:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return reader

    def _run(self, coro):
        loop = asyncio.new_event_loop()
        try:
            return loop.run_until_complete(coro)
        finally:
            loop.close()

    def test_reads_back_to_back_frames_then_none_at_eof(self):
        async def scenario():
            reader = self._reader(encode_frame(b"one") + encode_frame(b"two"))
            return [
                await read_frame(reader),
                await read_frame(reader),
                await read_frame(reader),
            ]

        assert self._run(scenario()) == [b"one", b"two", None]

    def test_eof_mid_frame_is_truncation(self):
        async def scenario():
            reader = self._reader(encode_frame(b"payload")[:-2])
            await read_frame(reader)

        with pytest.raises(TruncatedFrameError):
            self._run(scenario())

    def test_eof_mid_header_is_truncation(self):
        async def scenario():
            reader = self._reader(b"\x00\x00")
            await read_frame(reader)

        with pytest.raises(TruncatedFrameError):
            self._run(scenario())

    def test_oversized_declared_length_rejected(self):
        async def scenario():
            header = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
            reader = self._reader(header + b"x")
            await read_frame(reader)

        with pytest.raises(OversizedFrameError):
            self._run(scenario())


def _protocol_messages() -> list:
    """One of each protocol message, produced by a real client run."""
    scheduler = Scheduler(seed=0)
    network = Network(scheduler)
    keystore = KeyStore(2, scheme="hmac")
    from repro.ustor.server import UstorServer

    server = UstorServer(2, name="S")
    network.register(server)
    clients = []
    for i in range(2):
        client = UstorClient(
            client_id=i, num_clients=2, signer=keystore.signer(i)
        )
        network.register(client)
        clients.append(client)
    captured: list = []
    original = network.send

    def capturing(src, dst, message):
        captured.append(message)
        original(src, dst, message)

    network.send = capturing
    clients[0].write(b"v1")
    clients[1].read(0)
    scheduler.run()
    return captured


#: A CHECKPOINT body with one field of the wrong kind (a well-formed one
#: is ``(1, (2, 1), (sig, sig))``).
MALFORMED_CHECKPOINTS = {
    "seq-not-int": (b"1", (2, 1), (b"s", b"s")),
    "cut-not-tuple": (1, b"\x02\x01", (b"s", b"s")),
    "cut-entry-not-int": (1, (2, b"1"), (b"s", b"s")),
    "signatures-not-tuple": (1, (2, 1), b"ss"),
    "signature-not-bytes": (1, (2, 1), (b"s", 7)),
    "short-record": (1, (2, 1)),
}


class TestWireCodecs:
    def test_every_protocol_message_roundtrips(self):
        messages = _protocol_messages()
        messages.append(CheckpointMessage(1, (2, 1), (b"\x01" * 32, b"\x02" * 32)))
        kinds = {type(m) for m in messages}
        assert kinds == {SubmitMessage, ReplyMessage, CommitMessage, CheckpointMessage}
        for message in messages:
            recovered = payload_to_message(message_to_payload(message))
            assert type(recovered) is type(message)
            assert message_to_payload(recovered) == message_to_payload(message)

    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_malformed_checkpoint_rejected(self, case):
        from repro.common.encoding import encode

        with pytest.raises(EncodingError):
            payload_to_message(encode(("CHECKPOINT", MALFORMED_CHECKPOINTS[case])))

    def test_handshake_payloads_decode(self):
        assert decode_payload(hello_payload(2, 3)) == ("HELLO", 2, 3)
        assert decode_payload(welcome_payload("S", 3)) == ("WELCOME", "S", 3)

    def test_unknown_kind_rejected(self):
        from repro.common.encoding import encode

        with pytest.raises((DecodeError, EncodingError)):
            payload_to_message(encode(("GOSSIP", ())))

    def test_non_tuple_record_rejected(self):
        from repro.common.encoding import encode

        with pytest.raises((DecodeError, EncodingError)):
            decode_payload(encode(b"not-a-tuple"))

    def test_garbage_bytes_rejected(self):
        with pytest.raises((DecodeError, EncodingError)):
            payload_to_message(b"\xff\xfe\xfd")


class TestTransportSeam:
    def test_sim_network_satisfies_transport_protocol(self):
        # The seam is structural: the simulator's Network implements
        # Transport without importing it.
        network = Network(Scheduler(seed=0))
        assert isinstance(network, Transport)
