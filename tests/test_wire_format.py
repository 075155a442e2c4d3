"""The canonical bytes, pinned — and the bytes of the format before them,
refused.

The wire format *is* the WAL format *is* the signed payload
(:mod:`repro.net.wire`), so one edit to :mod:`repro.common.encoding`
moves every frame, every durable record and every signature at once.
``tests/data/wire_format.json`` holds the hex of one SUBMIT, COMMIT and
REPLY frame payload, one WAL ``S`` / ``C`` / ``B`` record and one
snapshot from a fixed two-client run (HMAC keys are derived from the
client ids, so the signatures repeat): the next change to the canonical
bytes is a visible diff of that file, not a silent one.

Regenerate with ``PYTHONPATH=src python tests/test_wire_format.py`` only
when the format is *meant* to change — and bump
``repro.net.trace.TRACE_VERSION`` in the same commit.

The second half builds records the way the previous format wrote them
(every length eight big-endian bytes) *literally*, and checks each place
that persists or receives canonical bytes turns them away by name.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import SystemConfig, open_system
from repro.cli import main
from repro.common.errors import StorageError
from repro.net.wire import message_to_payload, payload_to_message
from repro.store import (
    DirectoryMedium,
    InMemoryMedium,
    LogStructuredEngine,
    decode_server_state,
    encode_server_state,
    frame_record,
    iter_frames,
)
from repro.ustor.server import UstorServer

CORPUS = Path(__file__).parent / "data" / "wire_format.json"
SEED = 22


class _Tap(UstorServer):
    """The honest server, keeping the latest message of each kind."""

    def __init__(self, num_clients: int, name: str) -> None:
        super().__init__(num_clients, name)
        self.latest: dict[str, tuple[str, object]] = {}

    def on_message(self, src, message) -> None:
        self.latest[message.kind] = (src, message)
        super().on_message(src, message)

    def outgoing_reply(self, src, message, reply):
        self.latest[reply.kind] = (src, reply)
        return reply


def capture() -> dict[str, str]:
    """Run the fixed scenario and return every pinned byte string as hex."""
    system = open_system(
        SystemConfig(num_clients=2, seed=SEED, server_factory=_Tap), backend="ustor"
    )
    with system:
        alice, bob = system.session(0), system.session(1)
        alice.write_sync(b"alpha")
        bob.read_sync(0)
        bob.write_sync(b"beta")
        alice.read_sync(1)
        system.run_until_quiescent()
        tap = system.server
    (_, submit), (committer, commit), (_, reply) = (
        tap.latest[kind] for kind in ("SUBMIT", "COMMIT", "REPLY")
    )
    client = int(committer[1:]) - 1
    engine = LogStructuredEngine(2, snapshot_interval=10**9)
    engine.recover()
    engine.log_submit(submit)
    engine.log_commit(client, commit)
    engine.log_records([("S", submit), ("C", client, commit)])
    wal = list(iter_frames(engine.medium.read(engine.WAL)))
    engine.checkpoint(tap.state)
    (snapshot,) = iter_frames(engine.medium.read(engine.SNAPSHOT))
    pinned = {
        "submit_payload": message_to_payload(submit),
        "commit_payload": message_to_payload(commit),
        "reply_payload": message_to_payload(reply),
        "wal_submit_record": wal[0],
        "wal_commit_record": wal[1],
        "wal_batch_record": wal[2],
        "snapshot_record": snapshot,
        "server_state": encode_server_state(tap.state),
    }
    return {name: raw.hex() for name, raw in pinned.items()}


class TestPinnedFormat:
    @pytest.fixture(scope="class")
    def captured(self) -> dict[str, str]:
        return capture()

    @pytest.mark.parametrize(
        "name",
        [
            "submit_payload",
            "commit_payload",
            "reply_payload",
            "wal_submit_record",
            "wal_commit_record",
            "wal_batch_record",
            "snapshot_record",
            "server_state",
        ],
    )
    def test_bytes_match_the_corpus(self, captured, name):
        corpus = json.loads(CORPUS.read_text())
        assert set(corpus) == set(captured)
        assert captured[name] == corpus[name]

    def test_pinned_bytes_decode_to_what_was_encoded(self, captured):
        for kind in ("submit", "commit", "reply"):
            raw = bytes.fromhex(captured[f"{kind}_payload"])
            assert message_to_payload(payload_to_message(raw)) == raw
        state = bytes.fromhex(captured["server_state"])
        assert encode_server_state(decode_server_state(state)) == state

    def test_a_length_below_128_is_one_byte(self, captured):
        # ("SUBMIT", (...)) : SEQ 1, SEQ 2, STR 6 "SUBMIT" — four header
        # bytes where the 8-byte format spent twenty-five.
        raw = bytes.fromhex(captured["submit_payload"])
        assert raw[:12] == b"\x05\x01\x05\x02\x04\x06SUBMIT"


# --------------------------------------------------------------------- #
# The previous format, spelt out byte by byte
# --------------------------------------------------------------------- #


def _l8(n: int) -> bytes:
    return n.to_bytes(8, "big")


def _old_int(n: int) -> bytes:
    return b"\x02\x01" + _l8(1) + bytes([n])


#: ``("K", 1, (0, 0))`` — a checkpoint WAL record — in the 8-byte format.
OLD_WAL_RECORD = (
    b"\x05" + _l8(1) + b"\x05" + _l8(3)
    + b"\x04" + _l8(1) + b"K"
    + _old_int(1)
    + b"\x05" + _l8(2) + _old_int(0) + _old_int(0)
)
#: ``("SNAP", 0, ())`` in the 8-byte format.
OLD_SNAPSHOT_RECORD = (
    b"\x05" + _l8(1) + b"\x05" + _l8(3)
    + b"\x04" + _l8(4) + b"SNAP"
    + _old_int(0)
    + b"\x05" + _l8(0)
)


class TestOldFormatRefused:
    def _medium(self, *, wal: bytes = b"", snapshot: bytes = b"") -> InMemoryMedium:
        medium = InMemoryMedium()
        if wal:
            medium.append(LogStructuredEngine.WAL, wal)
        if snapshot:
            medium.write_atomic(LogStructuredEngine.SNAPSHOT, snapshot)
        return medium

    def test_old_wal_record_is_not_read_as_an_empty_log(self):
        medium = self._medium(wal=frame_record(OLD_WAL_RECORD))
        assert list(iter_frames(medium.read("wal"))) == [OLD_WAL_RECORD]  # CRC-valid
        with pytest.raises(StorageError, match=r"WAL frame 0 .*8 bytes.*varints"):
            LogStructuredEngine(2, medium=medium).recover()

    def test_old_record_behind_current_ones_names_its_position(self):
        engine = LogStructuredEngine(2, snapshot_interval=10**9)
        engine.recover()
        engine.log_checkpoint((0, 0))
        engine.medium.append(engine.WAL, frame_record(OLD_WAL_RECORD))
        with pytest.raises(StorageError, match="WAL frame 1 "):
            LogStructuredEngine(2, medium=engine.medium).recover()

    def test_old_snapshot_refused(self):
        medium = self._medium(snapshot=frame_record(OLD_SNAPSHOT_RECORD))
        with pytest.raises(StorageError, match=r"snapshot .*8 bytes.*varints"):
            LogStructuredEngine(2, medium=medium).recover()

    def test_refusal_is_one_line(self):
        medium = self._medium(wal=frame_record(OLD_WAL_RECORD))
        with pytest.raises(StorageError) as excinfo:
            LogStructuredEngine(2, medium=medium).recover()
        assert "\n" not in str(excinfo.value)

    def test_deeply_nested_wal_record_is_a_storage_error(self):
        # Same road for a crafted record: CRC-valid, a thousand sequence
        # headers deep — a StorageError, not a RecursionError.
        crafted = frame_record(b"\x05\x01" * 1000 + b"\x00")
        with pytest.raises(StorageError, match="nested deeper"):
            LogStructuredEngine(2, medium=self._medium(wal=crafted)).recover()

    def test_serve_refuses_an_old_directory_in_one_line(self, tmp_path, capsys):
        medium = DirectoryMedium(tmp_path)
        medium.append(LogStructuredEngine.WAL, frame_record(OLD_WAL_RECORD))
        medium.close()
        code = main(
            ["serve", "--clients", "2", "--port", "0", "--storage", f"dir:{tmp_path}"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("cannot serve: WAL frame 0 ") and out.count("\n") == 1
        assert "LISTENING" not in out


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {CORPUS}")
