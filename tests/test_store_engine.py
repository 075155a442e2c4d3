"""The storage engines: WAL, snapshots, compaction, crash recovery.

Pins the recovery invariant (snapshot + WAL replay reproduces the
pre-crash ``ServerState`` byte-for-byte), the compaction policy (count-
and GC-driven checkpoints), the torn-tail tolerance of the WAL frame
format, and the end-to-end fault axis: an honest server crash/restart is
invisible over the log engine, server-side churn composes with client
churn, and the stale-snapshot recovery path feeds the rollback adversary.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import FaustParams, SystemConfig, open_system
from repro.cli import main
from repro.common.encoding import decode, encode
from repro.common.errors import ConfigurationError, StorageError
from repro.common.types import OpKind
from repro.crypto.keystore import KeyStore
from repro.store.codec import encode_server_state
from repro.store.engine import (
    LogStructuredEngine,
    MemoryEngine,
    StorageEngine,
    frame_record,
    iter_frames,
    make_engine,
)
from repro.store.media import DirectoryMedium, InMemoryMedium
from repro.ustor.messages import CommitMessage, InvocationTuple, SubmitMessage
from repro.ustor.server import ServerState, UstorServer, apply_commit, apply_submit
from repro.ustor.version import Version
from repro.sim.faults import Fault, plan_windows


def _signed_submit(keystore, client, t, kind=OpKind.WRITE, register=None):
    register = client if register is None else register
    signer = keystore.signer(client)
    return SubmitMessage(
        timestamp=t,
        invocation=InvocationTuple(
            client=client,
            opcode=kind,
            register=register,
            submit_sig=signer.sign("SUBMIT", kind, register, t),
        ),
        value=b"v%d" % t if kind is OpKind.WRITE else None,
        data_sig=signer.sign("DATA", t, b"h"),
    )


def _drive(engine: LogStructuredEngine, count: int, num_clients: int = 3):
    """Apply ``count`` submits through state + engine, mirroring the server."""
    keystore = KeyStore(num_clients, scheme="hmac")
    state = engine.recover()
    timestamps = [0] * num_clients
    for k in range(count):
        client = k % num_clients
        timestamps[client] += 1
        message = _signed_submit(keystore, client, timestamps[client])
        apply_submit(state, message)
        engine.log_submit(message)
        engine.maybe_checkpoint(state)
    return state


# --------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------- #


class TestWalFraming:
    def test_roundtrip(self):
        data = frame_record(b"one") + frame_record(b"two") + frame_record(b"")
        assert list(iter_frames(data)) == [b"one", b"two", b""]

    def test_torn_header_and_payload_tolerated(self):
        whole = frame_record(b"first")
        assert list(iter_frames(whole + b"\x00\x00")) == [b"first"]
        torn = whole + frame_record(b"second-record")[:-4]
        assert list(iter_frames(torn)) == [b"first"]

    def test_corrupt_crc_stops_replay(self):
        data = bytearray(frame_record(b"first") + frame_record(b"second"))
        data[-1] ^= 0xFF  # flip a bit in the second payload
        assert list(iter_frames(bytes(data))) == [b"first"]


# --------------------------------------------------------------------- #
# Engines
# --------------------------------------------------------------------- #


class TestMemoryEngine:
    def test_nothing_survives(self):
        engine = MemoryEngine(3)
        assert not engine.durable
        state = engine.recover()
        assert state == ServerState.initial(3)
        keystore = KeyStore(3, scheme="hmac")
        engine.log_submit(_signed_submit(keystore, 0, 1))
        assert engine.recover() == ServerState.initial(3)


@pytest.fixture(params=["memory", "dir"])
def media(request, tmp_path):
    """``(medium, restarted)``: what the server writes through, and what a
    new process over the same storage opens (no ``close()`` in between)."""
    if request.param == "dir":
        pair = DirectoryMedium(tmp_path), DirectoryMedium(tmp_path)
    else:
        pair = (InMemoryMedium(),) * 2
    yield pair
    for medium in pair:
        medium.close()


class TestLogStructuredEngine:
    def test_recovery_is_byte_identical(self):
        engine = LogStructuredEngine(3, snapshot_interval=5)
        live = _drive(engine, 13)
        recovered = LogStructuredEngine(3, medium=engine.medium).recover()
        assert encode_server_state(recovered) == encode_server_state(live)

    def test_recovery_replays_only_the_suffix(self):
        engine = LogStructuredEngine(3, snapshot_interval=5)
        _drive(engine, 13)
        assert engine.snapshots_taken == 2
        fresh = LogStructuredEngine(3, medium=engine.medium)
        fresh.recover()
        assert fresh.last_recovery_replayed == 3  # 13 records, 10 snapshotted

    def test_checkpoint_compacts_the_wal(self):
        engine = LogStructuredEngine(3, snapshot_interval=10**9)
        state = _drive(engine, 7)
        assert engine.medium.size(engine.WAL) > 0
        engine.checkpoint(state)
        assert engine.medium.size(engine.WAL) == 0
        recovered = LogStructuredEngine(3, medium=engine.medium).recover()
        assert encode_server_state(recovered) == encode_server_state(state)

    def test_gc_signal_checkpoints_earlier(self):
        engine = LogStructuredEngine(2, snapshot_interval=100, gc_snapshot_interval=2)
        keystore = KeyStore(2, scheme="hmac")
        state = engine.recover()
        m1 = _signed_submit(keystore, 0, 1)
        apply_submit(state, m1)
        engine.log_submit(m1)
        engine.maybe_checkpoint(state)  # 1 < 100: no snapshot
        assert engine.snapshots_taken == 0
        version = Version(vector=(1, 0), digests=(b"\x01" * 32, None))
        signer = keystore.signer(0)
        commit = CommitMessage(
            version=version,
            commit_sig=signer.sign("COMMIT", version.vector, version.digests),
            proof_sig=signer.sign("PROOF", version.digests[0]),
        )
        pending_before = len(state.pending)
        apply_commit(state, 0, commit)
        engine.log_commit(0, commit)
        engine.maybe_checkpoint(state, gc_advanced=len(state.pending) < pending_before)
        assert engine.snapshots_taken == 1  # GC threshold (2) reached

    def test_torn_wal_tail_recovers_prefix(self):
        engine = LogStructuredEngine(3, snapshot_interval=10**9)
        _drive(engine, 5)
        medium = engine.medium
        whole = medium.read(engine.WAL)
        medium.truncate(engine.WAL)
        medium.append(engine.WAL, whole[:-7])  # crash mid-append
        recovered_engine = LogStructuredEngine(3, medium=medium)
        recovered_engine.recover()
        assert recovered_engine.last_recovery_replayed == 4

    def test_recovery_trims_the_torn_tail(self, media):
        """Records appended *after* a torn-tail recovery must survive the
        next recovery — the tear has to be trimmed, not appended past.  On
        real files the trim replaces the WAL, so the append handle opened
        before it must not outlive it (it names the unlinked old file)."""
        medium, restarted = media
        keystore = KeyStore(2, scheme="hmac")
        engine = LogStructuredEngine(2, medium=medium, snapshot_interval=10**9)
        state = engine.recover()
        first = _signed_submit(keystore, 0, 1)
        apply_submit(state, first)
        engine.log_submit(first)
        medium.append(engine.WAL, b"\x00\x00\x00\x09torn")  # crash mid-append
        survivor = LogStructuredEngine(2, medium=medium)
        state = survivor.recover()
        second = _signed_submit(keystore, 1, 1)
        apply_submit(state, second)
        survivor.log_submit(second)
        final = LogStructuredEngine(2, medium=restarted).recover()
        assert final == state
        assert encode_server_state(final) == encode_server_state(state)

    def test_stale_snapshot_recovery_discards_suffix(self):
        engine = LogStructuredEngine(3, snapshot_interval=10**9)
        state = engine.recover()
        keystore = KeyStore(3, scheme="hmac")
        early = _signed_submit(keystore, 0, 1)
        apply_submit(state, early)
        engine.log_submit(early)
        engine.checkpoint(state)
        stale_bytes = encode_server_state(state)
        late = _signed_submit(keystore, 1, 1)
        apply_submit(state, late)
        engine.log_submit(late)
        rolled_back = engine.recover(replay_wal=False)
        assert encode_server_state(rolled_back) == stale_bytes
        # The discarded suffix is gone for good: honest recovery now
        # returns the stale state too.
        assert encode_server_state(engine.recover()) == stale_bytes

    def test_corrupt_snapshot_raises(self):
        engine = LogStructuredEngine(2, snapshot_interval=10**9)
        state = _drive(engine, 3, num_clients=2)
        engine.checkpoint(state)
        data = bytearray(engine.medium.read(engine.SNAPSHOT))
        data[-1] ^= 0xFF
        engine.medium.write_atomic(engine.SNAPSHOT, bytes(data))
        with pytest.raises(StorageError, match="snapshot"):
            LogStructuredEngine(2, medium=engine.medium).recover()

    def test_directory_medium_end_to_end(self, tmp_path):
        medium = DirectoryMedium(tmp_path / "store")
        engine = LogStructuredEngine(3, medium=medium, snapshot_interval=4)
        live = _drive(engine, 11)
        engine.close()
        recovered = LogStructuredEngine(
            3, medium=DirectoryMedium(tmp_path / "store")
        ).recover()
        assert encode_server_state(recovered) == encode_server_state(live)

    def test_crash_between_snapshot_rename_and_wal_truncate(
        self, media, monkeypatch
    ):
        """A checkpoint is one rename + one in-place truncate; dying in
        between leaves WAL entries the snapshot already covers."""
        medium, restarted = media
        engine = LogStructuredEngine(3, medium=medium, snapshot_interval=10**9)
        state = _drive(engine, 7)

        class Killed(Exception):
            pass

        def killed_before_truncate(name):
            raise Killed

        with monkeypatch.context() as patch:
            patch.setattr(medium, "truncate", killed_before_truncate)
            with pytest.raises(Killed):
                engine.checkpoint(state)
        assert medium.size(engine.SNAPSHOT) > 0 and medium.size(engine.WAL) > 0

        survivor = LogStructuredEngine(3, medium=restarted)
        recovered = survivor.recover()
        assert encode_server_state(recovered) == encode_server_state(state)
        assert survivor.last_recovery_replayed == 0  # all covered, all skipped
        # Sequence numbers continue past the covered entries.
        late = _signed_submit(KeyStore(3, scheme="hmac"), 0, 99)
        apply_submit(recovered, late)
        survivor.log_submit(late)
        again = LogStructuredEngine(3, medium=restarted).recover()
        assert encode_server_state(again) == encode_server_state(recovered)

    def test_invalid_intervals_rejected(self):
        with pytest.raises(ConfigurationError):
            LogStructuredEngine(2, snapshot_interval=0)
        with pytest.raises(ConfigurationError):
            LogStructuredEngine(2, gc_snapshot_interval=0)


def _medium_holding(*, wal=(), snapshot=None) -> InMemoryMedium:
    """A medium whose frames all pass their CRC and decode as TLV."""
    medium = InMemoryMedium()
    for record in wal:
        medium.append(LogStructuredEngine.WAL, frame_record(encode(record)))
    if snapshot is not None:
        medium.write_atomic(
            LogStructuredEngine.SNAPSHOT, frame_record(encode(snapshot))
        )
    return medium


class TestWrongShapeRefused:
    """A CRC-valid frame holding a record of the wrong shape is a named
    ``StorageError``, never a raw exception out of ``recover()``."""

    @pytest.mark.parametrize(
        "record",
        [
            ("S", 1, (1, 2)),
            ("C", 1, 0),
            ("K", 1, 5),
            ("K", 1, (0, b"1")),
            ("B", (("C", 1, 0),)),
        ],
        ids=["submit", "commit", "checkpoint", "checkpoint-cut-entry", "batch"],
    )
    def test_wal_record(self, record):
        medium = _medium_holding(wal=[record])
        with pytest.raises(
            StorageError, match=r"^WAL frame 0 passes its CRC but does not decode"
        ):
            LogStructuredEngine(2, medium=medium).recover()

    def test_wal_record_of_another_population(self):
        commit = (((1, 0, 0), (b"d" * 32, None, None)), b"c" * 64, b"p" * 64)
        medium = _medium_holding(wal=[("C", 1, 2, commit)])
        with pytest.raises(StorageError, match=r"^WAL frame 0 does not apply"):
            LogStructuredEngine(2, medium=medium).recover()

    def test_snapshot_state_with_three_fields(self):
        medium = _medium_holding(snapshot=("SNAP", 0, (2, (), 0)))
        with pytest.raises(
            StorageError, match=r"^snapshot passes its CRC but does not decode"
        ):
            LogStructuredEngine(2, medium=medium).recover()

    @pytest.mark.parametrize("fields", [6, 7])
    def test_previous_build_snapshot_of_an_empty_pending_list(self, fields):
        # The previous build dropped the trailing submits_applied and
        # pending_ts of a state whose pending list was empty.
        state = ServerState.initial(2)
        state.submits_applied = 4
        short = encode_server_state(state)
        medium = _medium_holding(snapshot=("SNAP", 4, decode(short)[0][:fields]))
        with pytest.raises(StorageError, match="malformed ServerState"):
            LogStructuredEngine(2, medium=medium).recover()

    def test_snapshot_of_another_population(self):
        state = decode(encode_server_state(ServerState.initial(3)))[0]
        medium = _medium_holding(snapshot=("SNAP", 0, state))
        with pytest.raises(StorageError, match="3-client state"):
            LogStructuredEngine(2, medium=medium).recover()

    def test_serve_refuses_in_one_line(self, tmp_path, capsys):
        medium = DirectoryMedium(tmp_path)
        medium.append(LogStructuredEngine.WAL, frame_record(encode(("C", 1, 0))))
        medium.close()
        code = main(
            ["serve", "--clients", "2", "--port", "0", "--storage", f"dir:{tmp_path}"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("cannot serve: WAL frame 0 ") and out.count("\n") == 1


# --------------------------------------------------------------------- #
# Media
# --------------------------------------------------------------------- #

_STREAMS = st.sampled_from(["wal", "snapshot"])
_CHUNKS = st.binary(max_size=48)
_MEDIUM_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), _STREAMS, _CHUNKS),
        st.tuples(st.just("write_atomic"), _STREAMS, _CHUNKS),
        st.tuples(st.just("truncate"), _STREAMS),
        st.tuples(st.just("read"), _STREAMS),
        st.tuples(st.just("size"), _STREAMS),
        st.tuples(st.just("close")),
    ),
    max_size=40,
)


class TestDirectoryMedium:
    @settings(max_examples=60, deadline=None)
    @given(_MEDIUM_OPS)
    def test_equals_the_in_memory_model(self, ops):
        with tempfile.TemporaryDirectory() as root:
            real, model = DirectoryMedium(root), InMemoryMedium()
            try:
                for op, *args in ops:
                    assert getattr(real, op)(*args) == getattr(model, op)(*args)
                for name in ("wal", "snapshot"):
                    assert real.read(name) == model.read(name)
                    assert real.size(name) == model.size(name)
            finally:
                real.close()

    def test_a_second_medium_reads_every_append_of_the_first(self, tmp_path):
        first = DirectoryMedium(tmp_path)
        for k in range(5):
            first.append("wal", b"record-%d;" % k)
            # No close, no flush call: a SIGKILLed process gets neither.
            assert DirectoryMedium(tmp_path).read("wal") == first.read("wal")
        assert first.read("wal").count(b";") == 5
        first.close()

    def test_truncate_is_in_place_and_appends_continue(self, tmp_path):
        medium = DirectoryMedium(tmp_path)
        medium.append("wal", b"old")
        inode = (tmp_path / "wal").stat().st_ino
        medium.truncate("wal")
        assert medium.read("wal") == b"" and (tmp_path / "wal").exists()
        medium.append("wal", b"new")
        assert medium.read("wal") == b"new"
        assert (tmp_path / "wal").stat().st_ino == inode  # no rename round
        medium.close()

    def test_stale_tmp_files_are_removed_on_open(self, tmp_path):
        (tmp_path / "snapshot.tmp").write_bytes(b"crashed before the rename")
        (tmp_path / "snapshot").write_bytes(b"intact")
        medium = DirectoryMedium(tmp_path)
        assert not (tmp_path / "snapshot.tmp").exists()
        assert medium.read("snapshot") == b"intact"

    def test_stream_names_that_could_escape_or_collide_are_rejected(self, tmp_path):
        medium = DirectoryMedium(tmp_path)
        for name in ("../wal", ".hidden", "snapshot.tmp"):
            with pytest.raises(StorageError):
                medium.append(name, b"x")

    def test_close_is_idempotent_and_use_reopens(self, tmp_path):
        medium = DirectoryMedium(tmp_path)
        medium.append("wal", b"a")
        medium.close()
        medium.close()
        medium.append("wal", b"b")
        assert medium.read("wal") == b"ab"
        medium.close()


class TestMakeEngine:
    def test_by_name(self, tmp_path):
        assert isinstance(make_engine("memory", 2), MemoryEngine)
        assert isinstance(make_engine("log", 2), LogStructuredEngine)
        on_disk = make_engine(f"dir:{tmp_path}", 2)
        assert isinstance(on_disk, LogStructuredEngine)
        on_disk.close()

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            make_engine("flash", 2)
        with pytest.raises(ConfigurationError, match="directory path"):
            make_engine("dir:", 2)
        with pytest.raises(ConfigurationError):
            make_engine(lambda n: MemoryEngine(n), 2)
        with pytest.raises(ConfigurationError):
            make_engine(42, 2)

    def test_abstract_engine_validates_population(self):
        with pytest.raises(ConfigurationError):
            MemoryEngine(0)
        assert issubclass(LogStructuredEngine, StorageEngine)


# --------------------------------------------------------------------- #
# The fault axis end to end
# --------------------------------------------------------------------- #


class TestServerCrashRecovery:
    def _system(self, storage="log", **kwargs):
        return open_system(
            SystemConfig(num_clients=2, seed=5, storage=storage, **kwargs),
            backend="ustor",
        )

    def test_honest_outage_is_invisible_with_log_engine(self):
        system = self._system()
        system.faults.add(Fault("down", None, 5.0, 10.0))
        done = []
        alice, bob = system.clients
        alice.write(b"before", done.append)
        system.run(until=4.5)
        alice.write(b"during-outage", done.append)  # held by the channel
        system.run(until=40.0)
        bob.read(0, done.append)
        system.run(until=60.0)
        assert [o.timestamp for o in done[:2]] == [1, 2]
        assert done[2].value == b"during-outage"
        server = system.server
        assert server.restarts == 1
        assert encode_server_state(server.last_pre_crash_state) == (
            encode_server_state(server.last_recovery_state)
        )
        assert not any(c.failed for c in system.clients)

    def test_memory_engine_restart_is_amnesia(self):
        system = self._system(storage="memory")
        done = []
        system.clients[0].write(b"will-be-forgotten", done.append)
        system.run(until=10.0)
        system.faults.add(Fault("down", None, 10.0, 5.0))
        system.run(until=20.0)
        assert system.server.state == ServerState.initial(2)
        # The writer's next operation meets a server that forgot it: the
        # version check of Algorithm 1 line 36 fires.
        system.clients[0].write(b"after", lambda _o: None)
        system.run(until=40.0)
        assert system.clients[0].failed
        assert "line 36" in system.clients[0].fail_reason

    def test_restart_is_noop_when_not_crashed(self):
        system = self._system()
        system.server.restart()
        assert system.server.restarts == 0

    def test_repeated_outages(self):
        system = self._system()
        system.faults.add(Fault("down", None, 5.0, 5.0))
        system.faults.add(Fault("down", None, 20.0, 5.0))
        done = []
        for k in range(4):
            system.clients[0].write(b"w%d" % k, done.append)
            system.run(until=(k + 1) * 8.0)
        system.run(until=60.0)
        assert len(done) == 4
        assert system.server.restarts == 2
        assert not system.clients[0].failed

    def test_server_churn_composes_with_client_churn(self):
        system = open_system(
            SystemConfig(
                num_clients=3,
                seed=8,
                storage="log",
                faust=FaustParams(
                    dummy_read_period=4.0, probe_check_period=6.0, delta=30.0
                ),
            ),
        )
        system.faults.add(Fault("away", 2, 10.0, 25.0))
        outage = system.faults.add(Fault("down", None, 18.0, 12.0))
        done = []
        system.clients[0].write(b"survives-both", done.append)
        system.run(until=300.0)
        assert done and outage.end == 30.0
        assert system.server.restarts == 1
        assert not any(c.failed for c in system.clients)

    def test_server_outage_validation(self):
        with pytest.raises(Exception):
            Fault("down", None, 5.0, 0.0)
        with pytest.raises(ValueError):
            Fault("down", None, 1.0, -2.0)
        system = open_system(SystemConfig(num_clients=2, seed=1))
        system.faults.add(Fault("down", None, 10.0, 10.0))
        with pytest.raises(ValueError, match="overlap"):
            system.faults.add(Fault("down", None, 15.0, 2.0))

    def test_random_server_outages_never_overlap(self):
        system = open_system(SystemConfig(num_clients=2, seed=13, storage="log"))
        added = [
            system.faults.add(fault)
            for fault in plan_windows(system.scheduler.rng, "down", 12, 200.0, 15.0)
            if system.faults.conflict(fault) is None
        ]
        windows = sorted(added, key=lambda w: w.start)
        assert windows  # some draws always land
        for a, b in zip(windows, windows[1:]):
            assert a.end <= b.start
