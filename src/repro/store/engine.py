"""Pluggable server storage engines: volatile, or WAL + snapshots.

The paper specifies the server (Algorithm 2) as volatile state; a
production untrusted store must persist it, and *how* it persists it is a
new attack surface — a server that restarts from a stale checkpoint
mounts a rollback/fork attack that fail-aware clients detect.  This
module gives the server a durability axis:

* :class:`MemoryEngine` — the paper's volatile server.  Nothing survives
  a crash; a restarted server comes back empty-handed (which honest
  clients detect exactly like a rollback-to-zero).
* :class:`LogStructuredEngine` — an append-only write-ahead log of state
  transitions (the SUBMIT/COMMIT messages, which are the *only* inputs
  that mutate ``ServerState``) plus periodic snapshots.  Recovery loads
  the latest snapshot and replays the WAL suffix; because
  :func:`~repro.ustor.server.apply_submit` and
  :func:`~repro.ustor.server.apply_commit` are pure state-machine
  functions, replay reproduces the pre-crash state byte-for-byte.

WAL framing: each record is ``len(4B BE) || crc32(4B BE) || payload``.
A torn tail (partial header, partial payload, or CRC mismatch — the
expected artifact of crashing mid-append) silently ends replay; a corrupt
*snapshot* raises :class:`StorageError`, because snapshots are replaced
atomically and must never be half-present, and so does any frame that
passes its CRC yet does not decode to a record of this build's
shape — a crash cannot produce one, a build with another format does.
Group commit (:meth:`StorageEngine.log_records`, driven by the server's
batched wakeups) packs a whole drain's transitions into **one** frame — a
single append, a single commit point, torn-tail atomicity for the batch.

Compaction is driven by two signals: a plain record-count threshold
(``snapshot_interval``) and the COMMIT/GC signal — when a COMMIT prunes
the pending list (Section 5's garbage collection), the state is at its
smallest, so the engine checkpoints at the lower
``gc_snapshot_interval`` threshold.  A checkpoint atomically replaces the
snapshot and truncates the WAL.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from typing import Callable, Iterator

from repro.common.errors import (
    ConfigurationError,
    EncodingError,
    ProtocolError,
    StorageError,
)
from repro.common.types import ClientId
from repro.obs.registry import SIZE_BUCKETS, get_registry
from repro.store.codec import (
    decode_payload,
    encode_snapshot,
    encode_wal_record,
    snapshot_from_tuple,
    wal_entries_from_tuple,
    wal_entry_to_tuple,
)
from repro.store.media import DirectoryMedium, InMemoryMedium, Medium
from repro.ustor.messages import CommitMessage, SubmitMessage
from repro.ustor.server import (
    ServerState,
    UstorServer,
    apply_checkpoint,
    apply_commit,
    apply_submit,
)

_FRAME_HEADER_BYTES = 8  # 4-byte length + 4-byte crc32


def frame_record(payload: bytes) -> bytes:
    """Wrap a payload in the WAL frame: length, CRC, payload."""
    return (
        len(payload).to_bytes(4, "big")
        + zlib.crc32(payload).to_bytes(4, "big")
        + payload
    )


def iter_frames(data: bytes) -> Iterator[bytes]:
    """Yield framed payloads; stop silently at a torn or corrupt tail."""
    offset = 0
    total = len(data)
    while offset < total:
        if offset + _FRAME_HEADER_BYTES > total:
            return  # torn header
        length = int.from_bytes(data[offset : offset + 4], "big")
        crc = int.from_bytes(data[offset + 4 : offset + 8], "big")
        end = offset + _FRAME_HEADER_BYTES + length
        if end > total:
            return  # torn payload
        payload = data[offset + _FRAME_HEADER_BYTES : end]
        if zlib.crc32(payload) != crc:
            return  # corrupt tail
        yield payload
        offset = end


def _decode_record(payload: bytes, what: str, parse: Callable):
    """``parse`` of the record inside a CRC-valid frame.  A crash tears a
    frame, and the CRC catches that; a whole frame that does not decode,
    or decodes to a record of the wrong shape, was written in another
    format — say so, rather than replay it as nothing or crash on it."""
    try:
        return parse(decode_payload(payload)[0])
    except EncodingError as exc:
        raise StorageError(
            f"{what} passes its CRC but does not decode ({exc}): not written "
            f"in this build's format (older builds differ in length fields "
            f"and record shapes); old data is not migrated"
        ) from exc


class StorageEngine(ABC):
    """Durability contract between :class:`~repro.ustor.server.UstorServer`
    and its storage.

    The server calls :meth:`recover` once at construction and again on
    every restart; it calls :meth:`log_records` *before* externalizing the
    corresponding REPLYs (write-ahead discipline), and
    :meth:`maybe_checkpoint` after each applied transition.
    """

    name: str = "abstract"
    #: Does state survive a crash/restart cycle?
    durable: bool = False

    def __init__(self, num_clients: int) -> None:
        if num_clients < 1:
            raise ConfigurationError("need at least one client")
        self._n = num_clients

    @property
    def num_clients(self) -> int:
        return self._n

    @abstractmethod
    def recover(self, replay_wal: bool = True) -> ServerState:
        """The state to serve from: initial on first boot, reconstructed
        from durable storage after a crash.  ``replay_wal=False`` restores
        the latest snapshot *without* the WAL suffix — the honest engine
        never does this; the rollback adversary's whole attack is doing
        exactly this."""

    @abstractmethod
    def log_records(self, records: list[tuple]) -> None:
        """Record transitions before any of their REPLYs leave the server.

        ``records`` are ``("S", submit_message)`` / ``("C", client,
        commit_message)`` / ``("K", cut)`` tuples in application order:
        one, or a group-commit batch, which an engine that can makes
        durable in a single write carrying one commit point.
        """

    def log_submit(self, message: SubmitMessage) -> None:
        """Record a SUBMIT transition before its REPLY leaves the server."""
        self.log_records([("S", message)])

    def log_commit(self, client: ClientId, message: CommitMessage) -> None:
        """Record a COMMIT transition."""
        self.log_records([("C", client, message)])

    def log_checkpoint(self, cut: tuple[int, ...]) -> None:
        """Record an authenticated-checkpoint cut; the server compacts
        right after, so the record only matters if a crash lands in
        between."""
        self.log_records([("K", cut)])

    def maybe_checkpoint(self, state: ServerState, gc_advanced: bool = False) -> None:
        """Checkpoint if the engine's policy says so; ``gc_advanced`` marks
        transitions where COMMIT pruned the pending list."""

    def checkpoint(self, state: ServerState) -> None:
        """Force a snapshot of ``state`` and compact the log."""

    def close(self) -> None:
        """Release what the engine holds open; durable contents stay."""


class MemoryEngine(StorageEngine):
    """The paper's volatile server: nothing is ever persisted."""

    name = "memory"
    durable = False

    def recover(self, replay_wal: bool = True) -> ServerState:
        return ServerState.initial(self._n)

    def log_records(self, records: list[tuple]) -> None:
        pass


class LogStructuredEngine(StorageEngine):
    """WAL + snapshot persistence over a :class:`Medium`."""

    name = "log"
    durable = True

    WAL = "wal"
    SNAPSHOT = "snapshot"

    def __init__(
        self,
        num_clients: int,
        medium: Medium | None = None,
        snapshot_interval: int = 64,
        gc_snapshot_interval: int | None = None,
    ) -> None:
        super().__init__(num_clients)
        if snapshot_interval < 1:
            raise ConfigurationError("snapshot_interval must be at least 1")
        if gc_snapshot_interval is not None and gc_snapshot_interval < 1:
            raise ConfigurationError("gc_snapshot_interval must be at least 1")
        self.medium = medium if medium is not None else InMemoryMedium()
        self.snapshot_interval = snapshot_interval
        self.gc_snapshot_interval = gc_snapshot_interval or max(
            1, snapshot_interval // 2
        )
        #: Sequence number of the last appended record (monotone across
        #: recoveries; snapshots store the sequence they cover).
        self._seq = 0
        self._records_since_checkpoint = 0
        # -- instrumentation for benchmarks/experiments -------------------
        self.wal_appends = 0
        self.wal_bytes_written = 0
        self.snapshots_taken = 0
        self.last_snapshot_bytes = 0
        self.last_recovery_replayed = 0
        self.group_commit_batches = 0
        self.group_commit_records = 0
        self._obs_wal_frame_bytes = get_registry().histogram(
            "store.wal_frame_bytes", SIZE_BUCKETS
        )

    # ---------------------------------------------------------------- #
    # Logging
    # ---------------------------------------------------------------- #

    def log_records(self, records: list[tuple]) -> None:
        """Group commit: the whole batch as ONE framed append (a lone
        record is framed as itself, without batch overhead).

        Every record keeps its own sequence number (recovery stays
        per-transition idempotent across snapshots), but durability is
        all-or-nothing: either the full batch survives a crash or none of
        it does — exactly the unbatched guarantee, since no REPLY covered
        by the batch leaves the server before this append returns.
        """
        if not records:
            return
        entries = []
        for record in records:
            self._seq += 1
            entries.append(wal_entry_to_tuple(self._seq, record))
        self._append(encode_wal_record(entries), records=len(entries))
        if len(entries) > 1:
            self.group_commit_batches += 1
            self.group_commit_records += len(entries)

    def _append(self, payload: bytes, records: int = 1) -> None:
        framed = frame_record(payload)
        self.medium.append(self.WAL, framed)
        self.wal_appends += 1
        self.wal_bytes_written += len(framed)
        self._obs_wal_frame_bytes.observe(len(framed))
        self._records_since_checkpoint += records

    # ---------------------------------------------------------------- #
    # Checkpoints / compaction
    # ---------------------------------------------------------------- #

    @property
    def records_since_checkpoint(self) -> int:
        return self._records_since_checkpoint

    def maybe_checkpoint(self, state: ServerState, gc_advanced: bool = False) -> None:
        threshold = (
            self.gc_snapshot_interval if gc_advanced else self.snapshot_interval
        )
        if self._records_since_checkpoint >= threshold:
            self.checkpoint(state)

    def checkpoint(self, state: ServerState) -> None:
        payload = encode_snapshot(self._seq, state)
        self.medium.write_atomic(self.SNAPSHOT, frame_record(payload))
        # Compaction: every WAL record is now covered by the snapshot.  A
        # crash before the truncate leaves entries with seq <= covered,
        # which recover() skips.
        self.medium.truncate(self.WAL)
        self._records_since_checkpoint = 0
        self.snapshots_taken += 1
        self.last_snapshot_bytes = len(payload)

    def close(self) -> None:
        self.medium.close()

    # ---------------------------------------------------------------- #
    # Recovery
    # ---------------------------------------------------------------- #

    def recover(self, replay_wal: bool = True) -> ServerState:
        state, covered = self._load_snapshot()
        self._seq = covered
        replayed = 0
        if replay_wal:
            data = self.medium.read(self.WAL)
            frames = list(iter_frames(data))
            for index, payload in enumerate(frames):
                what = f"WAL frame {index}"
                # A group-commit frame carries several entries; a plain
                # frame is its own single entry.
                for entry in _decode_record(payload, what, wal_entries_from_tuple):
                    tag, seq = entry[0], entry[1]
                    if seq <= covered:
                        # Crash landed between snapshot write and WAL
                        # truncate: the entry is already in the snapshot.
                        continue
                    try:
                        if tag == "S":
                            apply_submit(state, entry[2])
                        elif tag == "C":
                            apply_commit(state, entry[2], entry[3])
                        else:
                            apply_checkpoint(state, entry[2])
                    except ProtocolError as exc:
                        raise StorageError(
                            f"{what} does not apply to the recovered state "
                            f"({exc}): written for another deployment"
                        ) from exc
                    self._seq = seq
                    replayed += 1
            valid_end = sum(_FRAME_HEADER_BYTES + len(p) for p in frames)
            if valid_end < len(data):
                # Trim the torn tail now: appends after this recovery must
                # not be stranded behind corrupt bytes, where the *next*
                # recovery's replay would silently stop short of them.
                self.medium.write_atomic(self.WAL, data[:valid_end])
            self._records_since_checkpoint = replayed
        else:
            # Deliberately forget the suffix (rollback semantics): truncate
            # so future appends cannot interleave with discarded history.
            self.medium.truncate(self.WAL)
            self._records_since_checkpoint = 0
        self.last_recovery_replayed = replayed
        return state

    def _load_snapshot(self) -> tuple[ServerState, int]:
        data = self.medium.read(self.SNAPSHOT)
        if not data:
            return ServerState.initial(self._n), 0
        frames = list(iter_frames(data))
        if len(frames) != 1:
            raise StorageError(
                "corrupt snapshot: snapshots are written atomically and must "
                "contain exactly one valid frame"
            )
        state, covered = _decode_record(frames[0], "snapshot", snapshot_from_tuple)
        if state.num_clients != self._n:
            raise StorageError(
                f"snapshot holds a {state.num_clients}-client state; this "
                f"engine serves {self._n} clients"
            )
        return state, covered


#: Engine classes by the name ``SystemConfig.storage`` selects.
ENGINES: dict[str, type[StorageEngine]] = {
    MemoryEngine.name: MemoryEngine,
    LogStructuredEngine.name: LogStructuredEngine,
}

def make_engine(
    spec: str | StorageEngine | Callable[[int], StorageEngine],
    num_clients: int,
) -> StorageEngine:
    """Resolve a storage spec: an engine name (``"memory"`` / ``"log"``),
    ``"dir:<path>"`` (the log engine over real files in ``<path>`` — the
    form server *processes* use, since their state must outlive them), an
    engine instance (passed through), or a factory ``f(num_clients)``."""
    if isinstance(spec, StorageEngine):
        return spec
    if isinstance(spec, str):
        if spec.startswith("dir:"):
            path = spec[len("dir:"):]
            if not path:
                raise ConfigurationError(
                    "the 'dir:' storage spec needs a directory path, "
                    "e.g. 'dir:/var/lib/faust'"
                )
            return LogStructuredEngine(num_clients, medium=DirectoryMedium(path))
        try:
            cls = ENGINES[spec]
        except KeyError:
            raise ConfigurationError(
                f"unknown storage engine {spec!r}; choose from {sorted(ENGINES)}"
            ) from None
        return cls(num_clients)
    if callable(spec):
        engine = spec(num_clients)
        if not isinstance(engine, StorageEngine):
            raise ConfigurationError(
                f"storage factory returned {type(engine).__name__}, "
                f"not a StorageEngine"
            )
        return engine
    raise ConfigurationError(f"cannot interpret storage spec {spec!r}")


def make_server(
    num_clients: int,
    name: str,
    *,
    factory: Callable[[int, str], UstorServer] | None = None,
    storage: str | StorageEngine | Callable[[int], StorageEngine] = "memory",
    group_commit: bool = False,
    counter: str | None = None,
    counter_state_path: str | None = None,
):
    """The server of one deployment slot, simulated or behind a TCP host:
    ``factory``'s when given (a custom server owns its durability), else
    the correct :class:`UstorServer` on the engine ``storage`` selects —
    with the slot's trusted monotonic counter attached when ``counter``
    (``"volatile"``/``"durable"``) asks for one."""
    if factory is not None:
        server = factory(num_clients, name)
    else:
        server = UstorServer(
            num_clients,
            name=name,
            engine=make_engine(storage, num_clients),
            group_commit=group_commit,
        )
    if counter is not None:
        from repro.replica.counter import MonotonicCounter

        server.attach_counter(
            MonotonicCounter(
                name, durable=counter == "durable", state_path=counter_state_path
            )
        )
    return server
