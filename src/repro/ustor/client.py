"""USTOR client — Algorithm 1 of the paper, line by line.

The client executes one operation at a time (another invoked meanwhile
waits in :class:`~repro.sim.process.ClientNode`'s queue): it sends a
SUBMIT message, waits for the server's REPLY, runs ``updateVersion`` (and,
for reads, ``checkData``), sends an asynchronous COMMIT and returns.  Every
check in the two procedures carries the line number of Algorithm 1 it
implements.

If any check fails the client **outputs fail_i and halts** — at this layer
a detection is terminal; FAUST (Section 6) turns it into system-wide
failure notifications.

Five liberties are taken, all documented in DESIGN.md:

* ``x_bar_i`` (the hash of the last written value) is initialised to
  ``H(BOTTOM)`` rather than the literal ``BOTTOM`` so that line 50's check
  ``verify_j(delta_j, DATA || t_j || H(x_j))`` also succeeds for clients
  that read before ever writing; the paper elides this bootstrapping.
* In *piggyback mode* the COMMIT message rides on the next SUBMIT
  (Section 5: "this message can be eliminated by piggybacking its contents
  on the SUBMIT message of the next operation"); experiment E10 measures
  the garbage-collection cost of doing so.
* The COMMIT to a lone server carries ``t`` in place of ``(V_i, M_i)``:
  the server folds the version from the REPLY it sent
  (:func:`~repro.ustor.version.fold_version`, the one implementation of
  lines 37-47); a replica group still receives the version.
* A REPLY's versions travel as their differences from this client's
  own committed version (a back-reference when they are that version);
  the client restores the full REPLY
  (:meth:`~repro.ustor.messages.ReplyMessage.restored`) before any check
  reads it.
* A read whose value will not be used (FAUST's dummy read) asks for
  ``MEM[j]`` in digest form: line 50 checks the DATA-signature over the
  carried ``H(x_j)``, and the history records that digest — what it
  records for the write of ``x_j`` too
  (:class:`~repro.history.recorder.HistoryRecorder`).  A user read that
  is answered with only a digest fails.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from typing import Callable

from repro.common.errors import ProtocolError
from repro.common.types import (
    BOTTOM,
    Bottom,
    ClientId,
    OpKind,
    RegisterId,
    Value,
    ValueDigest,
    client_name,
)
from repro.crypto.hashing import hash_register_value
from repro.crypto.keystore import ClientSigner
from repro.history.recorder import HistoryRecorder
from repro.sim.process import ClientNode
from repro.ustor.messages import (
    CommitMessage,
    InvocationTuple,
    ReplyMessage,
    SignedVersion,
    SubmitMessage,
)
from repro.ustor.version import Version, fold_version


@dataclass(frozen=True)
class OpOutcome:
    """What an extended operation returns (lines 20 and 33).

    ``version`` is the version this operation committed; ``reader_version``
    is the writer's version ``(V_j, M_j)`` for reads (``None`` for writes).
    ``value`` is a :class:`~repro.common.types.ValueDigest` for a read
    answered with only the value's digest.
    ``timestamp`` is the operation's timestamp ``t`` — the value FAUST
    reports to the application (Definition 5, Integrity).
    """

    kind: OpKind
    register: RegisterId
    value: Value | Bottom | ValueDigest
    timestamp: int
    version: Version
    reader_version: Version | None


@dataclass(frozen=True)
class ViewHistoryRecord:
    """Analysis-side record of how this operation extended the view history.

    ``VH(o) = VH(o_c) || omega_1..omega_m || o`` — ``parent`` identifies
    ``o_c`` as ``(c, V^c[c])``, ``concurrent`` lists the ``omega`` operations
    from ``L`` as ``(client, assigned timestamp)`` pairs, ``own`` identifies
    ``o`` itself.  The analysis layer replays these records to rebuild exact
    view histories and feed them to the weak-fork-linearizability validator.
    """

    parent: tuple[ClientId, int] | None
    concurrent: tuple[tuple[ClientId, int], ...]
    own: tuple[ClientId, int]


class ViewHistoryLog(Mapping[tuple[ClientId, int], ViewHistoryRecord]):
    """One client's view-history records (:class:`ViewHistoryRecord`), packed.

    Own timestamps are consecutive (line 12: ``t = V_i[i] + 1``), so the
    record of ``(i, t)`` is found by ``t - first``: ``_starts`` holds
    where its cells begin in ``_cells`` — ``parent_c``, ``parent_t``
    (``-1, 0`` for no parent), then the flat ``k, t`` pairs of ``L``.
    A record is built only when a reader looks it up.
    """

    __slots__ = ("_client", "_first", "_starts", "_cells")

    def __init__(self, client: ClientId) -> None:
        self._client = client
        self._first = 1  # the timestamp of _starts[0]
        self._starts = array("q")
        self._cells = array("q")

    def add(
        self, t: int, parent: tuple[ClientId, int] | None, concurrent: list[int]
    ) -> None:
        """Append the record of my operation ``t``; ``concurrent`` is the
        flat ``k, t`` pairs of ``L`` in order."""
        if t != self._first + len(self._starts):
            raise ProtocolError(
                f"view-history record for timestamp {t} out of order "
                f"(next is {self._first + len(self._starts)})"
            )
        cells = self._cells
        self._starts.append(len(cells))
        cells.extend((-1, 0) if parent is None else parent)
        cells.extend(concurrent)

    def trim(self, floor: int) -> None:
        """Drop the records of my timestamps up to ``floor``."""
        drop = min(floor - self._first + 1, len(self._starts))
        if drop <= 0:
            return
        starts = self._starts
        base = starts[drop] if drop < len(starts) else len(self._cells)
        del self._cells[:base]
        self._starts = array("q", [start - base for start in starts[drop:]])
        self._first += drop

    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self) -> Iterator[tuple[ClientId, int]]:
        client = self._client
        for t in range(self._first, self._first + len(self._starts)):
            yield (client, t)

    def __contains__(self, key: object) -> bool:
        return (
            type(key) is tuple
            and len(key) == 2
            and key[0] == self._client
            and 0 <= key[1] - self._first < len(self._starts)
        )

    def __getitem__(self, key: tuple[ClientId, int]) -> ViewHistoryRecord:
        if key not in self:
            raise KeyError(key)
        index = key[1] - self._first
        starts, cells = self._starts, self._cells
        start = starts[index]
        end = starts[index + 1] if index + 1 < len(starts) else len(cells)
        parent_c = cells[start]
        flat = iter(cells[start + 2 : end])
        return ViewHistoryRecord(
            parent=None if parent_c < 0 else (parent_c, cells[start + 1]),
            concurrent=tuple(zip(flat, flat)),
            own=(self._client, key[1]),
        )


class _PendingInvocation:
    __slots__ = (
        "kind", "register", "timestamp", "value", "op_id", "callback",
        "digest_only", "value_hash",
    )

    def __init__(self, kind, register, timestamp, value, op_id, callback, digest_only):
        self.kind = kind
        self.register = register
        self.timestamp = timestamp
        self.value = value
        self.op_id = op_id
        self.callback = callback
        self.digest_only = digest_only
        #: ``H(x)`` of the value this operation wrote (line 13) or read
        #: (line 50), for the recorder.
        self.value_hash: bytes | None = None


class UstorClient(ClientNode):
    """State and code of client ``C_i`` (Algorithm 1)."""

    def __init__(
        self,
        client_id: ClientId,
        num_clients: int,
        signer: ClientSigner,
        server_name: str = "S",
        recorder: HistoryRecorder | None = None,
        commit_piggyback: bool = False,
        replica_servers: tuple | None = None,
        quorum: int | None = None,
        counter: bool = False,
    ) -> None:
        super().__init__(client_id, num_clients)
        if signer.client != client_id:
            raise ProtocolError("signer is bound to a different client id")
        self._signer = signer
        self._server = server_name
        # -- replica group (repro.replica; None/1-tuple = the paper's
        #    single server, every broadcast collapsing to one send) ------
        if replica_servers is not None and len(replica_servers) > 1:
            from repro.replica.coordinator import QuorumCoordinator
            from repro.replica.counter import CounterVerifier

            self._server = replica_servers[0]
            self.quorum_coordinator = QuorumCoordinator(
                tuple(replica_servers),
                quorum=quorum,
                verifier=CounterVerifier() if counter else None,
                on_convict=self._on_replica_convicted,
            )
            self._counter_verifier = None
        else:
            if replica_servers:
                self._server = replica_servers[0]
            self.quorum_coordinator = None
            if counter:
                from repro.replica.counter import CounterVerifier

                self._counter_verifier = CounterVerifier()
            else:
                self._counter_verifier = None
        self._pending_binding: bytes | None = None
        self._recorder = recorder
        self._piggyback = commit_piggyback
        #: Optional hook fed each quorum-resolved REPLY (the winner the
        #: protocol engine actually consumes).  The TCP wire trace uses
        #: it: with a replica group, raw per-replica arrivals are not the
        #: client's logical input stream — the resolved stream is.
        self.resolved_reply_hook: Callable | None = None

        # -- Algorithm 1 state (lines 5-7) --------------------------------
        self._last_write_hash = hash_register_value(BOTTOM)  # x_bar_i
        self._version = Version.zero(num_clients)  # (V_i, M_i)
        self._zero = self._version  # immutable, reused by every check below
        #: ``(V_i, M_i, phi)`` as last committed: the base a relative
        #: REPLY is restored against (:meth:`ReplyMessage.restored`).
        self._committed = SignedVersion(self._version, None)

        # -- bookkeeping ---------------------------------------------------
        self._pending: _PendingInvocation | None = None
        self._deferred_commit: CommitMessage | None = None
        self.vh_records = ViewHistoryLog(client_id)
        self.completed_operations = 0

    # ---------------------------------------------------------------- #
    # Introspection
    # ---------------------------------------------------------------- #

    @property
    def version(self) -> Version:
        """The client's current version ``(V_i, M_i)``."""
        return self._version

    @property
    def busy(self) -> bool:
        return self._pending is not None

    # ---------------------------------------------------------------- #
    # Operations (lines 8-33)
    # ---------------------------------------------------------------- #

    def write(
        self, value: Value, callback: Callable[[OpOutcome], None] | None = None
    ) -> None:
        """``write_i(x)`` — write ``x`` to this client's own register X_i."""
        self._enqueue(OpKind.WRITE, self._id, value, callback)

    def read(
        self,
        register: RegisterId,
        callback: Callable[[OpOutcome], None] | None = None,
    ) -> None:
        """``read_i(j)`` — read register ``X_j`` (any register)."""
        self._enqueue(OpKind.READ, register, None, callback)

    def _invoke(self, kind, register, value, callback, digest_only=False) -> None:
        """Start an operation; ``digest_only`` marks a read whose value
        will not be used, answered with ``MEM[j]`` in digest form."""
        if self._pending is not None:
            raise ProtocolError(
                f"{self.name} already has an operation in progress (well-formed "
                f"executions are sequential per client)"
            )

        t = self._version.vector[self._id] + 1  # line 12 / 25
        if kind is OpKind.WRITE:
            self._last_write_hash = hash_register_value(value)  # line 13

        # lines 14 / 26: SUBMIT- and DATA-signatures
        submit_sig = self._signer.sign("SUBMIT", kind, register, t)
        data_sig = self._signer.sign("DATA", t, self._last_write_hash)

        op_id = None
        if self._recorder is not None:
            op_id = self._recorder.begin(
                client=self._id,
                kind=kind,
                register=register,
                invoked_at=self.now,
                value=value,
                timestamp=t,
                value_hash=self._last_write_hash if kind is OpKind.WRITE else None,
            )
        self._pending = _PendingInvocation(
            kind, register, t, value, op_id, callback, digest_only
        )

        message = SubmitMessage(
            timestamp=t,
            invocation=InvocationTuple(
                client=self._id, opcode=kind, register=register, submit_sig=submit_sig
            ),
            value=value if kind is OpKind.WRITE else None,
            data_sig=data_sig,
            piggyback=self._take_deferred_commit(),
            digest_only=digest_only,
        )
        self._pending_binding = submit_sig
        if self.quorum_coordinator is not None:
            self.quorum_coordinator.begin_round(
                kind is OpKind.READ, submit_sig, self._committed, digest_only
            )
        self._send_server(message)  # line 15 / 27

    def _send_server(self, message) -> None:
        """Send to the server — broadcast to the group when replicated."""
        if self.quorum_coordinator is not None:
            self.send_multi(self.quorum_coordinator.targets(), message)
        else:
            self.send(self._server, message)

    def _on_replica_convicted(self, replica: str, violation: str) -> None:
        trace = getattr(self.network, "trace", None)
        if trace is not None:
            trace.note(
                self.now, self.name, "replica-convicted", (replica, violation)
            )

    def _take_deferred_commit(self) -> CommitMessage | None:
        deferred = self._deferred_commit
        self._deferred_commit = None
        return deferred

    # ---------------------------------------------------------------- #
    # REPLY handling (lines 16-20 / 28-33)
    # ---------------------------------------------------------------- #

    def on_message(self, src: str, message) -> None:
        if self._failed:
            return  # halted (line 35ff: "output fail_i; halt")
        if not isinstance(message, ReplyMessage):
            return
        if self.quorum_coordinator is not None:
            resolved = self.quorum_coordinator.absorb(src, message)
            if resolved is None:
                return  # round unresolved, straggler, or convict noise
            if isinstance(resolved, str):
                self._fail(resolved)
                return
            # The quorum winner (restored, attestation stripped) flows
            # into the unchanged Algorithm 1 checks below.
            message = resolved
            if self.resolved_reply_hook is not None:
                self.resolved_reply_hook(message)
        else:
            message = message.restored(self._committed)
        if self._pending is None:
            # A correct server sends exactly one REPLY per SUBMIT over a
            # FIFO channel; an unsolicited REPLY is ignored defensively.
            return
        if self._counter_verifier is not None:
            violation = self._counter_verifier.check(
                src, message, self._pending_binding
            )
            if violation is not None:
                self._fail(f"counter violation from {src}: {violation}")
                return
        pending = self._pending

        if not self._update_version(message):  # line 17 / 29
            return
        if pending.kind is OpKind.READ:
            if not self._check_data(message, pending):  # line 30
                return

        # lines 18-19 / 31-32: COMMIT- and PROOF-signatures, COMMIT message
        commit_sig = self._signer.sign(
            "COMMIT", self._version.vector, self._version.digests
        )
        proof_sig = self._signer.sign("PROOF", self._version.digests[self._id])
        self._committed = SignedVersion(self._version, commit_sig)
        # A lone server folds (V_i, M_i) from the REPLY it sent (DESIGN.md,
        # "Protocol liberties"), so its COMMIT carries t in their place.
        # A replica group gets the version: the broadcast doubles as the
        # write-back after a read-repair resolution, and a replica whose
        # REPLY lost the vote cannot fold what this client folded.
        if self.quorum_coordinator is None:
            commit = CommitMessage(None, commit_sig, proof_sig, pending.timestamp)
        else:
            commit = CommitMessage(self._version, commit_sig, proof_sig)
        if self._piggyback:
            self._deferred_commit = commit
        else:
            self._send_server(commit)

        # Return from the operation.
        self._pending = None
        self.completed_operations += 1
        returned_value: Value | Bottom | ValueDigest
        reader_version: Version | None
        if pending.kind is OpKind.READ:
            mem, reader = message.mem, message.reader_version
            assert mem is not None and reader is not None
            returned_value = mem.value
            reader_version = reader.version
        else:
            returned_value = pending.value
            reader_version = None
        if self._recorder is not None and pending.op_id is not None:
            self._recorder.end(
                pending.op_id,
                responded_at=self.now,
                value=returned_value,
                timestamp=pending.timestamp,
                value_hash=pending.value_hash,
            )
        outcome = OpOutcome(
            kind=pending.kind,
            register=pending.register,
            value=returned_value,
            timestamp=pending.timestamp,
            version=self._version,
            reader_version=reader_version,
        )
        if pending.callback is not None:
            pending.callback(outcome)

    # ---------------------------------------------------------------- #
    # procedure updateVersion (lines 34-47)
    # ---------------------------------------------------------------- #

    def _update_version(self, reply: ReplyMessage) -> bool:
        n = self._n
        i = self._id
        zero = self._zero

        c = reply.commit_index
        if not 0 <= c < n:
            return self._fail(f"REPLY names an unknown commit index {c}")
        vc = reply.last_version.version
        if vc.num_clients != n or len(reply.proofs) != n:
            return self._fail("REPLY carries malformed vectors")

        # line 35: the last committed version must be zero or properly signed.
        if not (
            vc == zero
            or (
                reply.last_version.commit_sig is not None
                and self._signer.verify(
                    c, reply.last_version.commit_sig, "COMMIT", vc.vector, vc.digests
                )
            )
        ):
            return self._fail("COMMIT-signature on (V^c, M^c) invalid (line 35)")

        # line 36: own version must be <= (V^c, M^c), and V^c may not count
        # operations of C_i beyond those C_i itself performed.
        if not (self._version.le(vc) and vc.vector[i] == self._version.vector[i]):
            return self._fail(
                "server presented a version inconsistent with mine (line 36)"
            )

        # lines 37-47: fold L and my own operation into (V^c, M^c), with
        # the signature checks of lines 41 and 43 on each entry of L.
        concurrent: list[int] = []  # the flat k, t pairs of L
        signer = self._signer
        proofs = reply.proofs

        def check(entry, vector, digests) -> bool:
            k = entry.client
            if not 0 <= k < n:
                return self._fail(f"invocation tuple names unknown client {k}")
            # line 41: the PROOF-signature must cover C_k's previous operation.
            if not (
                digests[k] is None
                or (
                    proofs[k] is not None
                    and signer.verify(k, proofs[k], "PROOF", digests[k])
                )
            ):
                return self._fail(
                    f"PROOF-signature for {client_name(k)} missing/invalid (line 41)"
                )
            # line 43: no concurrent operation with myself; SUBMIT-signature
            # must match the timestamp line 42 is about to count.
            t = vector[k] + 1
            if k == i or not signer.verify(
                k, entry.submit_sig, "SUBMIT", entry.opcode, entry.register, t
            ):
                return self._fail(
                    f"SUBMIT-signature for {client_name(k)} invalid (line 43)"
                )
            concurrent.append(k)
            concurrent.append(t)
            return True

        version = fold_version(vc, c, reply.pending, i, check)
        if version is None:
            return False
        self._version = version
        new_vector = version.vector

        assert self._pending is not None
        if new_vector[i] != self._pending.timestamp:
            # The server omitted or injected operations of C_i itself; the
            # line 36 check (V^c[i] = V_i[i]) makes this unreachable, kept
            # as a defensive invariant.
            return self._fail("timestamp drift after updateVersion")

        self.vh_records.add(
            self._pending.timestamp,
            None if vc == zero else (c, vc.vector[c]),
            concurrent,
        )
        return True

    # ---------------------------------------------------------------- #
    # procedure checkData (lines 48-52)
    # ---------------------------------------------------------------- #

    def _check_data(self, reply: ReplyMessage, pending: _PendingInvocation) -> bool:
        n = self._n
        zero = self._zero
        j = pending.register
        if reply.reader_version is None or reply.mem is None:
            return self._fail("read REPLY lacks the register payload")
        if type(reply.mem.value) is ValueDigest and not pending.digest_only:
            return self._fail(
                "read REPLY carries the value's digest, not the value (line 30)"
            )
        vj = reply.reader_version.version
        if vj.num_clients != n:
            return self._fail("reader version has the wrong population size")
        tj = reply.mem.timestamp

        # line 49: the writer's version must be zero or properly signed.
        if not (
            vj == zero
            or (
                reply.reader_version.commit_sig is not None
                and self._signer.verify(
                    j,
                    reply.reader_version.commit_sig,
                    "COMMIT",
                    vj.vector,
                    vj.digests,
                )
            )
        ):
            return self._fail("COMMIT-signature on (V^j, M^j) invalid (line 49)")

        # line 50: the returned value must carry the writer's DATA-signature.
        if tj != 0:
            pending.value_hash = reply.mem.value_hash()
            if reply.mem.data_sig is None or not self._signer.verify(
                j, reply.mem.data_sig, "DATA", tj, pending.value_hash
            ):
                return self._fail("DATA-signature on returned value invalid (line 50)")

        # line 51: writer's version is no newer than the last committed one,
        # and the data is from the writer's most recent operation in my view.
        vc = reply.last_version.version
        if not (vj.le(vc) and tj == self._version.vector[j]):
            return self._fail(
                "returned data is not from the writer's latest operation (line 51)"
            )

        # line 52: the writer's committed version matches the data's
        # timestamp up to the (possibly still in-flight) COMMIT.
        if not (vj.vector[j] == tj or vj.vector[j] == tj - 1):
            return self._fail("writer's version contradicts data timestamp (line 52)")
        return True
