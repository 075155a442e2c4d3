"""A lock-step fork-linearizable storage protocol (the blocking baseline).

This is the classic SUNDR-style design the paper contrasts USTOR against
(Section 1: "in previous protocols concurrent operations by different
clients may block each other, even if the provider is correct"; cf.
Mazieres & Shasha PODC'02, Cachin-Shelat-Shraer PODC'07's lock-step
protocol).  The server serialises *all* operations globally: it answers
one SUBMIT at a time and withholds the next REPLY until the previous
operation's COMMIT has arrived.

Integrity machinery: every operation is a signed descriptor; the global
schedule is committed to by a hash chain over descriptors; every client
replays the full chain (each REPLY carries the descriptors appended since
the client's previous operation), verifies every descriptor signature and
the chain recomputation, and signs the new chain head in its COMMIT.  Two
clients that observe a common operation therefore agree on the *entire*
prefix (collision resistance), which — together with the lock-step
real-time ordering — yields fork-linearizability.

The price is the paper's impossibility in action: a client that crashes
between REPLY and COMMIT wedges the token forever, and even without
crashes every operation waits for all queued predecessors.  The
guarantee is therefore fork-linearizable but blocking (not wait-free).
Experiments E3 and E5 and ``examples/wait_freedom.py`` measure exactly
this against USTOR.  It is no deployment backend: those three build it
with ``build_deployment(config, lockstep_protocol())``
(:func:`repro.api.backends.build_deployment`), which runs it on the
simulator with latency models and a custom server and refuses every
other knob.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.common.errors import ProtocolError
from repro.common.types import (
    BOTTOM,
    Bottom,
    ClientId,
    OpKind,
    RegisterId,
    Value,
)
from repro.crypto.hashing import HASH_BYTES, hash_register_value, hash_values
from repro.crypto.keystore import ClientSigner
from repro.history.recorder import HistoryRecorder
from repro.sim.process import ClientNode, Node
from repro.ustor.messages import INT_BYTES, MARKER_BYTES, SIGNATURE_BYTES


# --------------------------------------------------------------------- #
# Wire format
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class OpDescriptor:
    """A signed description of one operation, the unit of the hash chain."""

    client: ClientId
    kind: OpKind
    register: RegisterId
    timestamp: int  # the client's local operation counter
    value_hash: bytes | None  # H(x) for writes, None for reads
    op_sig: bytes  # sign_client("LS-OP", kind, register, t, value_hash)

    def wire_size(self) -> int:
        vh = HASH_BYTES if self.value_hash is not None else MARKER_BYTES
        return 3 * INT_BYTES + MARKER_BYTES + vh + SIGNATURE_BYTES


def chain_extend(chain: bytes | None, descriptor: OpDescriptor) -> bytes:
    """Append a descriptor to the hash chain."""
    return hash_values(
        "LS-CHAIN",
        chain,
        descriptor.client,
        descriptor.kind,
        descriptor.register,
        descriptor.timestamp,
        descriptor.value_hash,
    )


@dataclass(frozen=True)
class LsVersion:
    """A committed global version: sequence number, vector, chain head."""

    seq: int
    vector: tuple[int, ...]
    chain: bytes | None
    committer: ClientId
    commit_sig: bytes | None  # None only for the initial version

    @classmethod
    def initial(cls, num_clients: int) -> "LsVersion":
        return cls(seq=0, vector=(0,) * num_clients, chain=None, committer=0, commit_sig=None)

    def wire_size(self) -> int:
        chain = HASH_BYTES if self.chain is not None else MARKER_BYTES
        sig = SIGNATURE_BYTES if self.commit_sig is not None else MARKER_BYTES
        return 2 * INT_BYTES + INT_BYTES * len(self.vector) + chain + sig


@dataclass(frozen=True)
class LsSubmit:
    descriptor: OpDescriptor
    value: Value | None  # the written value (writes only)
    last_seq: int  # the global seq the client saw after its previous op

    kind = "LS-SUBMIT"

    def wire_size(self) -> int:
        value = len(self.value) if self.value is not None else MARKER_BYTES
        return MARKER_BYTES + self.descriptor.wire_size() + value + INT_BYTES


@dataclass(frozen=True)
class LsReply:
    version: LsVersion
    delta: tuple[OpDescriptor, ...]  # log entries since the client's last op
    #: (value, writer data signature) for reads; None for writes.
    read_value: Value | Bottom | None
    read_data_sig: bytes | None

    kind = "LS-REPLY"

    def wire_size(self) -> int:
        size = MARKER_BYTES + self.version.wire_size()
        size += sum(d.wire_size() for d in self.delta)
        if self.read_value is not None and self.read_value is not BOTTOM:
            size += len(self.read_value)
        else:
            size += MARKER_BYTES
        size += SIGNATURE_BYTES if self.read_data_sig is not None else MARKER_BYTES
        return size


@dataclass(frozen=True)
class LsCommit:
    version: LsVersion

    kind = "LS-COMMIT"

    def wire_size(self) -> int:
        return MARKER_BYTES + self.version.wire_size()


# --------------------------------------------------------------------- #
# Client
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class LsOutcome:
    """Returned by completed lock-step operations."""

    kind: OpKind
    register: RegisterId
    value: Value | Bottom | None
    timestamp: int
    seq: int


class _Pending:
    __slots__ = ("descriptor", "value", "op_id", "callback")

    def __init__(self, descriptor, value, op_id, callback):
        self.descriptor = descriptor
        self.value = value
        self.op_id = op_id
        self.callback = callback


class LockStepClient(ClientNode):
    """Client of the lock-step protocol; replays and verifies the full chain."""

    def __init__(
        self,
        client_id: ClientId,
        num_clients: int,
        signer: ClientSigner,
        server_name: str = "S",
        recorder: HistoryRecorder | None = None,
    ) -> None:
        super().__init__(client_id, num_clients)
        self._signer = signer
        self._server = server_name
        self._recorder = recorder

        self._t = 0  # own operation counter
        self._seq = 0  # global sequence number after my last operation
        self._chain: bytes | None = None
        self._vector = [0] * num_clients
        #: Per-register view derived from the verified chain:
        #: (writer timestamp, value hash) of the latest write, or None.
        self._registers: list[tuple[int, bytes] | None] = [None] * num_clients

        self._pending: _Pending | None = None
        self.completed_operations = 0

    # -- introspection -------------------------------------------------- #

    @property
    def busy(self) -> bool:
        return self._pending is not None

    # -- operations ------------------------------------------------------ #

    def write(self, value: Value, callback=None) -> None:
        self._enqueue(OpKind.WRITE, self._id, value, callback)

    def read(self, register: RegisterId, callback=None) -> None:
        self._enqueue(OpKind.READ, register, None, callback)

    def _invoke(self, kind, register, value, callback) -> None:
        if self._pending is not None:
            raise ProtocolError(f"{self.name} already has an operation in flight")
        t = self._t + 1
        value_hash = hash_register_value(value) if kind is OpKind.WRITE else None
        descriptor = OpDescriptor(
            client=self._id,
            kind=kind,
            register=register,
            timestamp=t,
            value_hash=value_hash,
            op_sig=self._signer.sign("LS-OP", kind, register, t, value_hash),
        )
        op_id = None
        if self._recorder is not None:
            op_id = self._recorder.begin(
                client=self._id,
                kind=kind,
                register=register,
                invoked_at=self.now,
                value=value,
                timestamp=t,
                value_hash=value_hash,
            )
        self._pending = _Pending(descriptor, value, op_id, callback)
        self.send(self._server, LsSubmit(descriptor=descriptor, value=value, last_seq=self._seq))

    # -- REPLY processing -------------------------------------------------- #

    def on_message(self, src: str, message) -> None:
        if self._failed or not isinstance(message, LsReply) or self._pending is None:
            return
        pending = self._pending
        version = message.version

        # 1. The version must be signed by its committer (or be initial).
        if version.seq == 0:
            if version != LsVersion.initial(self._n):
                self._fail("forged initial version")
                return
        elif version.commit_sig is None or not self._signer.verify(
            version.committer,
            version.commit_sig,
            "LS-COMMIT",
            version.seq,
            version.vector,
            version.chain,
        ):
            self._fail("invalid commit signature on version")
            return

        # 2. The delta must connect my last chain state to the new head,
        #    with every descriptor genuinely signed by its client.
        if version.seq != self._seq + len(message.delta):
            self._fail("sequence number does not match delta length")
            return
        chain = self._chain
        vector = list(self._vector)
        registers = list(self._registers)
        for descriptor in message.delta:
            k = descriptor.client
            if not 0 <= k < self._n or k == self._id:
                self._fail("delta contains an impossible operation")
                return
            if not self._signer.verify(
                k,
                descriptor.op_sig,
                "LS-OP",
                descriptor.kind,
                descriptor.register,
                descriptor.timestamp,
                descriptor.value_hash,
            ):
                self._fail("invalid operation signature in delta")
                return
            if descriptor.timestamp != vector[k] + 1:
                self._fail("operation timestamps in delta are not consecutive")
                return
            vector[k] += 1
            if descriptor.kind is OpKind.WRITE:
                assert descriptor.value_hash is not None
                registers[descriptor.register] = (
                    descriptor.timestamp,
                    descriptor.value_hash,
                )
            chain = chain_extend(chain, descriptor)
        if chain != version.chain:
            self._fail("hash chain mismatch — forked or reordered history")
            return
        if tuple(vector) != version.vector or vector[self._id] != self._t:
            self._fail("timestamp vector mismatch")
            return

        # 3. For reads: the returned value must be the chain's latest write.
        returned: Value | Bottom | None = None
        if pending.descriptor.kind is OpKind.READ:
            j = pending.descriptor.register
            expected = registers[j]
            if expected is None:
                if message.read_value is not BOTTOM:
                    self._fail("read returned a value for a never-written register")
                    return
                returned = BOTTOM
            else:
                if message.read_value is None or message.read_value is BOTTOM:
                    self._fail("read returned no value for a written register")
                    return
                if hash_register_value(message.read_value) != expected[1]:
                    self._fail("read value does not match the committed write")
                    return
                returned = message.read_value
        else:
            returned = pending.value

        # 4. Commit: extend the chain with my own operation and sign.
        self._t += 1
        vector[self._id] += 1
        chain = chain_extend(chain, pending.descriptor)
        new_version = LsVersion(
            seq=version.seq + 1,
            vector=tuple(vector),
            chain=chain,
            committer=self._id,
            commit_sig=self._signer.sign(
                "LS-COMMIT", version.seq + 1, tuple(vector), chain
            ),
        )
        self._seq = new_version.seq
        self._chain = chain
        self._vector = vector
        self._registers = registers
        if pending.descriptor.kind is OpKind.WRITE:
            self._registers[self._id] = (self._t, pending.descriptor.value_hash)
        self.send(self._server, LsCommit(version=new_version))

        self._pending = None
        self.completed_operations += 1
        if self._recorder is not None and pending.op_id is not None:
            self._recorder.end(
                pending.op_id, responded_at=self.now, value=returned, timestamp=self._t
            )
        if pending.callback is not None:
            pending.callback(
                LsOutcome(
                    kind=pending.descriptor.kind,
                    register=pending.descriptor.register,
                    value=returned,
                    timestamp=self._t,
                    seq=self._seq,
                )
            )


# --------------------------------------------------------------------- #
# Server
# --------------------------------------------------------------------- #


class LockStepServer(Node):
    """Serialises everything: one outstanding operation system-wide."""

    def __init__(self, num_clients: int, name: str = "S") -> None:
        super().__init__(name=name)
        self._n = num_clients
        self.log: list[OpDescriptor] = []
        self.version = LsVersion.initial(num_clients)
        self.values: list[Value | Bottom] = [BOTTOM] * num_clients
        self._queue: deque[tuple[str, LsSubmit]] = deque()
        self._inflight: tuple[str, LsSubmit] | None = None
        self.submits_handled = 0
        self.max_queue_len = 0

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def blocked(self) -> bool:
        """Is the token held by an operation whose COMMIT has not arrived?"""
        return self._inflight is not None

    def on_message(self, src: str, message) -> None:
        if isinstance(message, LsSubmit):
            self._queue.append((src, message))
            self.max_queue_len = max(self.max_queue_len, len(self._queue))
            self._pump()
        elif isinstance(message, LsCommit):
            self._handle_commit(src, message)

    def _pump(self) -> None:
        if self._inflight is not None or not self._queue:
            return
        src, submit = self._queue.popleft()
        self._inflight = (src, submit)
        self.submits_handled += 1
        delta = tuple(self.log[submit.last_seq :])
        read_value: Value | Bottom | None = None
        if submit.descriptor.kind is OpKind.READ:
            read_value = self.values[submit.descriptor.register]
        self.send(
            src,
            LsReply(
                version=self.version,
                delta=delta,
                read_value=read_value,
                read_data_sig=None,
            ),
        )

    def _handle_commit(self, src: str, message: LsCommit) -> None:
        if self._inflight is None or self._inflight[0] != src:
            return  # stray commit; a correct run never produces one
        _src, submit = self._inflight
        self.log.append(submit.descriptor)
        self.version = message.version
        if submit.descriptor.kind is OpKind.WRITE and submit.value is not None:
            self.values[submit.descriptor.client] = submit.value
        self._inflight = None
        self._pump()


class TamperingLockStepServer(LockStepServer):
    """Serves a corrupted value for reads of ``target_register`` — caught by
    the chain-derived value-hash check, demonstrating that the baseline's
    *integrity* is fine; it is its *liveness* that is fundamentally limited."""

    def __init__(self, num_clients: int, target_register: RegisterId, name: str = "S"):
        super().__init__(num_clients, name)
        self._target = target_register

    def _pump(self) -> None:
        if self._inflight is not None or not self._queue:
            return
        src, submit = self._queue.popleft()
        self._inflight = (src, submit)
        self.submits_handled += 1
        delta = tuple(self.log[submit.last_seq :])
        read_value: Value | Bottom | None = None
        if submit.descriptor.kind is OpKind.READ:
            read_value = self.values[submit.descriptor.register]
            if submit.descriptor.register == self._target and read_value is not BOTTOM:
                read_value = b"CORRUPTED|" + bytes(read_value)
        self.send(
            src,
            LsReply(
                version=self.version, delta=delta, read_value=read_value, read_data_sig=None
            ),
        )


def lockstep_protocol():
    """The lock-step protocol for the one wiring loop: signing clients
    outside the USTOR stack, :class:`LockStepServer` by default."""
    from repro.workloads.runner import ProtocolSpec

    return ProtocolSpec(
        LockStepClient,
        server_factory=lambda n, name: LockStepServer(n, name=name),
        ustor_stack=False,
    )
