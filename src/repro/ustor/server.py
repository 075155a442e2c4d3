"""USTOR server — Algorithm 2 of the paper.

The correct server is a pure state machine over :class:`ServerState`; all
handler logic is expressed as functions of an explicit state object so
that Byzantine variants (:mod:`repro.ustor.byzantine`) can run the honest
logic on cloned states: they override :meth:`UstorServer.serving_state`
(which state answers) and :meth:`UstorServer.outgoing_reply` (what
leaves) and inherit everything else a request costs the server.

The server never verifies signatures — it only stores and forwards them
(the clients do all checking), which is why the honest implementation
needs no key material at all.

Durability is delegated: every state transition flows through a
:class:`~repro.store.engine.StorageEngine` (write-ahead discipline — the
transition is logged before its REPLY leaves the server), and a restart
recovers whatever the engine can reconstruct.  With the volatile default
engine this is exactly the paper's server; with the log-structured engine
a crash/restart cycle is invisible to clients.  The import is lazy to
keep ``repro.store`` (which replays through :func:`apply_submit` /
:func:`apply_commit`) free of cycles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from dataclasses import dataclass, field

from repro.common.errors import ProtocolError
from repro.common.types import ClientId, OpKind, parse_client_name
from repro.obs.registry import COUNT_BUCKETS, get_registry
from repro.sim.process import Node
from repro.ustor.digests import chain_link
from repro.ustor.messages import (
    OWN_FORM_MAX_CLIENTS,
    CheckpointMessage,
    CommitMessage,
    InvocationTuple,
    MemEntry,
    RelativeVersion,
    ReplyMessage,
    SignedVersion,
    SubmitMessage,
)
from repro.ustor.version import Version, fold_version

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.store.engine import StorageEngine


@dataclass
class ServerState:
    """Algorithm 2's variables (lines 101-106), cloneable for forking.

    Every REPLY ships ``L`` and ``P`` as tuples; rebuilding them from the
    lists on each SUBMIT is O(n + |L|) of pure allocation, so the state
    memoizes both tuples and :func:`apply_submit` / :func:`apply_commit`
    (the only mutators of ``pending`` / ``proofs``) invalidate them.  The
    memo fields are excluded from equality so crash-recovery comparisons
    still see only Algorithm 2's variables.
    """

    num_clients: int
    mem: list[MemEntry] = field(default_factory=list)  # MEM
    commit_index: ClientId = 0  # c (paper: initially 1; 0-based here)
    sver: list[SignedVersion] = field(default_factory=list)  # SVER
    pending: list[InvocationTuple] = field(default_factory=list)  # L
    proofs: list[bytes | None] = field(default_factory=list)  # P
    #: SUBMITs this state has absorbed, ever — not an Algorithm 2 variable
    #: but a pure function of the applied history, so snapshots carry it
    #: and WAL replay reconstructs it.  It is the state's position in the
    #: submit stream: a rolled-back state under-reports it *permanently*
    #: (client COMMITs heal ``sver``/``pending`` but never this), which is
    #: what the monotonic-counter attestation (:mod:`repro.replica`) pins
    #: it against.
    submits_applied: int = 0
    #: Per-entry submit timestamps, parallel to ``pending`` — bookkeeping
    #: for authenticated checkpoints (:func:`apply_checkpoint` only ever
    #: truncates entries whose timestamp the certified cut covers), not an
    #: Algorithm 2 variable, hence excluded from state equality.
    pending_ts: list[int] = field(
        default_factory=list, repr=False, compare=False
    )
    #: Per client: ``(t, (V_i, M_i))`` — the timestamp of its last SUBMIT
    #: and the version Algorithm 1 folds from the REPLY that answered it
    #: (:func:`~repro.ustor.version.fold_version`), or ``None`` before its
    #: first SUBMIT.  Not an Algorithm 2 variable: it is what a version-less
    #: COMMIT commits (:func:`apply_commit`), and a pure function of the
    #: applied history, so snapshots carry it and WAL replay re-derives it.
    expected: list[tuple[int, Version] | None] = field(default_factory=list)
    _pending_tuple: tuple | None = field(default=None, repr=False, compare=False)
    _proofs_tuple: tuple | None = field(default=None, repr=False, compare=False)

    def pending_as_tuple(self) -> tuple:
        """``L`` as an immutable tuple, memoized between mutations."""
        cached = self._pending_tuple
        if cached is None:
            cached = self._pending_tuple = tuple(self.pending)
        return cached

    def proofs_as_tuple(self) -> tuple:
        """``P`` as an immutable tuple, memoized between mutations."""
        cached = self._proofs_tuple
        if cached is None:
            cached = self._proofs_tuple = tuple(self.proofs)
        return cached

    @classmethod
    def initial(cls, num_clients: int) -> "ServerState":
        return cls(
            num_clients=num_clients,
            mem=[MemEntry.initial() for _ in range(num_clients)],
            commit_index=0,
            sver=[SignedVersion.zero(num_clients) for _ in range(num_clients)],
            pending=[],
            proofs=[None] * num_clients,
            expected=[None] * num_clients,
        )

    def clone(self) -> "ServerState":
        """Deep-enough copy: entries are immutable, lists are fresh."""
        return ServerState(
            num_clients=self.num_clients,
            mem=list(self.mem),
            commit_index=self.commit_index,
            sver=list(self.sver),
            pending=list(self.pending),
            proofs=list(self.proofs),
            submits_applied=self.submits_applied,
            pending_ts=list(self.pending_ts),
            expected=list(self.expected),
        )


def apply_submit(state: ServerState, message: SubmitMessage) -> ReplyMessage:
    """Handle a SUBMIT on ``state`` (lines 107-116); returns the REPLY.

    Mutates ``state``: updates ``MEM[i]`` and appends the invocation tuple
    to ``L`` *after* computing the reply, exactly as the pseudocode does.
    """
    invocation = message.invocation
    i = invocation.client
    if not 0 <= i < state.num_clients:
        raise ProtocolError(f"SUBMIT from unknown client index {i}")

    if invocation.opcode is OpKind.READ:
        # line 109-110: keep the stored value, refresh timestamp + DATA-sig.
        old = state.mem[i]
        state.mem[i] = MemEntry(
            timestamp=message.timestamp, value=old.value, data_sig=message.data_sig
        )
        j = invocation.register
        mem = state.mem[j]
        if message.digest_only:
            # A read whose value will not be used gets H(x_j) in its place
            # (DESIGN.md, "Protocol liberties" #5); hashed here, on request.
            mem = mem.digest_form()
        reply = ReplyMessage(
            commit_index=state.commit_index,
            last_version=state.sver[state.commit_index],
            pending=state.pending_as_tuple(),
            proofs=state.proofs_as_tuple(),
            reader_version=state.sver[j],
            mem=mem,
        )
    else:
        # line 113: store the new value.
        state.mem[i] = MemEntry(
            timestamp=message.timestamp, value=message.value, data_sig=message.data_sig
        )
        reply = ReplyMessage(
            commit_index=state.commit_index,
            last_version=state.sver[state.commit_index],
            pending=state.pending_as_tuple(),
            proofs=state.proofs_as_tuple(),
        )

    expect_commit(state, message, reply)
    # line 116: append after building the reply — the submitting operation
    # is never listed as concurrent with itself.
    state.pending.append(invocation)
    state.pending_ts.append(message.timestamp)
    state._pending_tuple = None
    state.submits_applied += 1
    return reply


def expect_commit(
    state: ServerState, message: SubmitMessage, reply: ReplyMessage
) -> None:
    """Record what the COMMIT answering ``reply`` will commit: the SUBMIT's
    ``t`` and the version its client folds from ``reply`` (lines 37-47)."""
    i = message.invocation.client
    state.expected[i] = (
        message.timestamp,
        fold_version(
            reply.last_version.version,
            reply.commit_index,
            reply.pending,
            i,
            link=chain_link,
        ),
    )


def relative_form(
    state: ServerState,
    message: SubmitMessage,
    reply: ReplyMessage,
    attestation: object | None,
) -> ReplyMessage:
    """``reply`` as it leaves, answering ``message`` from client ``i``
    and carrying ``attestation``: its versions relative to ``state``'s
    ``SVER[i]`` (:class:`~repro.ustor.messages.RelativeVersion`) when that
    version counts ``t - 1`` operations of ``i`` — the version ``i``
    committed and signed one operation earlier, so the one the client
    restores against (:meth:`ReplyMessage.restored`).

    Otherwise — a stale or forged ``SVER[i]``, a population over
    :data:`~repro.ustor.messages.OWN_FORM_MAX_CLIENTS` — it travels in full.
    """
    i = message.invocation.client
    base = state.sver[i]
    last, reader = reply.last_version, reply.reader_version
    if (
        base.version.vector[i] == message.timestamp - 1
        and state.num_clients <= OWN_FORM_MAX_CLIENTS
    ):
        last = RelativeVersion.of(last, base)
        if reply.reader_is_last():
            reader = last
        elif reader is not None:
            reader = RelativeVersion.of(reader, base)
    if (
        last is reply.last_version
        and reader is reply.reader_version
        and attestation is reply.attestation
    ):
        return reply
    # Field by field: ``dataclasses.replace`` costs more than the rest of
    # handle_submit, once per SUBMIT.
    return ReplyMessage(
        commit_index=reply.commit_index,
        last_version=last,
        pending=reply.pending,
        proofs=reply.proofs,
        reader_version=reader,
        mem=reply.mem,
        attestation=attestation,
    )


def apply_commit(state: ServerState, client: ClientId, message: CommitMessage) -> None:
    """Handle a COMMIT on ``state`` (lines 117-123).

    A COMMIT without a version commits ``expected[client]``'s, and only
    when its ``t`` is that entry's: any other ``t`` is a retransmitted
    duplicate of an earlier COMMIT and changes nothing.  A COMMIT that
    carries its version (a replica group's) is applied as it stands.
    """
    if not 0 <= client < state.num_clients:
        raise ProtocolError(f"COMMIT from unknown client index {client}")
    version = message.version
    if version is None:
        expected = state.expected[client]
        if expected is None or expected[0] != message.timestamp:
            return
        version = expected[1]
    last = state.sver[state.commit_index].version
    # line 119: V_i > V^c — this operation is now the schedule's last commit.
    if version.dominates_vector(last):
        state.commit_index = client
        # line 121: drop the client's tuple and everything scheduled before.
        cut = None
        for index in range(len(state.pending) - 1, -1, -1):
            if state.pending[index].client == client:
                cut = index
                break
        if cut is not None:
            del state.pending[: cut + 1]
            del state.pending_ts[: cut + 1]
            state._pending_tuple = None
    # lines 122-123: store version, COMMIT- and PROOF-signatures.
    state.sver[client] = SignedVersion(version=version, commit_sig=message.commit_sig)
    state.proofs[client] = message.proof_sig
    state._proofs_tuple = None


def apply_checkpoint(state: ServerState, cut: tuple[int, ...]) -> int:
    """Truncate the ``pending`` prefix a checkpoint ``cut`` covers.

    ``cut`` holds one stable timestamp per client (the co-signed stable
    cut).  The server cannot verify the certificate (it holds no keys),
    so the truncation is *defensive*: an entry is dropped only while BOTH

    * its submit timestamp is covered by the cut for its client, AND
    * it is covered by the current committed version ``V^c`` — i.e. some
      client already folded it into a committed vector, so by Algorithm
      1's unconditional pending fold (client line 39 ff.) every honest
      client that adopts ``V^c`` or later has counted it already.

    The second bound makes safety independent of the cut's honesty: a
    forged, too-large cut can never remove an entry an honest client
    still needs to fold, so no honest client ever sees a truncated REPLY
    whose SUBMIT-signatures fail to verify.  Returns the number of
    entries truncated.
    """
    if len(cut) != state.num_clients:
        raise ProtocolError(
            f"checkpoint cut has {len(cut)} entries for {state.num_clients} clients"
        )
    committed = state.sver[state.commit_index].version.vector
    drop = 0
    for invocation, timestamp in zip(state.pending, state.pending_ts):
        if timestamp > cut[invocation.client]:
            break
        if timestamp > committed[invocation.client]:
            break
        drop += 1
    if drop:
        del state.pending[:drop]
        del state.pending_ts[:drop]
        state._pending_tuple = None
    return drop


class UstorServer(Node):
    """The correct server process.

    ``engine`` selects the durability model (default: the paper's volatile
    server).  The reliable channels of the model outlive a server restart,
    so deliveries during downtime are held and replayed on recovery.

    ``group_commit`` turns on batched wakeups: deliveries are parked in an
    inbox and a single drain event (scheduled at the same virtual time,
    firing after every same-instant delivery) processes them all —
    handlers run in arrival order, their WAL records are appended as ONE
    batched engine write with a single commit point, and every REPLY is
    held until that write returns, so the write-ahead discipline covers
    the whole batch.  Virtual-time behaviour is unchanged (the drain fires
    at the delivery instant); what shrinks is the per-message machinery:
    one wakeup, one durable append, one checkpoint decision per burst.
    """

    holds_mail_while_down = True

    def __init__(
        self,
        num_clients: int,
        name: str = "S",
        engine: "StorageEngine | None" = None,
        group_commit: bool = False,
    ) -> None:
        super().__init__(name=name)
        self._n = num_clients
        if engine is None:
            from repro.store.engine import MemoryEngine

            engine = MemoryEngine(num_clients)
        self._engine = engine
        self.state = engine.recover()
        self._group_commit = bool(group_commit)
        self._inbox: list[tuple[str, object]] = []
        self._drain_scheduled = False
        #: While a drain is running these collect the batch's WAL records
        #: and outgoing replies; ``None`` means "not draining" (log and
        #: send immediately, the unbatched path).
        self._batch_records: list[tuple] | None = None
        self._outbox: list[tuple[str, object]] | None = None
        self._batch_gc_advanced = False
        self._batch_force_checkpoint = False
        # E10 instrumentation: pending-list pressure over the run.
        self.max_pending_len = 0
        self.submits_handled = 0
        self.commits_handled = 0
        # Group-commit instrumentation.
        self.group_commits = 0
        self.largest_group_commit = 0
        # Checkpoint/GC instrumentation.
        self.checkpoints_handled = 0
        self.pending_truncated = 0
        self.last_checkpoint_seq: int | None = None
        self.last_checkpoint_cut: tuple[int, ...] | None = None
        self._obs_group_size = get_registry().histogram(
            "ustor.server.group_commit_records", COUNT_BUCKETS
        )
        # Crash-recovery instrumentation (scenarios compare the two).
        self.restarts = 0
        self.last_pre_crash_state: ServerState | None = None
        self.last_recovery_state: ServerState | None = None
        #: Trusted monotonic counter (:mod:`repro.replica.counter`);
        #: ``None`` = no trust anchor, the paper's plain untrusted server.
        self.counter = None
        #: When this server first departed from Algorithm 2 (a request
        #: served from a state other than ``self.state``, or a REPLY that
        #: differs from the honest one); ``None`` on an honest server.
        #: :class:`~repro.obs.health.HealthMonitor` measures
        #: time-to-detection from here.
        self.first_deviation_at: float | None = None

    @property
    def num_clients(self) -> int:
        return self._n

    @property
    def engine(self) -> "StorageEngine":
        return self._engine

    @property
    def group_commit(self) -> bool:
        """Are wakeups batched into group commits?"""
        return self._group_commit

    def on_message(self, src: str, message) -> None:
        if not isinstance(
            message, (SubmitMessage, CommitMessage, CheckpointMessage)
        ):
            return
        if self._group_commit:
            self._inbox.append((src, message))
            if not self._drain_scheduled:
                self._drain_scheduled = True
                self.scheduler.schedule(0.0, self._drain_inbox)
        elif isinstance(message, SubmitMessage):
            self.handle_submit(src, message)
        elif isinstance(message, CommitMessage):
            self.handle_commit(src, message)
        else:
            self.handle_checkpoint(src, message)

    def _drain_inbox(self) -> None:
        """Process every parked delivery under one group commit."""
        self._drain_scheduled = False
        if self._crashed or not self._inbox:
            return
        inbox, self._inbox = self._inbox, []
        self._batch_records = []
        self._outbox = []
        self._batch_gc_advanced = False
        self._batch_force_checkpoint = False
        position = 0
        try:
            for src, message in inbox:
                if isinstance(message, SubmitMessage):
                    self.handle_submit(src, message)
                elif isinstance(message, CommitMessage):
                    self.handle_commit(src, message)
                else:
                    self.handle_checkpoint(src, message)
                position += 1
        finally:
            # Even if a handler raised mid-drain, the transitions already
            # applied MUST reach the log before anything else happens —
            # otherwise batched recovery would diverge from unbatched,
            # which logs each record as it is applied.  One durable write
            # for the whole batch; write-ahead preserved: no reply below
            # leaves before the append returns.
            records, self._batch_records = self._batch_records, None
            outbox, self._outbox = self._outbox, None
            self._engine.log_records(records)
            if self._batch_force_checkpoint:
                # A checkpoint certificate landed in this batch: compact
                # the WAL now that its "K" record is durable (subsumes
                # the heuristic maybe_checkpoint decision).
                self._engine.checkpoint(self.state)
            else:
                self._engine.maybe_checkpoint(
                    self.state, gc_advanced=self._batch_gc_advanced
                )
            if position == len(inbox):
                self.group_commits += 1
                self.largest_group_commit = max(
                    self.largest_group_commit, len(records)
                )
                self._obs_group_size.observe(len(records))
            else:
                # A poison message aborted the drain.  Unbatched mode
                # consumes the poison delivery (its handler raised) but
                # still delivers the rest as separate events; mirror that:
                # re-queue the unprocessed tail and drain again.
                self._inbox[:0] = inbox[position + 1 :]
                if self._inbox and not self._drain_scheduled:
                    self._drain_scheduled = True
                    self.scheduler.schedule(0.0, self._drain_inbox)
            for dst, reply in outbox:
                self.send(dst, reply)

    def send(self, dst: str, message) -> None:
        """Send, or park in the outbox while a group commit is draining."""
        if self._outbox is not None:
            self._outbox.append((dst, message))
        else:
            super().send(dst, message)

    # Crash-recovery ------------------------------------------------------

    def crash(self) -> None:
        self.last_pre_crash_state = self.state.clone()
        if self._inbox:
            # Accepted but not yet drained: the transitions were never
            # applied or logged and no REPLY left, so hand the messages to
            # the held-mail replay exactly as if they arrived mid-crash.
            self._held_mail[:0] = self._inbox
            self._inbox = []
        super().crash()

    def on_restart(self) -> None:
        """Recover state from the engine; runs before held mail replays."""
        self.state = self._engine.recover()
        self.last_recovery_state = self.state.clone()
        self.restarts += 1

    # Durability plumbing (defer-aware: batched while draining) -----------

    def _log(self, record: tuple) -> None:
        """Log one transition record (see
        :meth:`~repro.store.engine.StorageEngine.log_records`)."""
        if self._batch_records is not None:
            self._batch_records.append(record)
        else:
            self._engine.log_records([record])

    def _maybe_checkpoint(self, gc_advanced: bool = False) -> None:
        if self._batch_records is not None:
            # Deferred to the single decision after the batch append.
            self._batch_gc_advanced = self._batch_gc_advanced or gc_advanced
        else:
            self._engine.maybe_checkpoint(self.state, gc_advanced=gc_advanced)

    # Subclass seams -------------------------------------------------------
    #
    # Everything a request costs the server — piggybacked COMMITs, the
    # counters, the attestation, logging, the outbox — happens once, in
    # handle_submit / handle_commit below.  A Byzantine subclass
    # (:mod:`repro.ustor.byzantine`) overrides only the two choices the
    # honest server leaves as identity.

    def serving_state(self, client: ClientId, message) -> ServerState:
        """Seam 1 — *which state answers* ``client``'s SUBMIT or COMMIT
        (``message``): the honest server has only ``self.state``; an
        adversary returns a forked or frozen copy."""
        return self.state

    def outgoing_reply(
        self, src: str, message: SubmitMessage, reply: ReplyMessage
    ) -> ReplyMessage:
        """Seam 2 — *what leaves*: the honest REPLY to ``message``, or an
        adversary's ``dataclasses.replace`` of it."""
        return reply

    def _note_deviation(self) -> None:
        """Stamp :attr:`first_deviation_at`, the first time only."""
        if self.first_deviation_at is None:
            self.first_deviation_at = self.now

    def attach_counter(self, counter) -> None:
        """Bind a trusted :class:`~repro.replica.counter.MonotonicCounter`.

        From here on every REPLY — an adversary's mutated or crafted one
        included — carries an attestation minted *after* the SUBMIT is
        applied, over the position of the state that absorbed it, so its
        value counts the SUBMIT it answers.  The counter does not care
        which branch its host serves from, which is exactly how it exposes
        a fork: a branch's ``submits_applied`` falls behind the counter.
        The counter object lives outside the recovered state on purpose:
        it models a separate trusted component, so a Byzantine subclass
        that rewinds ``self.state`` cannot rewind the counter with it.

        Binding happens once, at process start, over the state the engine
        just recovered: :meth:`~repro.replica.counter.MonotonicCounter.recover`
        adopts the one SUBMIT a kill between the log append and the
        counter's own persist can strand.
        """
        counter.recover(self.state.submits_applied)
        self.counter = counter

    def handle_submit(self, src: str, message: SubmitMessage) -> None:
        if message.piggyback is not None:
            self.handle_commit(src, message.piggyback)
        state = self.serving_state(message.invocation.client, message)
        honest = apply_submit(state, message)
        reply = self.outgoing_reply(src, message, honest)
        if reply is not honest:
            # The client folds what it receives, so the state expects that.
            expect_commit(state, message, reply)
        if state is self.state:
            # Write-ahead: the transition is durable before the REPLY
            # leaves.  A forked branch has no honest log to be ahead of.
            self._log(("S", message))
            self._maybe_checkpoint()
        if state is not self.state or (reply is not honest and reply != honest):
            self._note_deviation()
        attestation = reply.attestation
        if self.counter is not None:
            attestation = self.counter.attest(
                message.invocation.submit_sig, state.submits_applied
            )
        self.submits_handled += 1
        self.max_pending_len = max(self.max_pending_len, len(state.pending))
        self.send(src, relative_form(state, message, reply, attestation))

    def handle_commit(self, src: str, message: CommitMessage) -> None:
        client = parse_client_name(src)
        if client is None:
            raise ProtocolError(f"COMMIT from non-client node {src!r}")
        state = self.serving_state(client, message)
        pending_before = len(state.pending)
        apply_commit(state, client, message)
        if state is self.state:
            self._log(("C", client, message))
            # The COMMIT/GC signal: a pruned pending list means the state
            # is at its smallest — the cheapest moment to checkpoint.
            self._maybe_checkpoint(
                gc_advanced=len(state.pending) < pending_before
            )
        else:
            self._note_deviation()
        self.commits_handled += 1

    def handle_checkpoint(self, src: str, message: CheckpointMessage) -> None:
        """Apply an installed checkpoint certificate (one-way, no REPLY).

        Truncates the covered ``pending`` prefix under the defensive
        bound of :func:`apply_checkpoint`, logs a durable "K" record, and
        forces a snapshot so the WAL behind the checkpoint is compacted
        immediately (the whole point of the certificate: the folded
        prefix never needs replaying again).
        """
        truncated = apply_checkpoint(self.state, tuple(message.cut))
        self._log(("K", tuple(message.cut)))
        if self._batch_records is not None:
            self._batch_force_checkpoint = True
        else:
            self._engine.checkpoint(self.state)
        self.checkpoints_handled += 1
        self.pending_truncated += truncated
        self.last_checkpoint_seq = message.seq
        self.last_checkpoint_cut = tuple(message.cut)
