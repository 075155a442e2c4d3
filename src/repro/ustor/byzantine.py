"""Byzantine server behaviours used in the adversarial experiments.

Each class subclasses :class:`~repro.ustor.server.UstorServer` and
overrides only what deviates from Algorithm 2, on the two seams the honest
server leaves as identity: :meth:`~UstorServer.serving_state` (*which
state answers* — ``self.state``, or a forked / frozen copy the honest
:func:`apply_submit` / :func:`apply_commit` then run on) and
:meth:`~UstorServer.outgoing_reply` (*what leaves* — the honest REPLY, or
``dataclasses.replace`` of it).  Everything else a request costs the
server — piggybacked COMMITs, the ``submits_handled`` / ``commits_handled``
tallies the ``ustor.server.*`` metrics publish, the counter attestation,
the group-commit outbox, the ``first_deviation_at`` stamp — is inherited, so an adversary is
convicted for what it did and never for bookkeeping it forgot.  None of
these servers hold signing keys — whatever they send, they cannot forge
client signatures (see :mod:`repro.crypto.keystore`), which is exactly the
power the paper grants the adversary.

The reply mutators each make *one* deviation, so a detection in a test
attributes the catch to exactly one check of Algorithm 1; between them
every verification line of the client has a dedicated adversary proving
it is load-bearing.

:data:`ADVERSARIES` is the catalogue — behaviour name, factory, the line
or layer that (provably) catches it; ``repro attacks``, ``repro run
--server`` and ``repro serve --server`` all read it:

"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.common.errors import ConfigurationError, ProtocolError
from repro.common.types import BOTTOM, ClientId, OpKind, RegisterId, parse_client_name
from repro.crypto.hashing import hash_bytes
from repro.ustor.messages import (
    CommitMessage,
    InvocationTuple,
    MemEntry,
    ReplyMessage,
    SignedVersion,
    SubmitMessage,
    ValueDigest,
)
from repro.ustor.server import ServerState, UstorServer
from repro.ustor.version import Version

#: What a server that holds no signing keys puts where a signature goes.
_GARBAGE_SIG = b"\x00" * 64


def _check_clients(num_clients: int, what: str, *indices: ClientId) -> None:
    """The range check behind every adversary's constructor: an index that
    names no client never matches a request, and the "attack" would run as
    an honest server."""
    for index in indices:
        if not 0 <= index < num_clients:
            raise ConfigurationError(
                f"{what}={index} names none of the {num_clients} client(s) "
                f"(valid: 0..{num_clients - 1})"
            )


# Reply mutations, shared with the fuzzer (:mod:`repro.ustor.fuzz`).  Each
# returns ``reply`` itself where it has nothing to corrupt.


def _inflated(version: Version) -> Version:
    """``version`` with every timestamp one ahead of what anyone signed."""
    return Version(tuple(t + 1 for t in version.vector), version.digests)


def tamper_value(reply: ReplyMessage, prefix: bytes = b"CORRUPTED|") -> ReplyMessage:
    """The read value mangled under its old DATA-signature (line 50); in
    digest form, the digest mangled the same way, and kept at its size."""
    mem = reply.mem
    if mem is None or mem.value is BOTTOM:  # a write, or nothing written yet
        return reply
    if type(mem.value) is ValueDigest:
        mangled = ValueDigest(hash_bytes(prefix + mem.value.digest))
    else:
        mangled = prefix + bytes(mem.value)
    return replace(reply, mem=replace(mem, value=mangled))


def forge_version(reply: ReplyMessage) -> ReplyMessage:
    """``V^c`` inflated, with a COMMIT-signature nobody made (line 35)."""
    forged = SignedVersion(_inflated(reply.last_version.version), _GARBAGE_SIG)
    return replace(reply, last_version=forged)


def corrupt_proofs(reply: ReplyMessage) -> ReplyMessage:
    """Every PROOF-signature in ``P`` overwritten (line 41)."""
    if all(p is None for p in reply.proofs):
        return reply
    garbled = tuple(_GARBAGE_SIG if p is not None else None for p in reply.proofs)
    return replace(reply, proofs=garbled)


# --- Reply mutators: honest state, one corrupted REPLY field ---------- #


class _TargetsRegister(UstorServer):
    """Base of the adversaries that corrupt reads of one register."""

    def __init__(self, num_clients: int, target_register: RegisterId, name: str = "S"):
        _check_clients(num_clients, "target_register", target_register)
        super().__init__(num_clients, name)
        self._target = target_register

    def _reads_target(self, message: SubmitMessage) -> bool:
        invocation = message.invocation
        return invocation.opcode is OpKind.READ and invocation.register == self._target


class TamperingServer(_TargetsRegister):
    """Returns a corrupted value for reads of ``target_register``.

    The stored DATA-signature no longer matches the mangled value, so the
    reader's line-50 check fires immediately: this attack demonstrates
    failure-detection *accuracy* with the fastest possible detection.
    """

    def outgoing_reply(self, src, message, reply):
        return tamper_value(reply) if self._reads_target(message) else reply


class ForgingServer(UstorServer):
    """Advertises a version it cannot have: inflates ``V^c`` and attaches a
    garbage COMMIT-signature.  Caught by line 35 on the next operation."""

    def outgoing_reply(self, src, message, reply):
        return forge_version(reply)


class WrongProofServer(UstorServer):
    """Corrupts the PROOF-signature array ``P`` in replies.

    Detected at line 41 by any client that must account for a concurrent
    operation of a client with a non-BOTTOM digest entry — i.e. under
    genuine concurrency; with no concurrency the corruption is never
    consulted, which the tests document as well.
    """

    def outgoing_reply(self, src, message, reply):
        return corrupt_proofs(reply)


class FakePendingServer(UstorServer):
    """Injects a fabricated invocation tuple into ``L``.

    The server cannot sign for clients, so the tuple carries a garbage
    SUBMIT-signature — caught at line 43 by the next operation.
    """

    def __init__(self, num_clients: int, ghost_client: ClientId, name: str = "S"):
        _check_clients(num_clients, "ghost_client", ghost_client)
        super().__init__(num_clients, name)
        self._ghost = InvocationTuple(
            client=ghost_client,
            opcode=OpKind.WRITE,
            register=ghost_client,
            submit_sig=b"\xff" * 64,
        )

    def outgoing_reply(self, src, message, reply):
        return replace(reply, pending=reply.pending + (self._ghost,))


class SelfEchoServer(UstorServer):
    """Lists the invoking client's *own previous* operation as concurrent.

    Even with the genuine signature available (the server stores it!), the
    ``k = i`` test of line 43 rejects the echo: a sequential client can
    never be concurrent with itself.
    """

    def outgoing_reply(self, src, message, reply):
        return replace(reply, pending=reply.pending + (message.invocation,))


class BadReaderVersionServer(_TargetsRegister):
    """Mangles ``SVER[j]`` (the writer's signed version) in read replies.

    The version/signature pair no longer verifies: line 49.
    """

    def outgoing_reply(self, src, message, reply):
        if not self._reads_target(message) or reply.reader_version.version.is_zero:
            return reply
        signed = reply.reader_version  # its signature covers the old vector
        mangled = replace(signed, version=_inflated(signed.version))
        return replace(reply, reader_version=mangled)


class StaleReadServer(_TargetsRegister):
    """Serves an *old* value of the target register, with its old (genuine)
    DATA-signature and timestamp, while presenting current versions.

    The DATA-signature verifies (line 50 passes — the value is authentic,
    just stale), but the stale timestamp no longer matches the reader's
    ``V_i[j]``: line 51.  A read that asked for the digest form gets the
    stale entry in digest form.
    """

    _stale: MemEntry | None = None  # the register's first written entry

    def outgoing_reply(self, src, message, reply):
        stale, invocation = self._stale, message.invocation
        if stale is None:
            if invocation.client == self._target and invocation.opcode is OpKind.WRITE:
                self._stale = self.state.mem[self._target]
        elif self._reads_target(message) and reply.mem.timestamp > stale.timestamp:
            return replace(
                reply, mem=stale.digest_form() if message.digest_only else stale
            )
        return reply


class LaggingReaderVersionServer(_TargetsRegister):
    """Presents the writer's *first* committed version alongside current
    data for the target register.

    Both the version (line 49) and the data (lines 50-51) are genuine, but
    the lag shows: ``V^j[j]`` is more than one operation behind ``t_j``,
    violating line 52.
    """

    _first_sver: SignedVersion | None = None  # the writer's first COMMIT

    def handle_commit(self, src: str, message: CommitMessage) -> None:
        super().handle_commit(src, message)
        if self._first_sver is None and parse_client_name(src) == self._target:
            self._first_sver = self.state.sver[self._target]

    def outgoing_reply(self, src, message, reply):
        first = self._first_sver
        if (
            first is not None
            and self._reads_target(message)
            and reply.mem.timestamp >= first.version.vector[self._target] + 2
        ):
            return replace(reply, reader_version=first)
        return reply


# --- State choosers: honest replies, from the wrong state ------------- #


class ReplayServer(UstorServer):
    """Honest until ``freeze_after_submits``, then replays the frozen state.

    Once frozen, all SUBMITs are processed against a snapshot: any client
    that commits an operation after the freeze and then operates again is
    shown a version that no longer dominates its own — line 36 — or finds
    its own previous operation listed as concurrent — line 43.
    """

    def __init__(self, num_clients: int, freeze_after_submits: int, name: str = "S"):
        super().__init__(num_clients, name)
        self._freeze_after = freeze_after_submits
        self._frozen: ServerState | None = None

    def handle_submit(self, src: str, message: SubmitMessage) -> None:
        if self._frozen is None and self.submits_handled >= self._freeze_after:
            self._frozen = self.state.clone()
        super().handle_submit(src, message)

    def serving_state(self, client, message):
        return self.state if self._frozen is None else self._frozen

    def handle_commit(self, src: str, message: CommitMessage) -> None:
        if self._frozen is None:  # once frozen, pretend the commit was lost
            super().handle_commit(src, message)


class SplitBrainServer(UstorServer):
    """The classic forking attack: from ``fork_time`` on, clients are split
    into groups, each served from an independent copy of the state.

    Within a group the server is indistinguishable from a correct one, so
    USTOR never halts; across groups, versions eventually become
    incomparable (both vectors strictly grow in different entries), which
    is precisely what FAUST's comparability check detects once the offline
    channel delivers a cross-group VERSION or a client probes a silent
    peer."""

    def __init__(
        self,
        num_clients: int,
        groups: list[set[ClientId]],
        fork_time: float,
        name: str = "S",
    ):
        super().__init__(num_clients, name)
        if sum(len(g) for g in groups) != num_clients or set().union(*groups) != set(
            range(num_clients)
        ):
            raise ConfigurationError(
                f"groups must partition the client set 0..{num_clients - 1} "
                f"into disjoint sets, got {groups}"
            )
        self._groups = [set(g) for g in groups]
        self._fork_time = fork_time
        self._branches: list[ServerState] | None = None

    def serving_state(self, client, message):
        if self.now < self._fork_time:
            return self.state
        if self._branches is None:
            self._branches = [self.state.clone() for _ in self._groups]
        for group, branch in zip(self._groups, self._branches):
            if client in group:
                return branch
        raise ProtocolError(f"client {client} not in any group")


class Fig3Server(UstorServer):
    """The scripted attack behind Figure 3 of the paper.

    With ``writer = C1`` and ``victim = C2``: C1 executes
    ``write(X1, u)``; C2 then reads X1 twice.  The server

    1. answers C2's *first* read from a state snapshot taken before the
       write was submitted (so the read returns BOTTOM and C2's version
       does not include the write), and
    2. answers C2's *second* read with a hand-crafted REPLY that presents
       C2's own previous version as the last committed one, lists the
       write as a *concurrent* operation (its invocation tuple in ``L``),
       claims C1's COMMIT has not arrived (``SVER[j] = zero``), and serves
       the genuine, correctly-signed value ``u``.

    Every signature the reply carries is authentic, and every check of
    Algorithm 1 passes, so the read returns ``u``: the resulting history
    is exactly Figure 3 — weakly fork-linearizable but not
    fork-linearizable (and not linearizable).  The forged join *is*
    recorded in the digests: C2's ``M[writer]`` chains the hidden read
    before the write, so C1's and C2's versions are incomparable, and
    FAUST detects the attack as soon as the two clients exchange versions.
    Everyone else (the writer's later operations included) is served
    honestly from the main state, the victim from its branch.
    """

    def __init__(self, num_clients: int, writer: ClientId, victim: ClientId, name: str = "S"):
        _check_clients(num_clients, "writer", writer)
        _check_clients(num_clients, "victim", victim)
        if writer == victim:
            raise ConfigurationError("writer and victim must differ")
        super().__init__(num_clients, name)
        self._writer = writer
        self._victim = victim
        self._branch: ServerState | None = None  # pre-write snapshot
        self._write_invocation: InvocationTuple | None = None
        self._write_mem: MemEntry | None = None
        self._victim_reads = 0

    def _writes(self, message) -> bool:
        return (
            isinstance(message, SubmitMessage)
            and message.invocation.client == self._writer
            and message.invocation.opcode is OpKind.WRITE
        )

    def serving_state(self, client, message):
        if self._branch is None:
            if self._writes(message):
                # Snapshot the state the victim will be served from.
                self._branch = self.state.clone()
                self._write_invocation = message.invocation
            return self.state
        if client != self._victim:
            return self.state
        if isinstance(message, SubmitMessage):
            self._victim_reads += 1
        return self._branch

    def outgoing_reply(self, src, message, reply):
        if self._writes(message):
            self._write_mem = self.state.mem[self._writer]
        if message.invocation.client != self._victim or self._victim_reads != 2:
            return reply
        # The join: the honest reply's bookkeeping stays on the branch (so
        # later victim operations are consistent); what leaves is crafted.
        proofs = list(reply.proofs)
        proofs[self._writer] = None  # "the writer's COMMIT has not arrived"
        return replace(
            reply,
            commit_index=self._victim,
            last_version=self._branch.sver[self._victim],
            pending=(self._write_invocation,),
            proofs=tuple(proofs),
            reader_version=SignedVersion.zero(self.num_clients),
            mem=self._write_mem,
        )


# --- Faults of the process around an honest state machine ------------- #


class RollbackServer(UstorServer):
    """The crash-recovery rollback attack on a persistent server.

    Runs the honest log-structured engine, checkpoints after
    ``snapshot_after_submits`` SUBMITs, keeps serving honestly (the WAL
    records every later transition), then after ``rollback_after_submits``
    SUBMITs crashes and — after an ``outage``-long downtime — "recovers"
    from the stale snapshot, discarding the WAL suffix.  Requests held
    during the downtime are *served*, from the rolled-back state (see
    :meth:`on_restart`): withholding them would only ever look like
    slowness.  To a client that never operated after the checkpoint the
    restarted server is indistinguishable from an honest recovery; any
    client whose committed version includes a post-checkpoint operation is
    shown a version that no longer dominates its own (Algorithm 1, line
    36), finds its own tuple still pending (line 43), or reads data older
    than its adopted version admits (line 51) on its next operation, and
    FAUST turns that local detection into system-wide failure
    notifications.

    Contrast with :class:`ReplayServer`: a replayer needs to actively fork
    state; a rollback adversary merely *restores yesterday's backup* — the
    realism is the point.
    """

    def __init__(
        self,
        num_clients: int,
        snapshot_after_submits: int = 2,
        rollback_after_submits: int = 6,
        outage: float = 5.0,
        name: str = "S",
        engine=None,
    ):
        if not 0 < snapshot_after_submits < rollback_after_submits:
            raise ConfigurationError(
                "need 0 < snapshot_after_submits < rollback_after_submits"
            )
        if engine is None:
            from repro.store.engine import LogStructuredEngine

            # Manual checkpointing only: the stale point stays deterministic.
            engine = LogStructuredEngine(num_clients, snapshot_interval=10**9)
        super().__init__(num_clients, name=name, engine=engine)
        self._snapshot_after = snapshot_after_submits
        self._rollback_after = rollback_after_submits
        self._outage = outage
        self._rolled_back = False
        self.rollback_crash_time: float | None = None
        self.rollback_restart_time: float | None = None

    def handle_submit(self, src: str, message: SubmitMessage) -> None:
        super().handle_submit(src, message)
        if self.submits_handled == self._snapshot_after:
            self.engine.checkpoint(self.state)
        if self.submits_handled >= self._rollback_after and not self._rolled_back:
            self._rolled_back = True
            self.rollback_crash_time = self.now
            self._note_deviation()
            self.crash()
            self.scheduler.schedule(self._outage, self.restart)

    def on_restart(self) -> None:
        if not self._rolled_back:
            super().on_restart()
            return
        # The dishonest recovery: latest snapshot, WAL suffix discarded.
        # Requests held during the outage are then served from the stale
        # state — withholding them would merely look like slowness (a DoS,
        # not provable misbehaviour); *answering* them from the past is
        # what hands the clients their line-36/43/51 evidence.
        self.state = self.engine.recover(replay_wal=False)
        self.last_recovery_state = self.state.clone()
        self.restarts += 1
        self.rollback_restart_time = self.now


class CrashingServer(UstorServer):
    """Crash-stops after a number of SUBMITs (a benign but fatal fault).

    Not detectable as Byzantine — an asynchronous network permits arbitrary
    delay — so USTOR operations simply never complete.  The FAUST layer's
    offline VERSION exchange still drives stability among the operations
    that did complete (experiment E8/E9 territory)."""

    def __init__(self, num_clients: int, crash_after_submits: int, name: str = "S"):
        super().__init__(num_clients, name)
        self._crash_after = crash_after_submits

    def handle_submit(self, src: str, message: SubmitMessage) -> None:
        if self.submits_handled >= self._crash_after:
            self._note_deviation()
            self.crash()
            return
        super().handle_submit(src, message)

    def handle_commit(self, src: str, message: CommitMessage) -> None:
        if self.crashed:
            return
        super().handle_commit(src, message)


class UnresponsiveServer(UstorServer):
    """Ignores all messages from a set of victim clients (targeted denial).

    The victims' operations hang (allowed: wait-freedom is only promised
    under a correct server); everyone else is served honestly, and the
    victims' *earlier* versions still propagate offline via FAUST."""

    def __init__(self, num_clients: int, victims: set[ClientId], name: str = "S"):
        _check_clients(num_clients, "victims", *victims)
        super().__init__(num_clients, name)
        self._victims = set(victims)

    def on_message(self, src: str, message) -> None:
        if parse_client_name(src) in self._victims:
            self._note_deviation()
            return
        super().on_message(src, message)


# --- The catalogue ----------------------------------------------------- #


@dataclass(frozen=True)
class Adversary:
    """One row of :data:`ADVERSARIES`: a ``server_factory`` (called as
    ``(num_clients, name)``), what it does and which line of Algorithm 1 or
    which layer catches it, and whether it also runs behind ``repro serve``
    — not if it scripts crash-recovery or fork points against virtual time,
    which a real process models by actually crashing."""

    factory: Callable[[int, str], UstorServer]
    note: str
    tcp: bool = True


def _random_deviation(n: int, name: str) -> UstorServer:
    from repro.ustor.fuzz import RandomDeviationServer  # imports this module

    return RandomDeviationServer(n, deviation_probability=0.3, seed=11, name=name)


def even_odd_fork(n: int, name: str, fork_time: float = 10.0) -> UstorServer:
    """The split-brain server forking even from odd clients at ``fork_time``."""
    groups = [set(range(0, n, 2)), set(range(1, n, 2))]
    return SplitBrainServer(n, groups=groups, fork_time=fork_time, name=name)


#: Behaviour name -> row.  The parameters (C1 as the target, ...) are the
#: CLI's defaults; tests that need others construct the classes directly.
ADVERSARIES: dict[str, Adversary] = {
    "correct": Adversary(
        lambda n, name: UstorServer(n, name=name),
        "the honest server of Algorithm 2",
    ),
    "tampering": Adversary(
        lambda n, name: TamperingServer(n, target_register=0, name=name),
        "corrupts reads of C1's register — caught at line 50 (DATA-signature)",
    ),
    "forging": Adversary(
        lambda n, name: ForgingServer(n, name=name),
        "advertises an unsigned version — caught at line 35 (COMMIT-sig on V^c)",
    ),
    "replay": Adversary(
        lambda n, name: ReplayServer(n, freeze_after_submits=4, name=name),
        "freezes after 4 SUBMITs, replays that state — caught at lines 36/43",
    ),
    "crash": Adversary(
        lambda n, name: CrashingServer(n, crash_after_submits=6, name=name),
        "stops responding after 6 SUBMITs — not detectable, operations hang",
        tcp=False,
    ),
    "unresponsive": Adversary(
        lambda n, name: UnresponsiveServer(n, victims={0}, name=name),
        "ignores C1 only — not detectable, C1's operations hang",
    ),
    "split-brain": Adversary(
        even_odd_fork,
        "forks even/odd clients at t=10 — caught by FAUST version comparison",
        tcp=False,
    ),
    "figure3": Adversary(
        lambda n, name: Fig3Server(n, writer=0, victim=1, name=name),
        "the paper's hiding attack (invisible to USTOR under the exact Figure 3 "
        "schedule, examples/forking_attack.py) — caught by FAUST version comparison",
        tcp=False,
    ),
    "rollback": Adversary(
        lambda n, name: RollbackServer(n, name=name),
        "recovers from a stale snapshot — caught at lines 36/43/51 or by FAUST",
        tcp=False,
    ),
    "wrong-proof": Adversary(
        lambda n, name: WrongProofServer(n, name=name),
        "corrupts the PROOF-signatures P — caught at line 41 (under concurrency)",
    ),
    "fake-pending": Adversary(
        lambda n, name: FakePendingServer(n, ghost_client=n - 1, name=name),
        "fabricates an operation of the last client in L — caught at line 43",
    ),
    "self-echo": Adversary(
        lambda n, name: SelfEchoServer(n, name=name),
        "lists the caller's own operation as concurrent — caught at line 43",
    ),
    "bad-reader-version": Adversary(
        lambda n, name: BadReaderVersionServer(n, target_register=0, name=name),
        "mangles SVER[j] in reads of C1's register — caught at line 49",
    ),
    "stale-read": Adversary(
        lambda n, name: StaleReadServer(n, target_register=0, name=name),
        "serves C1's first value under current versions — caught at line 51",
    ),
    "lagging-reader-version": Adversary(
        lambda n, name: LaggingReaderVersionServer(n, target_register=0, name=name),
        "serves C1's first commit beside current data — caught at line 52",
    ),
    "random-deviation": Adversary(
        _random_deviation,
        "the fuzzer: mutates 30% of REPLYs four ways — caught at lines 35-50",
    ),
}


def catalogue_lines() -> list[str]:
    """:data:`ADVERSARIES` as aligned ``name  note [tcp]`` lines."""
    width = max(map(len, ADVERSARIES))
    return [
        f"{name.ljust(width)}  {adversary.note}{' [tcp]' if adversary.tcp else ''}"
        for name, adversary in ADVERSARIES.items()
    ]


if __doc__ is not None:  # stripped under ``python -OO``
    __doc__ += "\n".join(f"    {line}" for line in catalogue_lines()) + "\n"
