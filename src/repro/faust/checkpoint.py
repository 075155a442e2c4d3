"""Authenticated checkpoints: fold the stable prefix, bound the state.

FAUST's bookkeeping grows without bound — the server's ``pending`` list
is pruned only incidentally by COMMITs, clients accumulate view-history
records forever, and the incremental checkers keep every write they ever
saw.  This module adds the bounded-state extension (ROADMAP item 2): once
a prefix of operations is **stable for all clients** (below the
all-clients stability cut, Section 6), the clients co-sign a *checkpoint*
that folds it, after which every party drops the folded history:

* the server truncates the covered ``pending`` prefix and compacts its
  WAL (:func:`repro.ustor.server.apply_checkpoint`),
* clients prune view-history records at or below the cut,
* the history recorder and incremental checkers drop pruned operations
  (:meth:`repro.history.recorder.HistoryRecorder.compact`).

Checkpoints form a hash chain: checkpoint ``q`` is ``(q, C, d)`` with cut
``C`` (one stable timestamp per client) and digest ``d = H("CHECKPOINT",
q, C, parent_digest)``.  The round-robin proposer of ``q`` (client
``(q - 1) mod n``) broadcasts a signed share over the offline channel
once enough stability has accumulated; every client countersigns the
*proposer's* cut as soon as its own stability cut covers it; ``n``
matching shares install the checkpoint.  Conflicting shares for the same
sequence number are proof of divergent stability views — exactly the
forking evidence FAUST turns into a ``fail`` notification.

Why detection survives pruning: only operations stable at *every* client
are folded, and stability already places them on a common linearizable
prefix certified by the version vectors each client retains.  A rollback
across a checkpoint re-serves a version that no longer dominates some
client's committed version — caught by the same comparability checks as
today (Algorithm 1 lines 36/43), with no need for the pruned history.

With a :class:`~repro.faust.membership.MembershipManager` attached,
"every client" becomes "every *member* of the current epoch": proposer
rotation, countersign quorums and the collected signature set all range
over the epoch's member set, so the chain keeps advancing after a
crashed-forever client is evicted.  Cuts stay full-width ``n`` and the
digest formula is untouched — a membership-off run and a fault-free
membership-on run produce bit-identical chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.common.errors import ConfigurationError
from repro.common.types import ClientId
from repro.crypto.hashing import hash_values
from repro.crypto.keystore import ClientSigner
from repro.faust.messages import CheckpointShareMessage
from repro.ustor.messages import CheckpointMessage

if TYPE_CHECKING:  # pragma: no cover - typing only (import cycle)
    from repro.faust.membership import MembershipManager

#: Domain-separation label for checkpoint digests and co-signatures.
CHECKPOINT_LABEL = "CHECKPOINT"

#: How many installed (cut, parent) pairs to archive for cross-checking
#: late shares from non-members (evicted clients catching up).
RECENT_ARCHIVE = 16


@dataclass(frozen=True)
class CheckpointPolicy:
    """Knobs of the bounded-state extension (``SystemConfig(checkpoint=...)``).

    ``interval`` is the amount of *new stability* (sum over the stable
    cut's entries) that triggers the next proposal; every installed
    checkpoint also compacts the shared history recorder and the
    incremental checkers behind it, and ``keep_tail`` is how many stable
    writes per register the compactor retains as context for
    still-referencing reads.
    """

    interval: int = 32
    keep_tail: int = 4

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ConfigurationError(
                f"checkpoint interval must be at least 1, got {self.interval}"
            )
        if self.keep_tail < 1:
            raise ConfigurationError(
                f"checkpoint keep_tail must be at least 1, got {self.keep_tail}"
            )


@dataclass(frozen=True)
class Checkpoint:
    """An installed checkpoint: a link of the authenticated chain.

    ``signers`` records which clients' signatures installed it — all
    ``n`` without membership, the epoch's member set with it.  It is
    *not* part of the digest (membership-off digests are unchanged);
    it exists so compaction logic knows how many install notifications
    to expect.
    """

    seq: int
    cut: tuple[int, ...]  # one stable timestamp per client
    parent_digest: bytes
    digest: bytes
    signers: tuple[ClientId, ...] = ()

    @classmethod
    def genesis(cls, num_clients: int) -> "Checkpoint":
        """Checkpoint 0: the empty cut, the root of the chain."""
        cut = (0,) * num_clients
        return cls(
            seq=0,
            cut=cut,
            parent_digest=b"",
            digest=chain_digest(0, cut, b""),
            signers=tuple(range(num_clients)),
        )


def chain_digest(seq: int, cut: tuple[int, ...], parent_digest: bytes) -> bytes:
    """The digest binding a checkpoint to its whole ancestry."""
    return hash_values(CHECKPOINT_LABEL, seq, cut, parent_digest)


class CheckpointManager:
    """One client's view of the checkpoint co-signing protocol.

    Owned by a :class:`~repro.faust.client.FaustClient`, which feeds it
    stability advances (:meth:`on_stability`) and received shares
    (:meth:`on_share`) and provides the I/O callbacks:

    * ``send_share(share)`` — broadcast a share to every peer (offline
      channel),
    * ``send_server(message)`` — forward an installed certificate to the
      server(s) (only the proposer does this),
    * ``on_install(checkpoint)`` — an installed checkpoint to act on
      (prune local state),
    * ``on_fail(reason)`` — conflicting or forged shares: forking
      evidence, raise ``fail``.

    The manager draws no randomness and sets no timers: proposals and
    countersignatures are driven purely by stability advances and share
    arrivals, so runs stay deterministic.
    """

    def __init__(
        self,
        client_id: ClientId,
        num_clients: int,
        signer: ClientSigner,
        policy: CheckpointPolicy,
        *,
        send_share: Callable[[CheckpointShareMessage], None],
        send_server: Callable[[CheckpointMessage], None],
        on_install: Callable[[Checkpoint], None] | None = None,
        on_fail: Callable[[str], None] | None = None,
        membership: "MembershipManager | None" = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self._id = client_id
        self._n = num_clients
        self._signer = signer
        self.policy = policy
        self._send_share = send_share
        self._send_server = send_server
        self._on_install = on_install
        self._on_fail = on_fail
        self._membership = membership
        self._clock = clock
        self.installed = Checkpoint.genesis(num_clients)
        self._stable: tuple[int, ...] = (0,) * num_clients
        #: Buffered shares by sequence number (only ``installed.seq + 1``
        #: is actionable; later ones wait for their parent).
        self._shares: dict[int, dict[ClientId, CheckpointShareMessage]] = {}
        #: What I co-signed per sequence number — at most one (cut,
        #: parent) each, the non-equivocation the protocol rests on.
        self._signed: dict[int, tuple[tuple[int, ...], bytes]] = {}
        #: Recently installed (cut, parent, epoch-at-install) triples by
        #: seq, for comparing late shares from evicted clients against
        #: folded history (the epoch disambiguates benignly superseded
        #: proposals from genuine forks).
        self._recent: dict[int, tuple[tuple[int, ...], bytes, int]] = {
            0: (self.installed.cut, self.installed.parent_digest, 0)
        }
        #: The membership epoch current when ``installed`` was installed.
        self._installed_epoch = 0
        #: When the pending sequence first became due (interval crossed
        #: or a proposal arrived) without installing — the stall clock.
        self._pending_since: float | None = None
        self._failed = False
        # Instrumentation.
        self.installs = 0
        self.shares_sent = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def failed(self) -> bool:
        """Has this manager seen forking evidence and halted?"""
        return self._failed

    def shares_for(self, seq: int) -> dict[ClientId, CheckpointShareMessage]:
        """The share bucket for ``seq`` (empty if none) — read-only use."""
        return self._shares.get(seq, {})

    def stall_seconds(self, now: float) -> float:
        """How long the pending checkpoint has been due but uninstalled."""
        if self._pending_since is None:
            return 0.0
        return max(0.0, now - self._pending_since)

    def blocking_clients(self) -> tuple[ClientId, ...]:
        """Members whose share is missing from the pending bucket."""
        bucket = self._shares.get(self.installed.seq + 1)
        if not bucket:
            return ()
        return tuple(sorted(j for j in self._members() if j not in bucket))

    def _members(self) -> tuple[ClientId, ...]:
        if self._membership is not None:
            return self._membership.members
        return tuple(range(self._n))

    def _now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    def _epoch(self) -> int:
        return self._membership.epoch.epoch if self._membership else 0

    # ------------------------------------------------------------------ #
    # Inputs
    # ------------------------------------------------------------------ #

    def on_stability(self, stable_vector: tuple[int, ...]) -> None:
        """The client's all-clients stable cut advanced."""
        if self._failed:
            return
        self._stable = stable_vector
        if (
            self._pending_since is None
            and sum(stable_vector) - sum(self.installed.cut)
            >= self.policy.interval
        ):
            self._pending_since = self._now()
        self._maybe_propose()
        self._maybe_countersign()

    def on_share(self, share: CheckpointShareMessage) -> None:
        """A peer's share arrived over the offline channel."""
        if self._failed:
            return
        if not self._signer.verify(
            share.sender,
            share.signature,
            CHECKPOINT_LABEL,
            share.seq,
            share.cut,
            share.parent_digest,
        ):
            self._fail(
                f"checkpoint share for seq {share.seq} carries an invalid "
                f"signature claiming client {share.sender}"
            )
            return
        members = self._members()
        if share.sender not in members:
            # An evicted client's share never enters a quorum bucket: a
            # stale-epoch returnee may benignly compute itself proposer
            # and emit a cut the members never signed — that is lag, not
            # evidence.  Evidence is a share contradicting *installed*
            # history we still hold archived.
            archived = self._recent.get(share.seq)
            if share.seq <= self.installed.seq and archived is not None:
                cut, parent, install_epoch = archived
                # A share signed under an *older* epoch than the install
                # is the benign superseded-proposal race (the sender was
                # offline across an epoch change); only a divergent share
                # from the install's epoch onward contradicts co-signed
                # history.
                if share.epoch >= install_epoch and (
                    share.cut,
                    share.parent_digest,
                ) != (cut, parent):
                    self._fail(
                        f"checkpoint share from evicted client "
                        f"{share.sender} for installed seq {share.seq} "
                        f"diverges from the installed chain — forked "
                        f"stability views"
                    )
                    return
            if self._membership is not None:
                self._membership.note_contact(share.sender)
            return
        if self._membership is not None:
            self._membership.note_checkpoint_share(share.sender, share.seq)
        if share.seq < self.installed.seq:
            return  # stale: history we can no longer compare against
        if share.seq == self.installed.seq:
            if (share.cut, share.parent_digest) != (
                self.installed.cut,
                self.installed.parent_digest,
            ):
                if share.epoch > self._installed_epoch:
                    # My install predates an epoch change I have not yet
                    # processed: the members superseded this sequence
                    # under a newer epoch.  Lag, not evidence — the
                    # rejoin announce will re-seed me on their chain.
                    return
                self._fail(
                    f"checkpoint share for installed seq {share.seq} "
                    f"diverges from the installed checkpoint — forked "
                    f"stability views"
                )
            return  # a late duplicate of what everyone signed
        bucket = self._shares.setdefault(share.seq, {})
        for other in bucket.values():
            if (other.cut, other.parent_digest) != (
                share.cut,
                share.parent_digest,
            ):
                bucket_epoch = max(o.epoch for o in bucket.values())
                if share.epoch > bucket_epoch:
                    # The benign proposer race of an epoch transition:
                    # the new rotation's proposal supersedes the old
                    # one (which can no longer gather a full quorum).
                    # My own superseded countersignature is withdrawn
                    # so _advance re-signs the winner.
                    bucket.clear()
                    self._signed.pop(share.seq, None)
                    break
                if share.epoch < bucket_epoch:
                    return  # stale-epoch share, already superseded
                self._fail(
                    f"conflicting checkpoint shares for seq {share.seq} "
                    f"(cuts {other.cut} vs {share.cut}) — forked stability "
                    f"views"
                )
                return
        bucket[share.sender] = share
        if share.seq == self.installed.seq + 1 and self._pending_since is None:
            self._pending_since = self._now()
        self._advance()

    # ------------------------------------------------------------------ #
    # Protocol steps
    # ------------------------------------------------------------------ #

    def proposer(self, seq: int) -> ClientId:
        """Round-robin proposer of checkpoint ``seq`` over the members."""
        members = self._members()
        return members[(seq - 1) % len(members)]

    def _maybe_propose(self) -> None:
        members = self._members()
        if self._id not in members:
            return
        seq = self.installed.seq + 1
        if self._shares.get(seq):
            # A proposal is already in flight (possible only after an
            # epoch change shifted the rotation under it): countersign
            # that one instead of competing.  Without membership the
            # bucket cannot be non-empty before the unique proposer
            # proposes, so this guard never fires.
            return
        if self.proposer(seq) != self._id or seq in self._signed:
            return
        if sum(self._stable) - sum(self.installed.cut) < self.policy.interval:
            return
        self._sign_and_share(seq, self._stable, self.installed.digest)

    def _maybe_countersign(self) -> None:
        """Countersign the actionable proposal once my cut covers it."""
        if self._id not in self._members():
            return
        seq = self.installed.seq + 1
        bucket = self._shares.get(seq)
        if not bucket or seq in self._signed:
            return
        share = next(iter(bucket.values()))
        if share.parent_digest != self.installed.digest:
            if share.epoch > self._epoch():
                # The proposal was signed under an epoch I have not yet
                # installed: my chain view is behind, not forked.  Wait
                # for the epoch (or the rejoin announce) to catch up.
                return
            self._fail(
                f"checkpoint proposal for seq {seq} extends a different "
                f"parent than my installed checkpoint — forked chains"
            )
            return
        if all(mine >= cut for mine, cut in zip(self._stable, share.cut)):
            self._sign_and_share(seq, share.cut, share.parent_digest)

    def _sign_and_share(
        self, seq: int, cut: tuple[int, ...], parent_digest: bytes
    ) -> None:
        signature = self._signer.sign(CHECKPOINT_LABEL, seq, cut, parent_digest)
        share = CheckpointShareMessage(
            sender=self._id,
            seq=seq,
            cut=cut,
            parent_digest=parent_digest,
            signature=signature,
            epoch=self._epoch(),
        )
        self._signed[seq] = (cut, parent_digest)
        self._shares.setdefault(seq, {})[self._id] = share
        if seq == self.installed.seq + 1 and self._pending_since is None:
            self._pending_since = self._now()
        self.shares_sent += 1
        self._send_share(share)
        self._advance()

    def _advance(self) -> None:
        """Countersign and install everything actionable right now."""
        while not self._failed:
            self._maybe_countersign()
            members = self._members()
            seq = self.installed.seq + 1
            bucket = self._shares.get(seq)
            if (
                self._failed
                or not bucket
                or any(j not in bucket for j in members)
            ):
                return
            share = next(iter(bucket.values()))
            checkpoint = Checkpoint(
                seq=seq,
                cut=share.cut,
                parent_digest=share.parent_digest,
                digest=chain_digest(seq, share.cut, share.parent_digest),
                signers=members,
            )
            signatures = tuple(bucket[j].signature for j in members)
            del self._shares[seq]
            self._signed.pop(seq, None)
            self.installed = checkpoint
            self.installs += 1
            self._remember(checkpoint)
            self._pending_since = None
            if self._membership is not None:
                self._membership.note_install(seq)
            if self._on_install is not None:
                self._on_install(checkpoint)
            if self.proposer(seq) == self._id:
                # The proposer forwards the certificate; the server
                # truncates under its own defensive bound, so one copy
                # (not n) suffices and duplicates would only cost wire.
                self._send_server(
                    CheckpointMessage(
                        seq=seq, cut=share.cut, signatures=signatures
                    )
                )
            self._maybe_propose()

    # ------------------------------------------------------------------ #
    # Membership hooks
    # ------------------------------------------------------------------ #

    def on_members_changed(self) -> None:
        """A new epoch installed: re-evaluate rotation and quorums.

        A shrunken member set may make the pending bucket a full quorum
        right now, and the proposer rotation may have shifted onto this
        client.
        """
        if self._failed:
            return
        self._maybe_propose()
        self._advance()

    def adopt(
        self,
        seq: int,
        cut: tuple[int, ...],
        parent_digest: bytes,
        *,
        signers: tuple[ClientId, ...],
    ) -> None:
        """Install an announced checkpoint without collecting shares.

        The rejoin path: a returnee's history base is re-seeded at the
        members' last installed checkpoint, carried by an
        EPOCH-ANNOUNCE over the authenticated offline channel (trusted
        clients, same trust as VERSION messages — intermediate chain
        links are already folded, so linkage cannot be re-verified).
        A mismatch with what *this* client already installed at the same
        sequence is still forking evidence.
        """
        if self._failed or seq < self.installed.seq:
            return
        if seq == self.installed.seq:
            if (cut, parent_digest) != (
                self.installed.cut,
                self.installed.parent_digest,
            ):
                self._fail(
                    f"announced checkpoint for installed seq {seq} "
                    f"diverges from the installed checkpoint — forked "
                    f"stability views"
                )
            return
        checkpoint = Checkpoint(
            seq=seq,
            cut=cut,
            parent_digest=parent_digest,
            digest=chain_digest(seq, cut, parent_digest),
            signers=signers,
        )
        for stale in [s for s in self._shares if s <= seq]:
            del self._shares[stale]
        for stale in [s for s in self._signed if s <= seq]:
            del self._signed[stale]
        self.installed = checkpoint
        self.installs += 1
        self._remember(checkpoint)
        self._pending_since = None
        if self._on_install is not None:
            self._on_install(checkpoint)
        self._advance()

    def _remember(self, checkpoint: Checkpoint) -> None:
        """Archive the installed (cut, parent, epoch) for late-share checks."""
        self._installed_epoch = self._epoch()
        self._recent[checkpoint.seq] = (
            checkpoint.cut,
            checkpoint.parent_digest,
            self._installed_epoch,
        )
        while len(self._recent) > RECENT_ARCHIVE:
            del self._recent[min(self._recent)]

    def _fail(self, reason: str) -> None:
        self._failed = True
        if self._on_fail is not None:
            self._on_fail(reason)
