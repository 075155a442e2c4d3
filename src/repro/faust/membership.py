"""Lease-based membership epochs: checkpointing that survives dead clients.

The checkpoint protocol (:mod:`repro.faust.checkpoint`) needs a share
from *every* client to install a cut — one crashed-forever client stalls
the chain and the system silently degrades to the unbounded growth it was
built to avoid.  This module layers a membership story under it, modeled
on SAFIUS's accountable-filesystem leases:

* Every client holds a renewable **lease**, renewed implicitly by the
  checkpoint shares it sends (piggybacked — no extra lease traffic on a
  healthy run, so membership-on runs are message-identical to
  membership-off runs until a fault occurs).
* A periodic membership check watches who is **blocking** the pending
  checkpoint: members missing from the pending share bucket, a proposer
  withholding an overdue proposal, or members whose version rows have
  gone stale while the remaining rows carry a full interval of unfolded
  stability.  A member accumulates one *strike* per check it blocks;
  after ``lease_checkpoints`` strikes the lease has **lapsed**, after
  ``evict_after`` further strikes the survivors co-sign an **epoch
  change**.
* An epoch is a hash-chained record ``H("EPOCH", epoch, members,
  parent)``.  Installing one needs a signature from *every* member of
  the new set and (for evictions) a strict majority of the parent's
  members — so two disjoint survivor cliques can never both install a
  successor.  After the change, stability and checkpoint quorums are
  computed over the new member set: the chain resumes without the dead
  client, while cuts keep their full ``n``-wide shape (the server's
  defensive truncation is unchanged).
* An evicted client that returns **rejoins** through a fresh epoch: any
  member it contacts answers with the full epoch chain plus the last
  installed checkpoint (its re-seeded history base) and sponsors an
  add-epoch.  A returnee whose state *genuinely* conflicts with the
  chain — a share for an archived sequence with a different cut, or an
  announce that contradicts its own epoch record — is forking evidence
  and fails the run; a merely *stale* returnee is re-admitted, never
  falsely failed.

Safety is untouched by construction: epoch records never enter the
checkpoint digest, cuts stay full-width, and a fault-free run sends no
membership messages and draws no randomness (the membership timer runs
jitter-free), so membership-on runs are bit-identical to membership-off
runs until a client actually misbehaves or dies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.common.errors import ConfigurationError
from repro.common.types import ClientId
from repro.crypto.hashing import hash_values
from repro.crypto.keystore import ClientSigner
from repro.faust.messages import EpochAnnounceMessage, EpochShareMessage
from repro.faust.stability import StabilityTracker

if TYPE_CHECKING:  # pragma: no cover - typing only (import cycle)
    from repro.faust.checkpoint import CheckpointManager

#: Domain-separation label for epoch digests and co-signatures.
EPOCH_LABEL = "EPOCH"


@dataclass(frozen=True)
class MembershipPolicy:
    """Knobs of the lease layer (``SystemConfig(membership=...)``).

    ``lease_checkpoints`` is how many consecutive membership checks a
    member may block the pending checkpoint before its lease counts as
    *lapsed*; ``evict_after`` is the additional grace (in checks) between
    lapse and the eviction proposal, so a slow-but-live client has
    ``lease_checkpoints + evict_after`` check periods to produce a share
    before anyone signs it out.  ``rejoin`` lets evicted clients return
    through an add-epoch; ``check_period`` is the virtual-time cadence of
    the membership check (jitter-free, so it draws no randomness).
    """

    lease_checkpoints: int = 2
    evict_after: int = 3
    rejoin: bool = True
    check_period: float = 20.0

    def __post_init__(self) -> None:
        if self.lease_checkpoints < 1:
            raise ConfigurationError(
                f"lease_checkpoints must be at least 1, "
                f"got {self.lease_checkpoints}"
            )
        if self.evict_after < 1:
            raise ConfigurationError(
                f"evict_after must be at least 1, got {self.evict_after}"
            )
        if not self.check_period > 0:  # NaN fails too
            raise ConfigurationError(
                f"check_period must be positive, got {self.check_period}"
            )


@dataclass(frozen=True)
class Epoch:
    """One link of the membership hash chain."""

    epoch: int
    members: tuple[ClientId, ...]
    parent_digest: bytes
    digest: bytes

    @classmethod
    def genesis(cls, num_clients: int) -> "Epoch":
        """Epoch 0: every client a member, the root of the chain."""
        members = tuple(range(num_clients))
        return cls(
            epoch=0,
            members=members,
            parent_digest=b"",
            digest=epoch_digest(0, members, b""),
        )


def epoch_digest(
    epoch: int, members: tuple[ClientId, ...], parent_digest: bytes
) -> bytes:
    """The digest binding an epoch record to its whole ancestry."""
    return hash_values(EPOCH_LABEL, epoch, members, parent_digest)


class MembershipManager:
    """One client's view of the lease/epoch protocol.

    Owned by a :class:`~repro.faust.client.FaustClient`, which drives it
    with periodic checks (:meth:`on_tick`), received epoch traffic
    (:meth:`on_share` / :meth:`on_announce`) and contact notes, and
    provides the I/O callbacks:

    * ``send_share(share)`` — broadcast an epoch share to *every* client
      (evicted ones included: they track the chain too),
    * ``send_announce(peer, announce)`` — answer a returnee with the
      epoch chain and the last installed checkpoint,
    * ``request_rejoin(peer)`` — as an evictee, make contact with a live
      member (any offline message works; the client sends a VERSION),
    * ``on_epoch(epoch)`` — a newly installed epoch to act on,
    * ``on_fail(reason)`` — genuine forking evidence (divergent epoch
      records or forged signatures), raise ``fail``.

    The manager must be bound to its client's checkpoint manager
    (:meth:`bind`) before the first check: leases are judged against the
    pending checkpoint's share bucket.
    """

    def __init__(
        self,
        client_id: ClientId,
        num_clients: int,
        signer: ClientSigner,
        policy: MembershipPolicy,
        *,
        tracker: StabilityTracker,
        delta: float,
        send_share: Callable[[EpochShareMessage], None],
        send_announce: Callable[[ClientId, EpochAnnounceMessage], None],
        request_rejoin: Callable[[ClientId], None] | None = None,
        on_epoch: Callable[[Epoch], None] | None = None,
        on_fail: Callable[[str], None] | None = None,
    ) -> None:
        self._id = client_id
        self._n = num_clients
        self._signer = signer
        self.policy = policy
        self._tracker = tracker
        self._delta = delta
        self._send_share = send_share
        self._send_announce = send_announce
        self._request_rejoin = request_rejoin
        self._on_epoch = on_epoch
        self._on_fail = on_fail
        self.epoch = Epoch.genesis(num_clients)
        #: The full chain from genesis, indexed by epoch number.
        self.chain: list[Epoch] = [self.epoch]
        self._checkpoints: "CheckpointManager | None" = None
        #: Consecutive membership checks each member has spent blocking
        #: the pending checkpoint; any share from it resets the count.
        self.strikes: dict[ClientId, int] = {j: 0 for j in range(num_clients)}
        #: Highest checkpoint seq each client contributed a share for
        #: (the piggybacked lease renewals), for introspection/tests.
        self.last_share_seq: dict[ClientId, int] = {
            j: 0 for j in range(num_clients)
        }
        #: Candidate epochs by content — identical proposals from
        #: different sponsors merge their signatures here.
        self._candidates: dict[
            tuple[int, tuple[ClientId, ...], bytes],
            dict[ClientId, EpochShareMessage],
        ] = {}
        #: Non-equivocation: at most one *live* signature per epoch
        #: number — (members, parent, installed checkpoint seq at sign
        #: time); re-signing different content is allowed only after the
        #: checkpoint chain has progressed (which proves every member of
        #: the previously suspected set participated, voiding it).
        self._signed_epochs: dict[
            int, tuple[tuple[ClientId, ...], bytes, int]
        ] = {}
        #: (peer, epoch) pairs already answered with an announce.
        self._announced: set[tuple[ClientId, int]] = set()
        #: When the current block started (first check that saw blockers).
        self.blocked_since: float | None = None
        self._failed = False
        # Instrumentation.
        self.evictions = 0
        self.rejoins = 0
        self.shares_sent = 0
        self.announces_sent = 0

    def bind(self, checkpoints: "CheckpointManager") -> None:
        """Attach the checkpoint manager whose quorums this epoch scopes."""
        self._checkpoints = checkpoints

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def members(self) -> tuple[ClientId, ...]:
        """The current epoch's signer set."""
        return self.epoch.members

    @property
    def failed(self) -> bool:
        """Has this manager produced forking evidence and halted?"""
        return self._failed

    def is_member(self, client: ClientId | None = None) -> bool:
        """Is ``client`` (default: the owner) in the current epoch?"""
        target = self._id if client is None else client
        return target in self.epoch.members

    def evicted_clients(self) -> tuple[ClientId, ...]:
        """Clients outside the current epoch's member set."""
        members = set(self.epoch.members)
        return tuple(j for j in range(self._n) if j not in members)

    def lease_lapsed(self, client: ClientId) -> bool:
        """Has ``client`` blocked for at least ``lease_checkpoints`` checks?"""
        return self.strikes.get(client, 0) >= self.policy.lease_checkpoints

    # ------------------------------------------------------------------ #
    # Lease renewals (piggybacked on checkpoint traffic)
    # ------------------------------------------------------------------ #

    def note_checkpoint_share(self, sender: ClientId, seq: int) -> None:
        """A member's checkpoint share doubles as its lease renewal."""
        if self._failed or sender not in self.epoch.members:
            return
        self.last_share_seq[sender] = max(self.last_share_seq[sender], seq)
        self.strikes[sender] = 0

    def note_install(self, seq: int) -> None:
        """The checkpoint chain progressed: every member participated.

        Progress voids all suspicion — a sequence installs only with a
        share from every current member, so nobody can have been blocking
        it — including this client's own signature lock on a pending
        epoch-change candidate (see ``_signed_epochs``).
        """
        if self._failed:
            return
        for j in self.epoch.members:
            self.strikes[j] = 0
            self.last_share_seq[j] = max(self.last_share_seq[j], seq)
        self.blocked_since = None

    # ------------------------------------------------------------------ #
    # The periodic membership check
    # ------------------------------------------------------------------ #

    def on_tick(self, now: float) -> None:
        """One membership check: account strikes, maybe propose eviction."""
        if self._failed or self._checkpoints is None:
            return
        if self._id not in self.epoch.members:
            # Evicted but alive (e.g. back from an over-long offline
            # window): keep soliciting a rejoin until a member answers.
            if self.policy.rejoin and self._request_rejoin is not None:
                live = [j for j in self.epoch.members]
                if live:
                    self._request_rejoin(live[0])
            return
        blockers = self.blocking_clients(now)
        self.blocked_since = (
            (self.blocked_since if self.blocked_since is not None else now)
            if blockers
            else None
        )
        for j in self.epoch.members:
            if j == self._id:
                continue
            if j in blockers:
                self.strikes[j] += 1
            else:
                self.strikes[j] = 0
        threshold = self.policy.lease_checkpoints + self.policy.evict_after
        lapsed = tuple(
            sorted(
                j
                for j in self.epoch.members
                if j != self._id and self.strikes[j] >= threshold
            )
        )
        if lapsed:
            survivors = tuple(
                j for j in self.epoch.members if j not in lapsed
            )
            if len(survivors) > len(self.epoch.members) // 2:
                self._propose(survivors)
        self._reconsider()

    def blocking_clients(self, now: float) -> frozenset[ClientId]:
        """Which members are blocking the pending checkpoint right now?

        Three ways to block, checked in order:

        * a proposal for the pending sequence exists, I countersigned it,
          and the member's share is missing (a member that has not signed
          *either* cannot blame others — its own stability may lag);
        * no proposal exists although my member-scoped stability already
          crossed the interval: the proposer is withholding it;
        * no proposal exists and stability itself is frozen: members
          whose version rows have gone probe-stale are blocking if the
          remaining rows alone carry a full interval of unfolded
          stability (the counterfactual cut an eviction would unlock).
        """
        cm = self._checkpoints
        if cm is None or cm.failed:
            return frozenset()
        members = self.epoch.members
        seq = cm.installed.seq + 1
        bucket = cm.shares_for(seq)
        if bucket:
            if self._id not in bucket:
                return frozenset()
            return frozenset(j for j in members if j not in bucket)
        floor = sum(cm.installed.cut)
        interval = cm.policy.interval
        if (
            sum(self._tracker.stable_vector(members=members)) - floor
            >= interval
        ):
            proposer = cm.proposer(seq)
            if proposer != self._id:
                return frozenset((proposer,))
            return frozenset()
        stale = frozenset(
            j
            for j in self._tracker.stale_peers(now, self._delta)
            if j in members
        )
        live = tuple(j for j in members if j not in stale)
        if (
            stale
            and live
            and sum(self._tracker.stable_vector(members=live)) - floor
            >= interval
        ):
            return stale
        return frozenset()

    # ------------------------------------------------------------------ #
    # Epoch-change proposals and countersigning
    # ------------------------------------------------------------------ #

    def _propose(self, members_new: tuple[ClientId, ...]) -> None:
        """Sign and broadcast an epoch-change candidate (if allowed)."""
        epoch = self.epoch.epoch + 1
        parent = self.epoch.digest
        if not self._endorsable(members_new):
            return
        if not self._may_sign(epoch, members_new, parent):
            return
        self._sign(epoch, members_new, parent)
        self._reconsider()

    def _endorsable(self, members_new: tuple[ClientId, ...]) -> bool:
        """Would I countersign this successor to my current epoch?"""
        old = set(self.epoch.members)
        new = set(members_new)
        if self._id not in new:
            return False  # my signature cannot be required; do not endorse
        evicted = old - new
        added = new - old
        if added and evicted:
            return False  # one direction per epoch keeps the rules simple
        if added:
            # Re-admissions are always safe: an extra signer can only
            # strengthen future quorums.
            return bool(self.policy.rejoin)
        if not evicted:
            return False
        if len(new) <= len(old) // 2:
            return False  # majority rule: no disjoint successor cliques
        return all(self.lease_lapsed(j) for j in evicted)

    def _may_sign(
        self, epoch: int, members: tuple[ClientId, ...], parent: bytes
    ) -> bool:
        """Non-equivocation with a progress escape hatch.

        At most one live signature per epoch number; different content
        may replace it only after the checkpoint chain has progressed
        (proof that every previously suspected member is alive, which
        voids the earlier candidate — nobody else will complete it).
        """
        lock = self._signed_epochs.get(epoch)
        if lock is None:
            return True
        locked_members, locked_parent, locked_at = lock
        if (locked_members, locked_parent) == (members, parent):
            return False  # already signed exactly this candidate
        cm = self._checkpoints
        return cm is not None and cm.installed.seq > locked_at

    def _sign(
        self, epoch: int, members: tuple[ClientId, ...], parent: bytes
    ) -> None:
        signature = self._signer.sign(EPOCH_LABEL, epoch, members, parent)
        share = EpochShareMessage(
            sender=self._id,
            epoch=epoch,
            members=members,
            parent_digest=parent,
            signature=signature,
        )
        installed_seq = (
            self._checkpoints.installed.seq
            if self._checkpoints is not None
            else 0
        )
        previous = self._signed_epochs.get(epoch)
        if previous is not None and previous[:2] != (members, parent):
            # Withdraw my own copy of the superseded candidate's share
            # (peers that already hold the broadcast copy self-heal
            # through the rejoin path).
            stale = self._candidates.get((epoch,) + previous[:2])
            if stale is not None:
                stale.pop(self._id, None)
        self._signed_epochs[epoch] = (members, parent, installed_seq)
        self._candidates.setdefault((epoch, members, parent), {})[
            self._id
        ] = share
        self.shares_sent += 1
        self._send_share(share)

    def on_share(self, share: EpochShareMessage) -> None:
        """An epoch share arrived over the offline channel."""
        if self._failed:
            return
        if not self._signer.verify(
            share.sender,
            share.signature,
            EPOCH_LABEL,
            share.epoch,
            share.members,
            share.parent_digest,
        ):
            self._fail(
                f"epoch share for epoch {share.epoch} carries an invalid "
                f"signature claiming client {share.sender}"
            )
            return
        if not self._well_formed(share.members):
            return  # malformed member set: not evidence, just ignored
        if share.epoch <= self.epoch.epoch:
            record = self.chain[share.epoch]
            if (share.members, share.parent_digest) != (
                record.members,
                record.parent_digest,
            ):
                self._fail(
                    f"epoch share for installed epoch {share.epoch} "
                    f"diverges from my membership chain — forked epochs"
                )
            return  # a late duplicate of an installed record
        key = (share.epoch, share.members, share.parent_digest)
        self._candidates.setdefault(key, {})[share.sender] = share
        self._reconsider()

    def _well_formed(self, members: tuple[ClientId, ...]) -> bool:
        return (
            bool(members)
            and all(0 <= j < self._n for j in members)
            and tuple(sorted(set(members))) == tuple(members)
        )

    def _reconsider(self) -> None:
        """Countersign and install every actionable candidate."""
        progressed = True
        while progressed and not self._failed:
            progressed = False
            target = self.epoch.epoch + 1
            parent = self.epoch.digest
            for key in sorted(self._candidates):
                epoch, members, candidate_parent = key
                if epoch != target or candidate_parent != parent:
                    continue
                bucket = self._candidates[key]
                if (
                    self._id not in bucket
                    and self._endorsable(members)
                    and self._may_sign(epoch, members, parent)
                ):
                    self._sign(epoch, members, parent)
                    refreshed = self._candidates.get(key)
                    if refreshed is None or self.epoch.epoch >= epoch:
                        # The broadcast was delivered reentrantly (zero
                        # latency): a peer completed the quorum and this
                        # manager already installed the epoch inside the
                        # nested on_share.  Start the scan over.
                        progressed = True
                        break
                    bucket = refreshed
                if all(j in bucket for j in members):
                    self._install(epoch, members, parent)
                    progressed = True
                    break

    def _install(
        self, epoch: int, members: tuple[ClientId, ...], parent: bytes
    ) -> None:
        old_members = set(self.epoch.members)
        record = Epoch(
            epoch=epoch,
            members=members,
            parent_digest=parent,
            digest=epoch_digest(epoch, members, parent),
        )
        self.chain.append(record)
        self.epoch = record
        self.evictions += len(old_members - set(members))
        self.rejoins += len(set(members) - old_members)
        for j in range(self._n):
            self.strikes[j] = 0
        cm_seq = (
            self._checkpoints.installed.seq
            if self._checkpoints is not None
            else 0
        )
        for j in set(members) - old_members:
            # A fresh lease for the returnee, dated at the current cut.
            self.last_share_seq[j] = max(self.last_share_seq[j], cm_seq)
        self._candidates = {
            key: bucket
            for key, bucket in self._candidates.items()
            if key[0] > epoch
        }
        self._signed_epochs = {
            number: lock
            for number, lock in self._signed_epochs.items()
            if number > epoch
        }
        self.blocked_since = None
        if self._on_epoch is not None:
            self._on_epoch(record)

    # ------------------------------------------------------------------ #
    # Rejoin
    # ------------------------------------------------------------------ #

    def note_contact(self, sender: ClientId) -> None:
        """An evicted client made contact: announce the chain, sponsor it."""
        if (
            self._failed
            or not self.policy.rejoin
            or not 0 <= sender < self._n
            or sender in self.epoch.members
            or self._id not in self.epoch.members
        ):
            return
        key = (sender, self.epoch.epoch)
        if key not in self._announced:
            self._announced.add(key)
            self.announces_sent += 1
            self._send_announce(sender, self.build_announce())
        members_new = tuple(sorted(set(self.epoch.members) | {sender}))
        self._propose(members_new)

    def build_announce(self) -> EpochAnnounceMessage:
        """The rejoin bootstrap: full epoch chain + last installed cut."""
        cm = self._checkpoints
        return EpochAnnounceMessage(
            sender=self._id,
            records=tuple(
                (record.epoch, record.members, record.parent_digest)
                for record in self.chain
            ),
            checkpoint_seq=cm.installed.seq if cm is not None else 0,
            checkpoint_cut=cm.installed.cut if cm is not None else (),
            checkpoint_parent=(
                cm.installed.parent_digest if cm is not None else b""
            ),
        )

    def on_announce(self, announce: EpochAnnounceMessage) -> None:
        """Adopt an announced epoch chain (the evictee's catch-up path).

        The chain is verified by digest linkage from genesis, then
        cross-checked against my own records: a divergence is forking
        evidence (somebody forged membership history), a mere extension
        is adopted.  The announced checkpoint re-seeds the checkpoint
        manager so the returnee's history base matches the members'
        compacted state.
        """
        if self._failed:
            return
        parent = b""
        rebuilt: list[Epoch] = []
        for index, (epoch, members, record_parent) in enumerate(
            announce.records
        ):
            if (
                epoch != index
                or record_parent != parent
                or not self._well_formed(tuple(members))
            ):
                return  # malformed announce: ignored, never evidence
            digest = epoch_digest(epoch, tuple(members), parent)
            rebuilt.append(Epoch(epoch, tuple(members), parent, digest))
            parent = digest
        if not rebuilt:
            return
        for mine, theirs in zip(self.chain, rebuilt):
            if mine.digest != theirs.digest:
                self._fail(
                    f"announced epoch chain diverges from my membership "
                    f"record at epoch {mine.epoch} — forked epochs"
                )
                return
        if len(rebuilt) > len(self.chain):
            self.chain = rebuilt
            self.epoch = rebuilt[-1]
            for j in range(self._n):
                self.strikes[j] = 0
            self._candidates = {
                key: bucket
                for key, bucket in self._candidates.items()
                if key[0] > self.epoch.epoch
            }
            self._signed_epochs = {
                number: lock
                for number, lock in self._signed_epochs.items()
                if number > self.epoch.epoch
            }
            self.blocked_since = None
            if self._on_epoch is not None:
                self._on_epoch(self.epoch)
        if self._checkpoints is not None and announce.checkpoint_cut:
            self._checkpoints.adopt(
                announce.checkpoint_seq,
                tuple(announce.checkpoint_cut),
                announce.checkpoint_parent,
                signers=self.epoch.members,
            )
        self._reconsider()

    # ------------------------------------------------------------------ #

    def _fail(self, reason: str) -> None:
        self._failed = True
        if self._on_fail is not None:
            self._on_fail(reason)
