"""Authenticated checkpoints: one co-signed chain of links and signers.

FAUST's bookkeeping grows without bound — the server's ``pending`` list
is pruned only incidentally by COMMITs, clients accumulate view-history
records forever, and the incremental checkers keep every write they ever
saw.  This module adds the bounded-state extension: once a prefix of
operations is **stable for all members** (below the member-scoped
stability cut, Section 6), the members co-sign a *link* that folds it,
after which every party drops the folded history:

* the server truncates the covered ``pending`` prefix and compacts its
  WAL (:func:`repro.ustor.server.apply_checkpoint`),
* clients prune view-history records at or below the cut,
* the history recorder and incremental checkers drop pruned operations
  (:meth:`repro.history.recorder.HistoryRecorder.compact`).

**The chain.**  A link is ``(seq, cut, members, parent)`` with digest
``H("CHECKPOINT", seq, cut, members, parent)``: a sequence number, one
stable timestamp per client, the set of clients that co-sign it, and
the digest of the link it extends.  Genesis has ``seq`` 0, the empty cut
and every client.  A link installs once *every* member of its
``members`` has signed it; each co-signature travels in a
CHECKPOINT-SHARE over the offline channel.  The same chain carries
membership: a link whose member set differs from its parent's evicts or
re-admits clients, and every later link is co-signed by the new set.
The lease ledger (:mod:`repro.faust.membership`) only decides *when* to
propose such a link; it signs nothing and keeps no chain.

**The rules** (``P`` is the parent link, the one a proposal extends):

* *Fold.*  The proposer of ``seq`` is ``P.members[(seq - 1) mod
  |P.members|]``; once its member-scoped stable cut has grown by
  ``interval`` past ``P.cut`` it proposes ``(seq, cut, P.members, P)``.
  Every member countersigns the proposer's cut as soon as its own
  stable cut covers it.
* *Member change.*  A link whose members differ from ``P.members``
  carries ``P.cut``.  Any member may sponsor one; identical proposals
  are one link, so their signatures merge.  A signer endorses it only
  if (the ledger's rules) it adds members or removes them, never both;
  a removal keeps a strict majority of ``P.members``; and every evictee's
  lease has lapsed in the signer's own view.  An evictee never signs its
  own removal; a re-admitted client signs its re-admission.
* *Non-equivocation.*  A client signs at most one cut per ``(seq,
  parent, members)`` and at most one member-changing link per ``(seq,
  parent)``.
* *Evidence.*  Two links signed for the same ``seq``, parent and
  members that differ, or two member-changing links for one ``(seq,
  parent)`` signed by the same client, are forking evidence: ``fail``.
  Nothing else is — a share whose parent a client does not hold, or a
  returnee's share for links the others have moved past, is lag.
* *Install.*  A client installs a complete link that extends its
  installed one.  Of two complete siblings (same ``seq`` and parent) the
  one whose member set is a strict subset of the other's supersedes it:
  a removal beats the stalled fold that still waits for the evictee, a
  fold beats a re-admission it raced.  A client that installed the
  superseded sibling is lagging, not forked: it installs the winner when
  the winner completes, and never outputs ``fail``.
* *Catch-up.*  A client holding a complete link ahead of its installed
  one that does not extend it is lagging the same way — the link's
  signers went on along links it missed, or along the superseded
  sibling after a winner signer signed late.  It asks one of them for
  the links (a REJOIN naming its installed ``seq``; once per installed
  link and membership check, a different signer each time); the signer
  answers with the links it still archives from there on, or its last
  installed link when the asker is further behind, and the asker adopts
  the answer on the authenticated channel if it still reaches past its
  installed link: the longer chain wins.
* *Rejoin.*  An evictee asks a member the same way at every membership
  check; a member that hears from an evictee sponsors a link that adds
  it back, which the evictee co-signs once it holds the parent.

Why detection survives pruning: only operations stable at every member
are folded, and stability already places them on a common linearizable
prefix certified by the version vectors each client retains.  A rollback
across a checkpoint re-serves a version that no longer dominates some
client's committed version — caught by the same comparability checks as
today (Algorithm 1 lines 36/43), with no need for the pruned history.
Cuts stay ``n`` wide whatever the member set, so the server's defensive
truncation is the same with or without membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.common.errors import ConfigurationError
from repro.common.types import ClientId
from repro.crypto.hashing import hash_values
from repro.crypto.keystore import ClientSigner
from repro.faust.messages import CheckpointShareMessage, RejoinMessage
from repro.ustor.messages import CheckpointMessage

if TYPE_CHECKING:  # pragma: no cover - typing only (import cycle)
    from repro.faust.membership import MembershipManager

#: Domain-separation label for link digests and co-signatures.
CHECKPOINT_LABEL = "CHECKPOINT"

#: How many installed links each client archives: for judging late
#: shares against installed history and for answering rejoins.
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
    """An installed link of the authenticated chain."""

    seq: int
    cut: tuple[int, ...]  # one stable timestamp per client
    members: tuple[ClientId, ...]  # the clients that co-signed it
    parent_digest: bytes
    digest: bytes

    @classmethod
    def link(
        cls,
        seq: int,
        cut: tuple[int, ...],
        members: tuple[ClientId, ...],
        parent_digest: bytes,
    ) -> "Checkpoint":
        """The link with these contents and its digest."""
        return cls(
            seq, cut, members, parent_digest,
            chain_digest(seq, cut, members, parent_digest),
        )

    @classmethod
    def genesis(cls, num_clients: int) -> "Checkpoint":
        """Link 0: the empty cut, every client a member."""
        return cls.link(0, (0,) * num_clients, tuple(range(num_clients)), b"")


def chain_digest(
    seq: int,
    cut: tuple[int, ...],
    members: tuple[ClientId, ...],
    parent_digest: bytes,
) -> bytes:
    """The digest binding a link to its signers and its whole ancestry."""
    return hash_values(CHECKPOINT_LABEL, seq, cut, members, parent_digest)


class CheckpointManager:
    """One client's view of the chain.

    Owned by a :class:`~repro.faust.client.FaustClient`, which feeds it
    stability advances (:meth:`on_stability`), received shares
    (:meth:`on_share`) and rejoin traffic (:meth:`on_rejoin`), and
    provides the I/O callbacks:

    * ``send_share(share)`` — broadcast a share to every peer,
    * ``send_server(message)`` — forward a fold's certificate to the
      server(s) (only its proposer does this),
    * ``send_rejoin(peer, message)`` — ask a peer for the links after
      mine, or answer a peer that asked,
    * ``on_install(checkpoint)`` — an installed link to act on (prune
      local state),
    * ``on_fail(reason)`` — forking evidence or a forged share: ``fail``.

    With membership on, a :class:`~repro.faust.membership.MembershipManager`
    attaches itself as :attr:`ledger`: it hears of every share and
    install, and the chain asks it whether to endorse a member change.

    The manager draws no randomness and sets no timers: proposals and
    countersignatures are driven purely by stability advances, share
    arrivals and the ledger's checks, so runs stay deterministic.
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
        send_rejoin: Callable[[ClientId, RejoinMessage], None] | None = None,
        on_install: Callable[[Checkpoint], None] | None = None,
        on_fail: Callable[[str], None] | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self._id = client_id
        self._n = num_clients
        self._signer = signer
        self.policy = policy
        self._send_share = send_share
        self._send_server = send_server
        self._send_rejoin = send_rejoin
        self._on_install = on_install
        self._on_fail = on_fail
        self._clock = clock
        #: The lease ledger advising this chain, if membership is on.
        self.ledger: "MembershipManager | None" = None
        self.installed = Checkpoint.genesis(num_clients)
        self._stable: tuple[int, ...] = (0,) * num_clients
        #: Co-signatures collected per proposed link, keyed by ``(seq,
        #: parent, members)``: the link's cut and its shares by signer.
        #: A second cut under one key is evidence, so one cut suffices.
        self._slots: dict[
            tuple[int, bytes, tuple[ClientId, ...]],
            tuple[tuple[int, ...], dict[ClientId, CheckpointShareMessage]],
        ] = {}
        #: What I signed: ``(seq, parent, changes_members)`` — one fold
        #: and one member change per ``(seq, parent)`` at most.
        self._signed: set[tuple[int, bytes, bool]] = set()
        #: The most recently installed links by seq.
        self._recent: dict[int, Checkpoint] = {0: self.installed}
        #: The installed link I was on when I last asked for the links
        #: ahead of it (one request per installed link and check), and
        #: how many I sent, to rotate over the signers asked.
        self._asked_on: bytes | None = None
        self._catch_ups = 0
        #: When the next link first became due (interval crossed or a
        #: proposal arrived) without installing — the stall clock.
        self._pending_since: float | None = None
        self._failed = False
        # Instrumentation.
        self.installs = 0
        self.shares_sent = 0
        #: Installed links that changed their parent's member set, and
        #: the clients they re-admitted.
        self.member_changes = 0
        self.rejoins = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def failed(self) -> bool:
        """Has this manager seen forking evidence and halted?"""
        return self._failed

    def shares_for(self, seq: int) -> dict[ClientId, CheckpointShareMessage]:
        """Every share held for links at ``seq``, by signer — read-only use."""
        shares: dict[ClientId, CheckpointShareMessage] = {}
        for (slot_seq, _parent, _members), (_cut, bucket) in self._slots.items():
            if slot_seq == seq:
                shares.update(bucket)
        return shares

    def stall_seconds(self, now: float) -> float:
        """How long the next link has been due but uninstalled."""
        if self._pending_since is None:
            return 0.0
        return max(0.0, now - self._pending_since)

    def blocking_clients(self, now: float | None = None) -> tuple[ClientId, ...]:
        """Who is blocking the next link, in my view.

        Members whose share is missing from a proposal I signed (a client
        that has signed nothing cannot blame others: its own stability
        may lag).  With no proposal at all, the ledger (if any) names a
        proposer withholding an overdue fold or members whose rows went
        stale (:meth:`~repro.faust.membership.MembershipManager.overdue`).
        """
        members = self.installed.members
        if self._failed or self._id not in members:
            return ()
        bucket = self.shares_for(self.installed.seq + 1)
        if bucket:
            if self._id not in bucket:
                return ()
            return tuple(j for j in members if j not in bucket)
        if self.ledger is None:
            return ()
        return self.ledger.overdue(self._now() if now is None else now)

    def proposer(self, seq: int) -> ClientId:
        """Round-robin proposer of the fold ``seq`` on the installed link."""
        members = self.installed.members
        return members[(seq - 1) % len(members)]

    def _now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    # ------------------------------------------------------------------ #
    # Inputs
    # ------------------------------------------------------------------ #

    def on_stability(self, stable_vector: tuple[int, ...]) -> None:
        """The client's member-scoped stable cut advanced."""
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
        self._countersign()

    def on_share(self, share: CheckpointShareMessage) -> None:
        """A peer's share arrived over the offline channel."""
        if self._failed:
            return
        seq, cut, members, parent = (
            share.seq, share.cut, share.members, share.parent_digest
        )
        if share.sender not in members or not self._well_formed(cut, members):
            return  # no honest client signs this: ignored, never evidence
        if not self._signer.verify(
            share.sender,
            share.signature,
            CHECKPOINT_LABEL,
            seq,
            cut,
            members,
            parent,
        ):
            self._fail(
                f"checkpoint share for seq {seq} carries an invalid "
                f"signature claiming client {share.sender}"
            )
            return
        reason = self._evidence(seq, cut, members, parent, (share.sender,))
        if reason is not None:
            self._fail(reason)
            return
        if self.ledger is not None:
            if share.sender in self.installed.members:
                self.ledger.note_checkpoint_share(share.sender)
            else:
                self.ledger.note_contact(share.sender)
        link = self.installed
        if seq < link.seq or (
            (seq, parent, members)
            == (link.seq, link.parent_digest, link.members)
        ):
            return  # history already installed, judged above
        key = (seq, parent, members)
        self._slots.setdefault(key, (cut, {}))[1][share.sender] = share
        if seq == link.seq + 1 and self._pending_since is None:
            self._pending_since = self._now()
        self._advance()

    def on_rejoin(self, message: RejoinMessage) -> None:
        """A lagging client's request (no links), or the answer to mine."""
        if self._failed:
            return
        if message.links:
            self._adopt(message.links)
            return
        link = self.installed
        if message.seq < link.seq and self._send_rejoin is not None:
            # The links still archived from the requester's on, or my
            # last one when it is further behind than the archive.
            suffix = [link]
            if message.seq in self._recent:
                suffix = [
                    self._recent[q]
                    for q in sorted(self._recent)
                    if q >= message.seq
                ]
            self._send_rejoin(
                message.sender,
                RejoinMessage(
                    sender=self._id,
                    seq=link.seq,
                    links=tuple(
                        (old.seq, old.cut, old.members, old.parent_digest)
                        for old in suffix
                    ),
                ),
            )
        if self.ledger is not None:
            self.ledger.note_contact(message.sender)

    def ask_for_links(self, peer: ClientId) -> None:
        """Ask ``peer`` for the links after my installed one."""
        if self._send_rejoin is not None:
            self._send_rejoin(
                peer, RejoinMessage(sender=self._id, seq=self.installed.seq)
            )

    def propose_members(self, members: tuple[ClientId, ...]) -> None:
        """Sponsor the member change to ``members`` as the next link."""
        link = self.installed
        seq = link.seq + 1
        if (
            self._failed
            or (seq, link.digest, True) in self._signed
            or not self._endorses(members)
        ):
            return
        self._sign(seq, link.cut, members, link.digest)

    def reconsider(self) -> None:
        """Countersign and install whatever has become actionable, and
        ask again for links I lag behind (each membership check)."""
        if not self._failed:
            self._asked_on = None
            self._advance()

    # ------------------------------------------------------------------ #
    # Protocol steps
    # ------------------------------------------------------------------ #

    def _maybe_propose(self) -> None:
        link = self.installed
        seq = link.seq + 1
        if (
            self.proposer(seq) != self._id
            or (seq, link.digest, False) in self._signed
            or (seq, link.digest, link.members) in self._slots
        ):
            return
        if sum(self._stable) - sum(link.cut) < self.policy.interval:
            return
        self._sign(seq, self._stable, link.members, link.digest)

    def _countersign(self) -> bool:
        """Sign one proposal extending my installed link, if I may."""
        link = self.installed
        seq = link.seq + 1
        # Returns right after signing: _sign may change the slots.
        for (slot_seq, parent, members), (cut, bucket) in self._slots.items():
            if (
                slot_seq != seq
                or parent != link.digest
                or self._id in bucket
                or self._id not in members
            ):
                continue
            if members == link.members:
                if (seq, parent, False) in self._signed or not all(
                    mine >= theirs for mine, theirs in zip(self._stable, cut)
                ):
                    continue
            elif (
                cut != link.cut
                or (seq, parent, True) in self._signed
                or not self._endorses(members)
            ):
                continue
            self._sign(seq, cut, members, parent)
            return True
        return False

    def _endorses(self, members: tuple[ClientId, ...]) -> bool:
        return self.ledger is not None and self.ledger.endorses(
            self.installed.members, members
        )

    def _sign(
        self,
        seq: int,
        cut: tuple[int, ...],
        members: tuple[ClientId, ...],
        parent: bytes,
    ) -> None:
        signature = self._signer.sign(
            CHECKPOINT_LABEL, seq, cut, members, parent
        )
        share = CheckpointShareMessage(
            sender=self._id,
            seq=seq,
            cut=cut,
            members=members,
            parent_digest=parent,
            signature=signature,
        )
        self._signed.add((seq, parent, members != self.installed.members))
        self._slots.setdefault((seq, parent, members), (cut, {}))[1][
            self._id
        ] = share
        if self._pending_since is None:
            self._pending_since = self._now()
        self.shares_sent += 1
        self._send_share(share)
        self._advance()

    def _advance(self) -> None:
        """Countersign and install everything actionable right now."""
        while not self._failed:
            if self._countersign():
                continue
            complete = self._complete()
            if complete is None:
                self._catch_up()
                return
            self._install(*complete)
            self._maybe_propose()

    def _catch_up(self) -> None:
        """A co-signed link ahead of mine that I could not install means
        its signers went on along a chain I do not hold: I am lagging,
        and ask one of them for the links (once per installed link until
        the next check, a different signer each time)."""
        link = self.installed
        if self._asked_on == link.digest:
            return
        for (seq, _parent, members), (_cut, bucket) in self._slots.items():
            others = [j for j in members if j != self._id]
            if seq > link.seq and len(bucket) == len(members) and others:
                self._asked_on = link.digest
                self.ask_for_links(others[self._catch_ups % len(others)])
                self._catch_ups += 1
                return

    def _complete(
        self,
    ) -> tuple[Checkpoint, dict[ClientId, CheckpointShareMessage]] | None:
        """The complete link to install next: a sibling superseding my
        installed link first, else the child with the fewest members."""
        link = self.installed
        best = None
        for (seq, parent, members), (cut, bucket) in self._slots.items():
            if seq == link.seq + 1 and parent == link.digest:
                rank = (1, len(members))
            elif (
                seq == link.seq
                and parent == link.parent_digest
                and len(members) < len(link.members)
                and set(members) <= set(link.members)
            ):
                rank = (0, len(members))
            else:
                continue
            # Only members' shares enter a bucket: full means complete.
            if (best is None or rank < best[0]) and len(bucket) == len(members):
                best = (rank, seq, cut, members, parent, bucket)
        if best is None:
            return None
        _rank, seq, cut, members, parent, bucket = best
        return Checkpoint.link(seq, cut, members, parent), bucket

    def _install(
        self,
        link: Checkpoint,
        bucket: dict[ClientId, CheckpointShareMessage] | None = None,
    ) -> None:
        """Make ``link`` the installed one; ``bucket`` holds its
        signatures (``None`` for an adopted link)."""
        old = self.installed
        if old.seq == link.seq:
            self._count(old, -1)  # a superseded sibling gives way
        if link.parent_digest not in (old.digest, old.parent_digest):
            # Adopted past a gap or off another branch: what I archived
            # is not this link's ancestry.
            self._recent = {}
        self._count(link, 1)
        self.installed = link
        self.installs += 1
        self._recent[link.seq] = link
        while len(self._recent) > RECENT_ARCHIVE:
            del self._recent[min(self._recent)]
        own = (link.seq, link.parent_digest, link.members)
        self._slots = {
            key: slot
            for key, slot in self._slots.items()
            if key[0] > link.seq or (key[0] == link.seq and key != own)
        }
        self._signed = {key for key in self._signed if key[0] > link.seq}
        self._pending_since = None
        if self._on_install is not None:
            self._on_install(link)
        if (
            bucket is not None
            and sum(link.cut) > sum(old.cut)
            and link.members[(link.seq - 1) % len(link.members)] == self._id
        ):
            # A fold (its cut grew), and I proposed it: forward the
            # certificate.  The server truncates under its own defensive
            # bound, so one copy (not n) suffices.
            self._send_server(
                CheckpointMessage(
                    seq=link.seq,
                    cut=link.cut,
                    signatures=tuple(bucket[j].signature for j in link.members),
                )
            )
        if self.ledger is not None:
            self.ledger.note_install(link)

    def _count(self, link: Checkpoint, sign: int) -> None:
        """Count ``link`` (``sign`` 1) or uncount it (-1) as a member
        change, if its parent is archived and has other members."""
        parent = self._recent.get(link.seq - 1)
        if (
            parent is not None
            and parent.digest == link.parent_digest
            and parent.members != link.members
        ):
            self.member_changes += sign
            self.rejoins += sign * len(set(link.members) - set(parent.members))

    def _adopt(self, links) -> None:
        """Install a member's rejoin answer, oldest link first.

        The answer rides the authenticated offline channel from a
        trusted client, so the links carry no signatures.  If it still
        reaches past my installed link (I may have moved on since I
        asked), its chain is the longer one and wins: every link at or
        past my installed ``seq`` that I do not hold is installed, linked
        to mine or not.  The one evidence rule still judges each against
        what I hold.
        """
        ahead = links[-1][0] > self.installed.seq
        for seq, cut, members, parent in links:
            if not self._well_formed(cut, members):
                return  # malformed answer: ignored, never evidence
            reason = self._evidence(seq, cut, members, parent, members)
            if reason is not None:
                self._fail(reason)
                return
            link = Checkpoint.link(seq, cut, members, parent)
            if (
                ahead
                and seq >= self.installed.seq
                and self._recent.get(seq) != link
            ):
                self._install(link)
        self._advance()

    # ------------------------------------------------------------------ #
    # Evidence
    # ------------------------------------------------------------------ #

    def _evidence(
        self,
        seq: int,
        cut: tuple[int, ...],
        members: tuple[ClientId, ...],
        parent: bytes,
        signers: tuple[ClientId, ...],
    ) -> str | None:
        """The one evidence rule: why ``signers`` signing this link is a
        fork, judged against every link I hold at ``(seq, parent)``."""
        base = self._recent.get(seq - 1)
        if base is not None and base.digest != parent:
            base = None
        for other_members, other_cut, other_signers, installed in self._held(
            seq, parent
        ):
            if other_members == members:
                if other_cut != cut:
                    what = "the installed" if installed else "a proposed"
                    return (
                        f"conflicting checkpoint links for seq {seq} on one "
                        f"parent and member set: the share diverges from "
                        f"{what} link (cuts {other_cut} vs {cut}) — forked "
                        f"stability views"
                    )
            elif (
                base is not None
                and members != base.members
                and other_members != base.members
            ):
                twice = [j for j in signers if j in other_signers]
                if twice:
                    return (
                        f"member change for seq {seq} signed by client "
                        f"{twice[0]} diverges from the one it signed on the "
                        f"same parent ({other_members} vs {members}) — "
                        f"forked membership views"
                    )
        return None

    def _held(self, seq: int, parent: bytes):
        """``(members, cut, signers, installed)`` of every link I hold at
        ``(seq, parent)``: proposals in flight and the archived install."""
        for (slot_seq, slot_parent, members), slot in self._slots.items():
            if slot_seq == seq and slot_parent == parent:
                yield members, slot[0], slot[1], False
        archived = self._recent.get(seq)
        if archived is not None and archived.parent_digest == parent:
            yield archived.members, archived.cut, archived.members, True

    def _well_formed(
        self, cut: tuple[int, ...], members: tuple[ClientId, ...]
    ) -> bool:
        return len(cut) == self._n and (
            members == self.installed.members  # the common case, cheaply
            or bool(members)
            and all(0 <= j < self._n for j in members)
            and tuple(sorted(set(members))) == tuple(members)
        )

    def _fail(self, reason: str) -> None:
        self._failed = True
        if self._on_fail is not None:
            self._on_fail(reason)
