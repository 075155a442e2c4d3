"""Lease ledger: when the checkpoint chain should shrink or grow its signer set.

The checkpoint chain (:mod:`repro.faust.checkpoint`) installs a link only
with a share from *every* member — one crashed-forever client stalls it,
and the system silently degrades to the unbounded growth it was built to
avoid.  The chain itself can change its member set (a member-changing
link); this module decides when to propose one, modeled on SAFIUS's
accountable-filesystem leases:

* Every member holds a renewable **lease**, renewed implicitly by the
  checkpoint shares it sends (piggybacked — no extra lease traffic on a
  healthy run, so membership-on runs are message-identical to
  membership-off runs until a fault occurs).
* A periodic check (:meth:`MembershipManager.on_tick`) asks the chain
  who is **blocking** the next link
  (:meth:`~repro.faust.checkpoint.CheckpointManager.blocking_clients`):
  members missing from a proposal, a proposer withholding an overdue
  fold, or members whose version rows have gone stale while the
  remaining rows carry a full interval of unfolded stability.  A member
  accumulates one *strike* per check it blocks; after
  ``lease_checkpoints`` strikes its lease has **lapsed**, after
  ``evict_after`` further strikes the ledger has the chain propose a link
  without it.  Any installed link voids every strike.
* The ledger's rules decide what the chain endorses
  (:meth:`MembershipManager.endorses`): a link adds members or removes
  them, never both; a removal keeps a strict majority of the parent's
  members, so two disjoint survivor cliques can never both install a
  successor; and it evicts only members whose lease lapsed here.
* An evictee keeps asking a member to rejoin (a REJOIN); any member that
  hears from an evictee has the chain propose a link that adds it back.

The ledger signs nothing and keeps no chain: the chain's one evidence
rule judges every share, and a fault-free run sends no membership
traffic and draws no randomness (the check runs jitter-free), so
membership-on runs are bit-identical to membership-off runs until a
client actually misbehaves or dies.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.common.errors import ConfigurationError
from repro.common.types import ClientId
from repro.faust.checkpoint import Checkpoint, CheckpointManager
from repro.faust.stability import StabilityTracker


@dataclass(frozen=True)
class MembershipPolicy:
    """Knobs of the lease layer (``SystemConfig(membership=...)``).

    ``lease_checkpoints`` is how many consecutive membership checks a
    member may block the next link before its lease counts as *lapsed*;
    ``evict_after`` is the additional grace (in checks) between lapse and
    the eviction proposal, so a slow-but-live client has
    ``lease_checkpoints + evict_after`` check periods to produce a share
    before anyone signs it out.  ``check_period`` is the virtual-time
    cadence of the membership check (jitter-free, so it draws no
    randomness).
    """

    lease_checkpoints: int = 2
    evict_after: int = 3
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


class MembershipManager:
    """One client's lease ledger, advising its checkpoint chain.

    Owned by a :class:`~repro.faust.client.FaustClient`, which drives it
    with periodic checks (:meth:`on_tick`) and contact notes; the chain
    it attaches to (as ``chain.ledger``) reports every share and install
    and asks it what to endorse.
    """

    def __init__(
        self,
        client_id: ClientId,
        num_clients: int,
        policy: MembershipPolicy,
        *,
        chain: CheckpointManager,
        tracker: StabilityTracker,
        delta: float,
    ) -> None:
        self._id = client_id
        self._n = num_clients
        self.policy = policy
        self._chain = chain
        self._tracker = tracker
        self._delta = delta
        #: Consecutive checks each member has spent blocking the next
        #: link; any share from it, or any install, resets the count.
        self.strikes: dict[ClientId, int] = {j: 0 for j in range(num_clients)}
        #: The member set of the last link installed, to spot changes.
        self._members = chain.installed.members
        #: Rejoin requests sent, rotating over the members asked.
        self._asks = 0
        chain.ledger = self

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def members(self) -> tuple[ClientId, ...]:
        """The installed link's signer set."""
        return self._chain.installed.members

    def is_member(self, client: ClientId | None = None) -> bool:
        """Is ``client`` (default: the owner) a member of the installed link?"""
        return (self._id if client is None else client) in self.members

    def evicted_clients(self) -> tuple[ClientId, ...]:
        """Clients outside the installed link's member set."""
        members = self.members
        return tuple(j for j in range(self._n) if j not in members)

    def lease_lapsed(self, client: ClientId) -> bool:
        """Has ``client`` blocked for at least ``lease_checkpoints`` checks?"""
        return self.strikes.get(client, 0) >= self.policy.lease_checkpoints

    # ------------------------------------------------------------------ #
    # Notes from the chain and the client
    # ------------------------------------------------------------------ #

    def note_checkpoint_share(self, sender: ClientId) -> None:
        """A member's checkpoint share doubles as its lease renewal."""
        self.strikes[sender] = 0

    def note_install(self, link: Checkpoint) -> None:
        """The chain progressed: every member participated.

        Progress voids all suspicion — a link installs only with a share
        from every member, so nobody can have been blocking it.  When the
        member set changed, the member-scoped stable cut may jump (a
        frozen row left the min): re-feed it to the chain.
        """
        for j in self.strikes:
            self.strikes[j] = 0
        if link.members != self._members:
            self._members = link.members
            self._chain.on_stability(
                self._tracker.stable_vector(members=link.members)
            )

    def note_contact(self, sender: ClientId) -> None:
        """An evictee made contact: sponsor a link that adds it back."""
        members = self.members
        if (
            not 0 <= sender < self._n
            or sender in members
            or self._id not in members
        ):
            return
        self._chain.propose_members(tuple(sorted((*members, sender))))

    # ------------------------------------------------------------------ #
    # The periodic check
    # ------------------------------------------------------------------ #

    def on_tick(self, now: float) -> None:
        """One check: account strikes, maybe propose an eviction."""
        chain = self._chain
        if chain.failed:
            return
        members = self.members
        if self._id not in members:
            # Evicted but alive: keep asking a member (a different one
            # each check) until one answers and adds me back.
            chain.ask_for_links(members[self._asks % len(members)])
            self._asks += 1
            return
        blockers = chain.blocking_clients(now)
        for j in members:
            if j != self._id:
                self.strikes[j] = self.strikes[j] + 1 if j in blockers else 0
        threshold = self.policy.lease_checkpoints + self.policy.evict_after
        survivors = tuple(
            j for j in members if j == self._id or self.strikes[j] < threshold
        )
        if len(members) > len(survivors) > len(members) // 2:
            chain.propose_members(survivors)
        chain.reconsider()

    def overdue(self, now: float) -> tuple[ClientId, ...]:
        """Who blocks a next link nobody has proposed yet?

        * my member-scoped stability already crossed the interval: the
          proposer is withholding its fold;
        * stability itself is frozen: members whose version rows have
          gone probe-stale, if the remaining rows alone carry a full
          interval of unfolded stability (the cut an eviction would
          unlock).
        """
        chain = self._chain
        link = chain.installed
        members = link.members
        floor = sum(link.cut)
        interval = chain.policy.interval
        if sum(self._tracker.stable_vector(members=members)) - floor >= interval:
            proposer = chain.proposer(link.seq + 1)
            return () if proposer == self._id else (proposer,)
        stale = frozenset(self._tracker.stale_peers(now, self._delta))
        live = tuple(j for j in members if j not in stale)
        if (
            len(live) < len(members)
            and live
            and sum(self._tracker.stable_vector(members=live)) - floor
            >= interval
        ):
            return tuple(j for j in members if j in stale)
        return ()

    def endorses(
        self, old: tuple[ClientId, ...], new: tuple[ClientId, ...]
    ) -> bool:
        """Would I sign a link changing ``old`` members to ``new``?"""
        if self._id not in new:
            return False  # my signature cannot be required; do not endorse
        evicted = set(old) - set(new)
        added = set(new) - set(old)
        if added:
            # Re-admissions are always safe: an extra signer can only
            # strengthen future quorums.
            return not evicted
        if not evicted or len(new) <= len(old) // 2:
            return False  # majority rule: no disjoint successor cliques
        return all(self.lease_lapsed(j) for j in evicted)
