"""Unit tests for membership on the one checkpoint chain.

Covers :mod:`repro.faust.membership` (the lease ledger) and the member
changes of :mod:`repro.faust.checkpoint` wired directly — policy
validation, strike accounting, the eviction/majority/countersign rules,
supersession and non-equivocation, the one evidence rule, rejoin
requests and answers — plus the client fault injector's spec parsing.
The fleet-level behaviour (eviction under ``repro scale`` faults, growth
ratios, the equivalence guarantees, the chain property under churn)
lives in ``test_membership_faults.py`` and
``test_membership_equivalence.py``.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.crypto.keystore import KeyStore
from repro.faust.checkpoint import (
    RECENT_ARCHIVE,
    Checkpoint,
    CheckpointManager,
    CheckpointPolicy,
)
from repro.faust.membership import MembershipManager, MembershipPolicy
from repro.faust.messages import CheckpointShareMessage, RejoinMessage
from repro.sim.faults import CLIENT_FAULT_KINDS, Fault, FaultInjector

# --------------------------------------------------------------------- #
# Policy
# --------------------------------------------------------------------- #


def test_membership_policy_validation():
    with pytest.raises(ConfigurationError):
        MembershipPolicy(lease_checkpoints=0)
    with pytest.raises(ConfigurationError):
        MembershipPolicy(evict_after=0)
    with pytest.raises(ConfigurationError):
        MembershipPolicy(check_period=0.0)
    with pytest.raises(ConfigurationError):
        MembershipPolicy(check_period=float("nan"))
    policy = MembershipPolicy()
    assert policy.lease_checkpoints == 2
    assert [f.name for f in dataclasses.fields(policy)] == [
        "lease_checkpoints", "evict_after", "check_period"
    ]


def test_member_change_links_bind_their_member_set():
    """A member change carries its parent's cut; only the member set
    tells it from its parent's other children."""
    genesis = Checkpoint.genesis(3)
    evict = Checkpoint.link(1, genesis.cut, (0, 1), genesis.digest)
    other = Checkpoint.link(1, genesis.cut, (0, 2), genesis.digest)
    assert evict.digest != other.digest
    assert evict.digest != Checkpoint.link(2, genesis.cut, (0, 1), genesis.digest).digest


# --------------------------------------------------------------------- #
# A direct-wired fleet: chains + ledgers, FIFO mail, no simulator
# --------------------------------------------------------------------- #


class _FakeTracker:
    """A stability tracker whose cuts and staleness the test dictates."""

    def __init__(self, n: int):
        self.vector_all = (0,) * n
        self.by_members: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.stale: set[int] = set()

    def stable_vector(self, members=None):
        if members is None:
            return self.vector_all
        return self.by_members.get(tuple(members), self.vector_all)

    def stale_peers(self, now, delta):
        return frozenset(self.stale)


class _Fleet:
    """N chain + ledger pairs over one FIFO mail queue.

    Mail waits in the queue until :meth:`deliver` hands it over, in send
    order (so FIFO per pair of clients, as on the offline channel).
    ``away`` clients neither send nor receive; their mail waits for them
    (:meth:`back`), and a client away forever is crashed-forever.
    """

    def __init__(self, n: int = 4, interval: int = 4, policy=None):
        self.n = n
        self.keystore = KeyStore(n)
        self.away: set[int] = set()
        self.failures: dict[int, str] = {}
        self.queue: list[tuple[int, int, object]] = []  # (src, dst, message)
        self.rejoin_requests: list[tuple[int, int]] = []
        self.installs: list[tuple[int, Checkpoint]] = []  # (client, link)
        self.trackers = [_FakeTracker(n) for _ in range(n)]
        self.memberships: list[MembershipManager] = []
        self.checkpoints: list[CheckpointManager] = []
        policy = policy or MembershipPolicy(lease_checkpoints=1, evict_after=1)
        for i in range(n):
            cm = CheckpointManager(
                client_id=i,
                num_clients=n,
                signer=self.keystore.signer(i),
                policy=CheckpointPolicy(interval=interval),
                send_share=self._broadcast(i),
                send_server=lambda _msg: None,
                send_rejoin=lambda peer, msg, i=i: self._rejoin(i, peer, msg),
                on_install=lambda link, i=i: self.installs.append((i, link)),
                on_fail=lambda reason, i=i: self.failures.__setitem__(i, reason),
            )
            mm = MembershipManager(
                client_id=i,
                num_clients=n,
                policy=policy,
                chain=cm,
                tracker=self.trackers[i],
                delta=10.0,
            )
            self.memberships.append(mm)
            self.checkpoints.append(cm)

    def _send(self, src: int, dst: int, message) -> None:
        if src not in self.away:
            self.queue.append((src, dst, message))

    def _broadcast(self, sender: int):
        def send(share: CheckpointShareMessage) -> None:
            for j in range(self.n):
                if j != sender:
                    self._send(sender, j, share)

        return send

    def _rejoin(self, src: int, peer: int, message: RejoinMessage) -> None:
        if not message.links:
            self.rejoin_requests.append((src, peer))
        self._send(src, peer, message)

    def deliver(self, src=None, dst=None) -> None:
        """Hand over queued mail (from ``src`` / to ``dst`` if given) to
        present clients, in send order, until none is left."""
        while True:
            for index, (s, d, message) in enumerate(self.queue):
                if (
                    d not in self.away
                    and (src is None or s == src)
                    and (dst is None or d == dst)
                ):
                    del self.queue[index]
                    break
            else:
                return
            chain = self.checkpoints[d]
            if isinstance(message, RejoinMessage):
                chain.on_rejoin(message)
            else:
                chain.on_share(message)

    # -- conveniences -------------------------------------------------- #

    def live(self):
        return [j for j in range(self.n) if j not in self.away]

    def back(self, j: int) -> None:
        self.away.discard(j)
        self.deliver()

    def set_stability(self, vector, *, members_vector=None, stale=()):
        members = tuple(self.live())
        for j in self.live():
            tracker = self.trackers[j]
            tracker.vector_all = tuple(vector)
            tracker.stale = set(stale)
            if members_vector is not None:
                tracker.by_members[members] = tuple(members_vector)
            self.checkpoints[j].on_stability(tuple(vector))
        self.deliver()

    def tick(self, now: float, clients=None) -> None:
        for j in self.live() if clients is None else clients:
            self.memberships[j].on_tick(now)
            self.deliver()

    def evict_3(self) -> None:
        """Client 3 goes away for good (so far); the others evict it."""
        self.away.add(3)
        self.set_stability(
            (0, 0, 0, 0), members_vector=(2, 2, 1, 0), stale=(3,)
        )
        self.tick(10.0)
        self.tick(20.0)


def test_fault_free_run_never_changes_members_or_sends_membership_traffic():
    fleet = _Fleet(n=3)
    fleet.set_stability((2, 2, 1))  # crosses interval 4: seq 1 installs
    for _ in range(10):
        fleet.tick(100.0)
    assert all(cm.member_changes == 0 for cm in fleet.checkpoints)
    assert all(m.members == (0, 1, 2) for m in fleet.memberships)
    assert all(cm.installed.seq == 1 for cm in fleet.checkpoints)
    # One share per client for the one fold: nothing else was signed,
    # and nobody asked to rejoin.
    assert [cm.shares_sent for cm in fleet.checkpoints] == [1, 1, 1]
    assert fleet.rejoin_requests == []
    assert not fleet.failures


def test_crashed_forever_client_is_evicted_and_the_chain_resumes():
    fleet = _Fleet(n=4)
    fleet.away.add(3)
    # All-clients stability is frozen (client 3's row never advances) but
    # the surviving rows alone carry a full interval: the counterfactual
    # blocking case.
    fleet.set_stability(
        (0, 0, 0, 0), members_vector=(2, 2, 1, 0), stale=(3,)
    )
    # lease_checkpoints=1 + evict_after=1: two blocking checks to evict.
    fleet.tick(10.0)
    assert all(cm.member_changes == 0 for cm in fleet.checkpoints[:3])
    fleet.tick(20.0)
    assert all(cm.member_changes == 1 for cm in fleet.checkpoints[:3])
    assert all(m.members == (0, 1, 2) for m in fleet.memberships[:3])
    assert all(m.evicted_clients() == (3,) for m in fleet.memberships[:3])
    # The chain resumed at the new quorum: the member change (seq 1, the
    # parent's cut) and then a fold by the shrunken signer set, whose cut
    # stays full width.
    for cm in fleet.checkpoints[:3]:
        assert cm.installed.seq == 2
        assert cm.installed.members == (0, 1, 2)
        assert cm.installed.cut == (2, 2, 1, 0)
        assert cm._recent[1].cut == (0, 0, 0, 0)
    assert not fleet.failures


def test_lease_renewal_resets_strikes_and_prevents_eviction():
    fleet = _Fleet(n=3, policy=MembershipPolicy(lease_checkpoints=2, evict_after=2))
    fleet.away.add(2)
    fleet.set_stability((0, 0, 0), members_vector=(3, 2, 0), stale=(2,))
    for now in (10.0, 20.0, 30.0):
        fleet.tick(now)
    assert fleet.memberships[0].strikes[2] == 3
    assert fleet.memberships[0].lease_lapsed(2)
    # The slow client comes back just in time: its checkpoint share is
    # its lease renewal, one tick before the eviction threshold (4).
    fleet.back(2)
    fleet.set_stability((3, 2, 1), stale=())
    assert all(cm.installed.seq == 1 for cm in fleet.checkpoints)
    assert fleet.memberships[0].strikes[2] == 0
    for now in (40.0, 50.0):
        fleet.tick(now)
    assert all(cm.member_changes == 0 for cm in fleet.checkpoints)
    assert not fleet.failures


def test_no_eviction_without_a_strict_majority_of_survivors():
    fleet = _Fleet(n=4)
    fleet.away.update((2, 3))  # two of four: survivors are not a majority
    fleet.set_stability(
        (0, 0, 0, 0), members_vector=(3, 2, 0, 0), stale=(2, 3)
    )
    for now in (10.0, 20.0, 30.0, 40.0):
        fleet.tick(now)
    assert all(cm.member_changes == 0 for cm in fleet.checkpoints[:2])
    assert all(cm.shares_sent == 0 for cm in fleet.checkpoints[:2])
    assert not fleet.failures


def test_member_refuses_a_removal_whose_evictees_are_not_lapsed_in_its_view():
    fleet = _Fleet(n=3)
    # Client 0 unilaterally proposes evicting 2, but clients 1 and 2 see
    # no blocking at all: nobody countersigns, no link installs.
    fleet.memberships[0].strikes[2] = 99
    fleet.checkpoints[0].propose_members((0, 1))
    fleet.deliver()
    assert fleet.checkpoints[0].shares_sent == 1
    assert all(cm.installed.seq == 0 for cm in fleet.checkpoints)
    assert fleet.checkpoints[1].shares_sent == 0
    assert not fleet.failures


def test_invalid_member_change_signature_is_forking_evidence():
    fleet = _Fleet(n=3)
    forged = CheckpointShareMessage(
        sender=1,
        seq=1,
        cut=(0, 0, 0),
        members=(0, 1),
        parent_digest=fleet.checkpoints[0].installed.digest,
        signature=b"not-a-signature",
    )
    fleet.checkpoints[0].on_share(forged)
    assert fleet.checkpoints[0].failed
    assert "invalid" in fleet.failures[0]


def _share(fleet, sender, seq, cut, members, parent):
    return CheckpointShareMessage(
        sender=sender,
        seq=seq,
        cut=cut,
        members=members,
        parent_digest=parent,
        signature=fleet.keystore.signer(sender).sign(
            "CHECKPOINT", seq, cut, members, parent
        ),
    )


def test_second_member_change_from_one_signer_is_forking_evidence():
    fleet = _Fleet(n=4)
    fleet.evict_3()
    assert fleet.checkpoints[0].member_changes == 1
    # Client 2 co-signed the installed removal of 3; a signed record of
    # it removing a *different* set at the same (seq, parent) is a
    # forked membership history.
    genesis = Checkpoint.genesis(4)
    divergent = _share(fleet, 2, 1, genesis.cut, (0, 2), genesis.digest)
    fleet.checkpoints[0].on_share(divergent)
    assert fleet.checkpoints[0].failed
    assert "diverges" in fleet.failures[0]


def test_malformed_member_sets_are_ignored_not_evidence():
    fleet = _Fleet(n=3)
    parent = fleet.checkpoints[0].installed.digest
    for bad in ((), (1, 0), (0, 0, 1), (0, 7), (0, 2)):
        # (0, 2) is well formed but lacks its own signer.
        fleet.checkpoints[0].on_share(_share(fleet, 1, 1, (0, 0, 0), bad, parent))
    assert not fleet.checkpoints[0].failed
    assert fleet.checkpoints[0].installed.seq == 0


def test_returning_evictee_rejoins_through_an_add_link():
    fleet = _Fleet(n=4)
    fleet.evict_3()
    assert fleet.memberships[0].evicted_clients() == (3,)
    # Client 3 returns: its held mail walks it along the chain it missed
    # (it installs links it is no member of), and any offline message
    # from it lands in note_contact; a member sponsors a link adding it
    # back that every member — 3 included — co-signs.
    fleet.back(3)
    assert fleet.checkpoints[3].installed == fleet.checkpoints[0].installed
    fleet.memberships[0].note_contact(3)
    fleet.deliver()
    assert all(m.members == (0, 1, 2, 3) for m in fleet.memberships)
    digests = {cm.installed.digest for cm in fleet.checkpoints}
    assert len(digests) == 1
    assert fleet.checkpoints[0].member_changes == 2
    assert fleet.checkpoints[0].rejoins >= 1
    assert not fleet.failures


def test_evicted_client_solicits_rejoin_on_tick():
    fleet = _Fleet(n=4)
    fleet.evict_3()
    fleet.back(3)
    # The evictee learned it was evicted from its held mail; its own
    # ticks ask a member for the links it lacks — and get it re-added.
    assert not fleet.memberships[3].is_member()
    fleet.tick(30.0, clients=[3])
    assert (3, 0) in fleet.rejoin_requests
    assert fleet.memberships[3].is_member()
    assert not fleet.failures


def test_rejoin_answer_reseeds_the_checkpoint_base():
    fleet = _Fleet(n=4)
    fleet.evict_3()
    assert fleet.checkpoints[0].installed.seq == 2
    # Client 3 lost the mail it missed: it asks, and adopts the answer
    # (the archived links after its own) as its new history base.
    fleet.queue = [m for m in fleet.queue if m[1] != 3]
    fleet.away.discard(3)
    fleet.checkpoints[0].on_rejoin(RejoinMessage(sender=3, seq=0))
    fleet.deliver()
    assert fleet.checkpoints[3].member_changes >= 1
    assert fleet.checkpoints[3].installed.digest == (
        fleet.checkpoints[0].installed.digest
    )
    assert not fleet.failures


def test_diverging_rejoin_answer_is_forking_evidence():
    fleet = _Fleet(n=4)
    fleet.evict_3()
    answers: list = []
    fleet.checkpoints[0]._send_rejoin = lambda peer, msg: answers.append(msg)
    fleet.checkpoints[0].on_rejoin(RejoinMessage(sender=3, seq=0))
    (answer,) = answers
    # The removal link at seq 1 with another cut but the same parent and
    # member set: a fork of the installed chain.
    seq, cut, members, parent = answer.links[1]
    forked = dataclasses.replace(
        answer, links=(answer.links[0], (seq, (1, 0, 0, 0), members, parent))
    )
    fleet.checkpoints[1].on_rejoin(forked)
    assert fleet.checkpoints[1].failed
    assert "diverges" in fleet.failures[1]


# --------------------------------------------------------------------- #
# The link rule: evidence, supersession, the archive
# --------------------------------------------------------------------- #


def test_two_cuts_for_one_seq_parent_and_member_set_fail_every_receiver():
    fleet = _Fleet(n=4)
    genesis = Checkpoint.genesis(4)
    first = _share(fleet, 0, 1, (2, 2, 2, 2), genesis.members, genesis.digest)
    second = _share(fleet, 0, 1, (3, 2, 2, 2), genesis.members, genesis.digest)
    for cm in fleet.checkpoints[1:]:
        cm.on_share(first)
        cm.on_share(second)
    assert sorted(fleet.failures) == [1, 2, 3]
    assert all("conflicting" in reason for reason in fleet.failures.values())


def test_removal_supersedes_the_stalled_fold_without_fail():
    """The stalled fold and the removal of the client it waits for, both
    complete: the removal wins at the returning evictee and at a
    survivor that completed the fold from the evictee's late share."""
    fleet = _Fleet(n=4)
    fleet.away.add(3)
    for tracker in fleet.trackers[:3]:
        tracker.stale = {3}
    # The fold for seq 1 gathers 0, 1 and 2 and stalls on 3.
    fleet.set_stability((2, 2, 2, 2))
    assert set(fleet.checkpoints[0].shares_for(1)) == {0, 1, 2}
    # Two checks later every survivor signed the removal of 3; only 0
    # and 1 receive the last removal shares (2 is slow to hear them).
    fleet.tick(10.0)
    for j in (0, 1, 2):
        fleet.memberships[j].on_tick(20.0)
    fleet.deliver(dst=0)
    fleet.deliver(dst=1)
    assert [cm.installed.members for cm in fleet.checkpoints[:2]] == [(0, 1, 2)] * 2
    assert fleet.checkpoints[2].installed.seq == 0
    # 3 returns and signs the fold late: the fold completes at 3, then
    # the removal supersedes it there.
    fleet.checkpoints[3].on_stability((2, 2, 2, 2))
    fleet.away.discard(3)
    fleet.deliver(dst=3)
    assert fleet.checkpoints[3].installed.members == (0, 1, 2)
    # An answer carrying the superseded fold (sent by a client still on
    # it) reaches no further than 3's own link: 3 keeps the removal.
    genesis = Checkpoint.genesis(4)
    stale = (1, (2, 2, 2, 2), genesis.members, genesis.digest)
    fleet.checkpoints[3].on_rejoin(RejoinMessage(sender=2, seq=1, links=(stale,)))
    assert fleet.checkpoints[3].installed.members == (0, 1, 2)
    # 3's late share reaches 2 first: 2 completes the stalled fold...
    fleet.deliver(src=3, dst=2)
    fold = fleet.checkpoints[2].installed
    assert (fold.seq, fold.members, fold.cut) == (1, (0, 1, 2, 3), (2, 2, 2, 2))
    # ...and the removal's shares, once they arrive, supersede it.
    fleet.deliver()
    removals = {cm._recent[1] for cm in fleet.checkpoints}
    assert len(removals) == 1
    (removal,) = removals
    assert (removal.members, removal.cut) == ((0, 1, 2), (0, 0, 0, 0))
    # The chain went on from the removal, the same at every client.
    assert len({cm.installed for cm in fleet.checkpoints}) == 1
    assert not fleet.failures
    assert fleet.checkpoints[2].member_changes == 1


def test_late_winner_signer_catches_up_to_the_chain_that_went_on():
    """A removal completes only at its late last signer, after the others
    installed the fold it would supersede and went on without that
    signer: the signer sees co-signed links ahead of its own, asks one
    of their signers, and adopts their chain — no fail, one chain."""
    fleet = _Fleet(n=4)
    fleet.away.add(1)
    for j in (0, 2, 3):
        fleet.trackers[j].stale = {1}
    fleet.set_stability((2, 2, 2, 2))  # the fold for seq 1 waits on 1
    fleet.tick(10.0)
    fleet.away.add(3)  # 3 leaves before it signs the removal of 1
    fleet.tick(20.0)  # 0 and 2 sign it; it waits on 3
    fleet.checkpoints[1].on_stability((2, 2, 2, 2))
    fleet.back(1)  # 1 signs the fold late: it installs at 0, 1 and 2
    fold = fleet.checkpoints[0].installed
    assert (fold.seq, fold.members) == (1, (0, 1, 2, 3))
    for j in (0, 1, 2):
        fleet.trackers[j].stale = {3}
        fleet.trackers[j].by_members[(0, 1, 2)] = (4, 4, 4, 2)
    fleet.tick(30.0)
    fleet.tick(40.0)  # ...and they remove 3 on top of it
    assert fleet.checkpoints[0].installed.members == (0, 1, 2)
    # 3 returns and signs the removal of 1 late: the removal completes
    # at 3 alone, and 3 installs it...
    fleet.back(3)
    assert (3, (0, 2, 3)) in [(i, link.members) for i, link in fleet.installs]
    # ...then asks a signer of the links ahead, adopts them (and, having
    # made contact, is added back): every client holds one chain.
    assert (3, 0) in fleet.rejoin_requests
    chains = [cm._recent for cm in fleet.checkpoints]
    assert all(chain == chains[0] for chain in chains)
    assert chains[0][1] == fold
    assert chains[0][2].members == (0, 1, 2)
    assert fleet.checkpoints[3].installed == fleet.checkpoints[0].installed
    assert not fleet.failures


def _evict_again(fleet: _Fleet, cycle: int) -> None:
    """Client 3 goes away and the others (at the ``cycle``-th time) evict it."""
    fleet.away.add(3)
    for tracker in fleet.trackers[:3]:
        tracker.stale = {3}
        # A fresh interval of stability over the survivors' rows.
        tracker.by_members[(0, 1, 2)] = (
            4 * cycle + 2, 4 * cycle + 2, 4 * cycle + 1, 0
        )
    fleet.tick(40.0 * cycle + 10.0)
    fleet.tick(40.0 * cycle + 20.0)


@pytest.mark.parametrize("cycles", [3, 12])
def test_archive_and_rejoin_answer_do_not_grow_with_member_changes(cycles):
    fleet = _Fleet(n=4)
    for cycle in range(cycles):
        _evict_again(fleet, cycle)
        fleet.back(3)
        for tracker in fleet.trackers[:3]:
            tracker.stale = set()
        fleet.memberships[0].note_contact(3)
        fleet.deliver()
    _evict_again(fleet, cycles)
    assert not fleet.failures
    chain = fleet.checkpoints[0]
    assert chain.member_changes == 2 * cycles + 1
    assert all(len(cm._recent) <= RECENT_ARCHIVE for cm in fleet.checkpoints)
    answers: list = []
    chain._send_rejoin = lambda peer, msg: answers.append(msg)
    # Further behind than the archive: the last installed link alone.
    chain.on_rejoin(RejoinMessage(sender=3, seq=-1))
    # Within the archive: at most the archive.
    chain.on_rejoin(RejoinMessage(sender=3, seq=min(chain._recent)))
    behind, within = answers
    assert len(behind.links) == 1
    assert len(within.links) <= RECENT_ARCHIVE
    link = chain.installed
    one = (link.seq, link.cut, link.members, link.parent_digest)
    assert behind.wire_size() == RejoinMessage(3, 0, (one,)).wire_size()
    assert within.wire_size() <= RejoinMessage(
        3, 0, (one,) * RECENT_ARCHIVE
    ).wire_size()


# --------------------------------------------------------------------- #
# Client fault specs
# --------------------------------------------------------------------- #


def test_client_fault_spec_parsing():
    fault = Fault.parse("crash-forever:1@200")
    assert fault == Fault("crash-forever", 1, 200.0)
    fault = Fault.parse("crash-restart:2@100+300")
    assert fault == Fault("crash-restart", 2, 100.0, 300.0)
    fault = Fault.parse("lease-expiry:0@150+400.5")
    assert fault == Fault("away", 0, 150.0, 400.5)
    # Only the parser knows the CLI's spelling; a Fault is one of four kinds.
    with pytest.raises(ConfigurationError, match="unknown fault kind"):
        Fault("lease-expiry", 0, 150.0, 400.5)


@pytest.mark.parametrize(
    "spec",
    [
        "crash-forever",
        "crash-forever:1",
        "crash-forever:x@200",
        "crash-forever:1@200+50",  # crash-forever has no duration
        "crash-restart:1@200",  # crash-restart needs one
        "lease-expiry:1@200+0",
        "unknown-kind:1@200",
        "crash-forever:1@-5",
    ],
)
def test_malformed_client_fault_specs_are_rejected(spec):
    with pytest.raises(SimulationError):
        Fault.parse(spec)


def test_client_fault_kinds_are_the_documented_three():
    assert CLIENT_FAULT_KINDS == ("crash-forever", "crash-restart", "lease-expiry")


def test_fault_injector_rejects_out_of_range_clients():
    class _Sched:
        def schedule_at(self, *_a):  # pragma: no cover - never reached
            raise AssertionError

    injector = FaultInjector(SimpleNamespace(scheduler=_Sched(), clients=[object()]))
    with pytest.raises(SimulationError):
        injector.add(Fault("crash-forever", 5, 10.0))
