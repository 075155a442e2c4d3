"""Unit tests for the lease-based membership layer.

Covers :mod:`repro.faust.membership` in isolation — policy validation,
the epoch hash chain, strike accounting, the eviction/majority/countersign
rules, supersede and non-equivocation behaviour, announces and rejoin —
plus the client fault injector's spec parsing.  The fleet-level
behaviour (eviction under ``repro scale`` faults, growth ratios, the
equivalence guarantees) lives in ``test_membership_faults.py`` and
``test_membership_equivalence.py``.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.crypto.keystore import KeyStore
from repro.faust.checkpoint import CheckpointManager, CheckpointPolicy
from repro.faust.membership import (
    Epoch,
    MembershipManager,
    MembershipPolicy,
    epoch_digest,
)
from repro.faust.messages import EpochShareMessage
from repro.sim.faults import CLIENT_FAULT_KINDS, Fault, FaultInjector

# --------------------------------------------------------------------- #
# Policy and chain basics
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
    assert policy.lease_checkpoints == 2 and policy.rejoin


def test_epoch_genesis_and_digest_binding():
    genesis = Epoch.genesis(3)
    assert genesis.epoch == 0
    assert genesis.members == (0, 1, 2)
    assert genesis.digest == epoch_digest(0, (0, 1, 2), b"")
    # The digest binds number, members and ancestry.
    child = epoch_digest(1, (0, 1), genesis.digest)
    assert child != epoch_digest(2, (0, 1), genesis.digest)
    assert child != epoch_digest(1, (0, 2), genesis.digest)
    assert child != epoch_digest(1, (0, 1), b"other")


# --------------------------------------------------------------------- #
# A direct-wired fleet: managers + checkpoint managers, no simulator
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
    """N membership+checkpoint manager pairs with instantaneous delivery.

    ``crashed`` clients neither send nor receive — the crash-forever
    model the membership layer exists to survive.
    """

    def __init__(self, n: int = 4, interval: int = 4, policy=None):
        self.n = n
        self.keystore = KeyStore(n)
        self.crashed: set[int] = set()
        self.failures: dict[int, str] = {}
        self.epochs: dict[int, list[Epoch]] = {i: [] for i in range(n)}
        self.announces: list[tuple[int, int]] = []  # (sender, target)
        self.rejoin_requests: list[tuple[int, int]] = []
        self.trackers = [_FakeTracker(n) for _ in range(n)]
        self.memberships: list[MembershipManager] = []
        self.checkpoints: list[CheckpointManager] = []
        policy = policy or MembershipPolicy(lease_checkpoints=1, evict_after=1)
        for i in range(n):
            mm = MembershipManager(
                client_id=i,
                num_clients=n,
                signer=self.keystore.signer(i),
                policy=policy,
                tracker=self.trackers[i],
                delta=10.0,
                send_share=self._broadcast_epoch(i),
                send_announce=self._announce(i),
                request_rejoin=lambda peer, i=i: self.rejoin_requests.append(
                    (i, peer)
                ),
                on_epoch=self._on_epoch(i),
                on_fail=lambda reason, i=i: self.failures.__setitem__(i, reason),
            )
            cm = CheckpointManager(
                client_id=i,
                num_clients=n,
                signer=self.keystore.signer(i),
                policy=CheckpointPolicy(interval=interval),
                send_share=self._broadcast_ckpt(i),
                send_server=lambda _msg: None,
                on_fail=lambda reason, i=i: self.failures.__setitem__(i, reason),
                membership=mm,
            )
            mm.bind(cm)
            self.memberships.append(mm)
            self.checkpoints.append(cm)

    def _broadcast_epoch(self, sender: int):
        def send(share: EpochShareMessage) -> None:
            if sender in self.crashed:
                return
            for j in range(self.n):
                if j != sender and j not in self.crashed:
                    self.memberships[j].on_share(share)

        return send

    def _broadcast_ckpt(self, sender: int):
        def send(share) -> None:
            if sender in self.crashed:
                return
            for j in range(self.n):
                if j != sender and j not in self.crashed:
                    self.checkpoints[j].on_share(share)

        return send

    def _announce(self, sender: int):
        def send(target: int, announce) -> None:
            self.announces.append((sender, target))
            if sender not in self.crashed and target not in self.crashed:
                self.memberships[target].on_announce(announce)

        return send

    def _on_epoch(self, owner: int):
        def on_epoch(epoch: Epoch) -> None:
            self.epochs[owner].append(epoch)
            cm = self.checkpoints[owner]
            cm.on_members_changed()
            cm.on_stability(
                self.trackers[owner].stable_vector(members=epoch.members)
            )

        return on_epoch

    # -- conveniences -------------------------------------------------- #

    def live(self):
        return [j for j in range(self.n) if j not in self.crashed]

    def set_stability(self, vector, *, members_vector=None, stale=()):
        members = tuple(self.live())
        for j in self.live():
            tracker = self.trackers[j]
            tracker.vector_all = tuple(vector)
            tracker.stale = set(stale)
            if members_vector is not None:
                tracker.by_members[members] = tuple(members_vector)
            self.checkpoints[j].on_stability(tuple(vector))

    def tick(self, now: float) -> None:
        for j in self.live():
            self.memberships[j].on_tick(now)


def test_fault_free_run_never_changes_epoch_or_sends_shares():
    fleet = _Fleet(n=3)
    fleet.set_stability((2, 2, 1))  # crosses interval 4: seq 1 installs
    for _ in range(10):
        fleet.tick(100.0)
    assert all(m.epoch.epoch == 0 for m in fleet.memberships)
    assert all(m.shares_sent == 0 for m in fleet.memberships)
    assert all(m.announces_sent == 0 for m in fleet.memberships)
    assert all(cm.installed.seq == 1 for cm in fleet.checkpoints)
    assert not fleet.failures


def test_crashed_forever_client_is_evicted_and_the_chain_resumes():
    fleet = _Fleet(n=4)
    fleet.crashed.add(3)
    # All-clients stability is frozen (client 3's row never advances) but
    # the surviving rows alone carry a full interval: the counterfactual
    # blocking case.
    fleet.set_stability(
        (0, 0, 0, 0), members_vector=(2, 2, 1, 0), stale=(3,)
    )
    # lease_checkpoints=1 + evict_after=1: two blocking checks to evict.
    fleet.tick(10.0)
    assert all(m.epoch.epoch == 0 for m in fleet.memberships[:3])
    fleet.tick(20.0)
    assert all(m.epoch.epoch == 1 for m in fleet.memberships[:3])
    assert all(m.members == (0, 1, 2) for m in fleet.memberships[:3])
    assert all(m.evicted_clients() == (3,) for m in fleet.memberships[:3])
    # The checkpoint chain resumed at the new quorum: seq 1 installed
    # with the shrunken signer set, full-width cut.
    for cm in fleet.checkpoints[:3]:
        assert cm.installed.seq == 1
        assert cm.installed.signers == (0, 1, 2)
        assert len(cm.installed.cut) == 4
    assert not fleet.failures


def test_lease_renewal_resets_strikes_and_prevents_eviction():
    fleet = _Fleet(n=3, policy=MembershipPolicy(lease_checkpoints=2, evict_after=2))
    fleet.crashed.add(2)
    fleet.set_stability((0, 0, 0), members_vector=(3, 2, 0), stale=(2,))
    for now in (10.0, 20.0, 30.0):
        fleet.tick(now)
    assert fleet.memberships[0].strikes[2] == 3
    assert fleet.memberships[0].lease_lapsed(2)
    # The slow client comes back just in time: its checkpoint share is
    # its lease renewal, one tick before the eviction threshold (4).
    fleet.crashed.discard(2)
    fleet.set_stability((3, 2, 1), stale=())
    assert all(cm.installed.seq == 1 for cm in fleet.checkpoints)
    assert fleet.memberships[0].strikes[2] == 0
    for now in (40.0, 50.0):
        fleet.tick(now)
    assert all(m.epoch.epoch == 0 for m in fleet.memberships)
    assert not fleet.failures


def test_no_eviction_without_a_strict_majority_of_survivors():
    fleet = _Fleet(n=4)
    fleet.crashed.update((2, 3))  # two of four: survivors are not a majority
    fleet.set_stability(
        (0, 0, 0, 0), members_vector=(3, 2, 0, 0), stale=(2, 3)
    )
    for now in (10.0, 20.0, 30.0, 40.0):
        fleet.tick(now)
    assert all(m.epoch.epoch == 0 for m in fleet.memberships[:2])
    assert all(m.shares_sent == 0 for m in fleet.memberships[:2])
    assert not fleet.failures


def test_member_refuses_epoch_whose_evictees_are_not_lapsed_in_its_view():
    fleet = _Fleet(n=3)
    # Client 0 unilaterally proposes evicting 2, but clients 1 and 2 see
    # no blocking at all: nobody countersigns, no epoch installs.
    proposer = fleet.memberships[0]
    proposer.strikes[2] = 99
    proposer._propose((0, 1))
    assert proposer.shares_sent == 1
    assert all(m.epoch.epoch == 0 for m in fleet.memberships)
    assert fleet.memberships[1].shares_sent == 0
    assert not fleet.failures


def test_invalid_epoch_share_signature_is_forking_evidence():
    fleet = _Fleet(n=3)
    forged = EpochShareMessage(
        sender=1,
        epoch=1,
        members=(0, 1),
        parent_digest=fleet.memberships[0].epoch.digest,
        signature=b"not-a-signature",
    )
    fleet.memberships[0].on_share(forged)
    assert fleet.memberships[0].failed
    assert "invalid" in fleet.failures[0]


def test_share_diverging_from_installed_epoch_is_forking_evidence():
    fleet = _Fleet(n=4)
    fleet.crashed.add(3)
    fleet.set_stability((0, 0, 0, 0), members_vector=(2, 2, 1, 0), stale=(3,))
    fleet.tick(10.0)
    fleet.tick(20.0)
    assert fleet.memberships[0].epoch.epoch == 1
    # A signed record for epoch 1 with a *different* member set than the
    # one installed: forked membership history.
    signer = fleet.keystore.signer(2)
    divergent = EpochShareMessage(
        sender=2,
        epoch=1,
        members=(0, 2),
        parent_digest=fleet.memberships[0].chain[0].digest,
        signature=signer.sign("EPOCH", 1, (0, 2), fleet.memberships[0].chain[0].digest),
    )
    fleet.memberships[0].on_share(divergent)
    assert fleet.memberships[0].failed
    assert "diverges" in fleet.failures[0]


def test_malformed_member_sets_are_ignored_not_evidence():
    fleet = _Fleet(n=3)
    parent = fleet.memberships[0].epoch.digest
    signer = fleet.keystore.signer(1)
    for bad in ((), (1, 0), (0, 0, 1), (0, 7)):
        share = EpochShareMessage(
            sender=1,
            epoch=1,
            members=bad,
            parent_digest=parent,
            signature=signer.sign("EPOCH", 1, bad, parent),
        )
        fleet.memberships[0].on_share(share)
    assert not fleet.memberships[0].failed
    assert fleet.memberships[0].epoch.epoch == 0


def test_returning_evictee_rejoins_through_an_add_epoch():
    fleet = _Fleet(n=4)
    fleet.crashed.add(3)
    fleet.set_stability((0, 0, 0, 0), members_vector=(2, 2, 1, 0), stale=(3,))
    fleet.tick(10.0)
    fleet.tick(20.0)
    assert fleet.memberships[0].evicted_clients() == (3,)
    # Client 3 returns and makes contact (any offline message from it
    # lands in note_contact); a member answers with the chain and
    # sponsors an add-epoch that every member co-signs.
    fleet.crashed.discard(3)
    fleet.memberships[0].note_contact(3)
    assert (0, 3) in fleet.announces
    assert all(m.epoch.epoch == 2 for m in fleet.memberships)
    assert all(m.members == (0, 1, 2, 3) for m in fleet.memberships)
    assert fleet.memberships[3].epoch.digest == fleet.memberships[0].epoch.digest
    assert fleet.memberships[0].rejoins >= 1
    assert not fleet.failures


def test_rejoin_disabled_policy_never_readmits():
    fleet = _Fleet(
        n=4, policy=MembershipPolicy(lease_checkpoints=1, evict_after=1, rejoin=False)
    )
    fleet.crashed.add(3)
    fleet.set_stability((0, 0, 0, 0), members_vector=(2, 2, 1, 0), stale=(3,))
    fleet.tick(10.0)
    fleet.tick(20.0)
    assert fleet.memberships[0].evicted_clients() == (3,)
    fleet.crashed.discard(3)
    fleet.memberships[0].note_contact(3)
    assert fleet.memberships[0].epoch.epoch == 1
    assert fleet.memberships[0].announces_sent == 0


def test_evicted_client_solicits_rejoin_on_tick():
    fleet = _Fleet(n=4)
    fleet.crashed.add(3)
    fleet.set_stability((0, 0, 0, 0), members_vector=(2, 2, 1, 0), stale=(3,))
    fleet.tick(10.0)
    fleet.tick(20.0)
    fleet.crashed.discard(3)
    # The evictee first has to LEARN it was evicted (the announce); after
    # adopting the chain its own ticks solicit rejoin from a member.
    fleet.memberships[3].on_announce(fleet.memberships[0].build_announce())
    assert fleet.memberships[3].epoch.epoch == 1
    assert not fleet.memberships[3].is_member()
    fleet.memberships[3].on_tick(30.0)
    assert (3, 0) in fleet.rejoin_requests


def test_announce_adoption_reseeds_the_checkpoint_base():
    fleet = _Fleet(n=4)
    fleet.crashed.add(3)
    fleet.set_stability((0, 0, 0, 0), members_vector=(4, 3, 1, 0), stale=(3,))
    fleet.tick(10.0)
    fleet.tick(20.0)
    assert fleet.checkpoints[0].installed.seq == 1
    fleet.crashed.discard(3)
    fleet.memberships[3].on_announce(fleet.memberships[0].build_announce())
    # The returnee adopted both the epoch chain and the members' last
    # installed checkpoint as its new history base.
    assert fleet.memberships[3].epoch.epoch == 1
    assert fleet.checkpoints[3].installed.digest == (
        fleet.checkpoints[0].installed.digest
    )
    assert not fleet.failures


def test_diverging_announce_is_forking_evidence():
    fleet = _Fleet(n=4)
    fleet.crashed.add(3)
    fleet.set_stability((0, 0, 0, 0), members_vector=(2, 2, 1, 0), stale=(3,))
    fleet.tick(10.0)
    fleet.tick(20.0)
    announce = fleet.memberships[0].build_announce()
    forked = announce.__class__(
        sender=announce.sender,
        records=(announce.records[0], (1, (1, 2), announce.records[1][2])),
        checkpoint_seq=announce.checkpoint_seq,
        checkpoint_cut=announce.checkpoint_cut,
        checkpoint_parent=announce.checkpoint_parent,
    )
    fleet.memberships[1].on_announce(forked)
    assert fleet.memberships[1].failed
    assert "diverges" in fleet.failures[1]


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
