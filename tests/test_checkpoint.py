"""Unit tests for the bounded-state extension's moving parts.

Covers the checkpoint co-signing protocol (:mod:`repro.faust.checkpoint`)
in isolation — proposals, countersignatures, installs, the hash chain,
and every forged/conflicting-share failure path — plus the server's
defensive ``apply_checkpoint`` truncation, the WAL ``K`` record round
trip, history-recorder compaction, and the checkpoint-base plumbing
through the offline and incremental checkers.  The end-to-end properties
(checkpointing on vs off over whole runs) live in
``test_checkpoint_equivalence.py``.
"""

from __future__ import annotations

import pytest

from repro.common.errors import (
    CheckerError,
    ConfigurationError,
    HistoryError,
    ProtocolError,
)
from repro.common.types import BOTTOM, OpKind
from repro.consistency.incremental import (
    IncrementalCausalChecker,
    IncrementalLinearizabilityChecker,
)
from repro.consistency.linearizability import (
    check_linearizability,
    check_linearizability_exhaustive,
)
from repro.crypto.keystore import KeyStore
from repro.faust.checkpoint import (
    Checkpoint,
    CheckpointManager,
    CheckpointPolicy,
    chain_digest,
)
from repro.faust.messages import CheckpointShareMessage
from repro.history.recorder import HistoryRecorder
from repro.store.codec import decode_server_state, encode_server_state
from repro.store.engine import LogStructuredEngine
from repro.ustor.messages import InvocationTuple, SubmitMessage
from repro.ustor.server import apply_checkpoint, apply_commit, apply_submit
from repro.ustor.version import Version

from histbuild import h, r, w

# --------------------------------------------------------------------- #
# Policy and chain basics
# --------------------------------------------------------------------- #


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        CheckpointPolicy(interval=0)
    with pytest.raises(ConfigurationError):
        CheckpointPolicy(keep_tail=0)
    assert CheckpointPolicy().interval == 32


def test_genesis_and_chain_digest():
    genesis = Checkpoint.genesis(3)
    assert genesis.seq == 0
    assert genesis.cut == (0, 0, 0)
    assert genesis.members == (0, 1, 2)
    assert genesis.digest == chain_digest(0, (0, 0, 0), (0, 1, 2), b"")
    # The digest binds sequence, cut, signer set and ancestry.
    child = chain_digest(1, (2, 1, 1), (0, 1, 2), genesis.digest)
    assert child != chain_digest(2, (2, 1, 1), (0, 1, 2), genesis.digest)
    assert child != chain_digest(1, (2, 1, 2), (0, 1, 2), genesis.digest)
    assert child != chain_digest(1, (2, 1, 1), (0, 1), genesis.digest)
    assert child != chain_digest(1, (2, 1, 1), (0, 1, 2), b"other")


def test_share_wire_size_carries_members_in_one_int():
    """The member set rides as a bitmask in one 8-byte int: a share is
    as large with 3 members as with 2."""
    def share(members):
        return CheckpointShareMessage(
            sender=0, seq=1, cut=(1, 1, 1), members=members,
            parent_digest=b"p" * 32, signature=b"s" * 64,
        )

    assert share((0, 1, 2)).wire_size() == share((0, 1)).wire_size()


# --------------------------------------------------------------------- #
# The co-signing protocol, wired directly (no simulator)
# --------------------------------------------------------------------- #


def _share(keystore, sender, seq, cut, parent, members=(0, 1, 2)):
    """A validly signed share for the link ``(seq, cut, members, parent)``."""
    return CheckpointShareMessage(
        sender=sender,
        seq=seq,
        cut=cut,
        members=members,
        parent_digest=parent,
        signature=keystore.signer(sender).sign(
            "CHECKPOINT", seq, cut, members, parent
        ),
    )


class _Net:
    """N managers with instantaneous share broadcast."""

    def __init__(self, n: int = 3, interval: int = 4):
        self.keystore = KeyStore(n)
        self.installed: dict[int, list[Checkpoint]] = {i: [] for i in range(n)}
        self.failures: dict[int, str] = {}
        self.server_messages: list = []
        self.partitioned: set[int] = set()
        self.managers: list[CheckpointManager] = []
        self.time = 0.0
        policy = CheckpointPolicy(interval=interval)
        for i in range(n):
            self.managers.append(
                CheckpointManager(
                    client_id=i,
                    num_clients=n,
                    signer=self.keystore.signer(i),
                    policy=policy,
                    send_share=self._broadcast(i),
                    send_server=self.server_messages.append,
                    on_install=self.installed[i].append,
                    on_fail=lambda reason, i=i: self.failures.__setitem__(
                        i, reason
                    ),
                    clock=lambda: self.time,
                )
            )

    def _broadcast(self, sender: int):
        def send(share: CheckpointShareMessage) -> None:
            for j, manager in enumerate(self.managers):
                if j != sender and j not in self.partitioned:
                    manager.on_share(share)

        return send

    def stabilize(self, vector: tuple[int, ...]) -> None:
        for i, manager in enumerate(self.managers):
            if i not in self.partitioned:
                manager.on_stability(vector)


def test_propose_countersign_install_round():
    net = _Net(n=3, interval=4)
    net.stabilize((2, 2, 1))  # sum 5 >= 4: proposer of seq 1 is client 0
    for i, manager in enumerate(net.managers):
        assert manager.installed.seq == 1, f"client {i}"
        assert manager.installed.cut == (2, 2, 1)
    assert all(len(installs) == 1 for installs in net.installed.values())
    # Exactly one certificate reached the server, carrying n signatures.
    assert len(net.server_messages) == 1
    certificate = net.server_messages[0]
    assert certificate.seq == 1 and certificate.cut == (2, 2, 1)
    assert len(certificate.signatures) == 3
    # The chain extends genesis.
    expected = chain_digest(1, (2, 2, 1), (0, 1, 2), Checkpoint.genesis(3).digest)
    assert net.managers[0].installed.digest == expected
    assert not net.failures


def test_round_robin_proposers_advance_the_chain():
    net = _Net(n=3, interval=4)
    net.stabilize((2, 2, 1))
    net.stabilize((4, 3, 3))  # sum 10, delta 5 >= 4: client 1 proposes seq 2
    assert [m.installed.seq for m in net.managers] == [2, 2, 2]
    assert net.server_messages[1].seq == 2
    parent = net.managers[0].installed.parent_digest
    assert parent == chain_digest(
        1, (2, 2, 1), (0, 1, 2), Checkpoint.genesis(3).digest
    )
    assert not net.failures


def test_laggard_withholds_countersignature_until_covered():
    net = _Net(n=3, interval=4)
    # Only the proposer has seen this much stability; peers are behind.
    net.managers[0].on_stability((2, 2, 2))
    assert net.managers[0].installed.seq == 0  # proposal out, no quorum
    net.managers[1].on_stability((2, 2, 2))
    assert net.managers[1].installed.seq == 0  # still one short
    net.managers[2].on_stability((1, 1, 1))  # does NOT cover the cut
    assert net.managers[2].installed.seq == 0
    net.managers[2].on_stability((2, 2, 2))  # now it does
    assert [m.installed.seq for m in net.managers] == [1, 1, 1]
    assert not net.failures


def test_non_equivocation_single_signature_per_seq():
    net = _Net(n=3, interval=4)
    net.partitioned = {1, 2}  # proposer alone: share goes nowhere
    net.managers[0].on_stability((2, 2, 2))
    assert net.managers[0].shares_sent == 1
    # More stability must not re-sign seq 1 with a bigger cut.
    net.managers[0].on_stability((5, 5, 5))
    assert net.managers[0].shares_sent == 1
    assert net.managers[0].shares_for(1)[0].cut == (2, 2, 2)


def test_conflicting_shares_are_forking_evidence():
    net = _Net(n=3, interval=4)
    net.partitioned = {1, 2}
    net.managers[0].on_stability((2, 2, 2))  # client 0 signed (2,2,2)
    net.partitioned = set()
    # A (validly signed) share for the same seq with a different cut.
    evil_cut = (3, 2, 2)
    forged = _share(net.keystore, 1, 1, evil_cut, Checkpoint.genesis(3).digest)
    net.managers[0].on_share(forged)
    assert 0 in net.failures
    assert "conflicting" in net.failures[0]
    # A failed manager is inert: no new proposals, no installs.
    net.managers[0].on_stability((9, 9, 9))
    assert net.managers[0].installed.seq == 0


def test_invalid_signature_is_rejected_loudly():
    net = _Net(n=3, interval=4)
    bogus = CheckpointShareMessage(
        sender=1,
        seq=1,
        cut=(2, 2, 2),
        members=(0, 1, 2),
        parent_digest=Checkpoint.genesis(3).digest,
        signature=b"not-a-signature",
    )
    net.managers[0].on_share(bogus)
    assert "invalid" in net.failures[0]


def test_share_diverging_from_installed_checkpoint_fails():
    net = _Net(n=3, interval=4)
    net.stabilize((2, 2, 2))
    assert net.managers[0].installed.seq == 1
    # A late share for the already-installed seq with a different cut:
    # someone was shown a different history.
    divergent = _share(net.keystore, 2, 1, (3, 3, 3), Checkpoint.genesis(3).digest)
    net.managers[0].on_share(divergent)
    assert "diverges" in net.failures[0]


def test_matching_late_duplicate_and_stale_shares_are_ignored():
    net = _Net(n=3, interval=4)
    net.stabilize((2, 2, 2))
    duplicate = _share(net.keystore, 2, 1, (2, 2, 2), Checkpoint.genesis(3).digest)
    net.managers[0].on_share(duplicate)
    net.stabilize((4, 4, 4))  # chain moves on; seq 1 shares are now stale
    net.managers[0].on_share(duplicate)
    assert not net.failures
    assert net.managers[0].installed.seq == 2


def test_proposal_on_forked_parent_chain_fails():
    """A proposal extending a parent I do not hold is lag, not evidence;
    the fork shows when the forked link itself is signed: two links for
    seq 1 on one parent and member set with different cuts."""
    net = _Net(n=3, interval=4)
    genesis = Checkpoint.genesis(3).digest
    net.stabilize((2, 2, 2))
    assert net.managers[1].installed.seq == 1
    forked_link = chain_digest(1, (3, 3, 3), (0, 1, 2), genesis)
    net.managers[1].on_share(_share(net.keystore, 1, 2, (4, 4, 4), forked_link))
    assert not net.failures  # a parent I do not hold: buffered
    net.managers[1].on_share(_share(net.keystore, 0, 1, (3, 3, 3), genesis))
    assert "parent" in net.failures[1]


# --------------------------------------------------------------------- #
# Proposer loss mid-sequence, the stall clock, and share catch-up
# --------------------------------------------------------------------- #


def test_proposer_dark_mid_sequence_stalls_then_resumes_on_heal():
    net = _Net(n=3, interval=4)
    net.stabilize((2, 2, 1))  # seq 1 installed; seq 2's proposer is client 1
    assert [m.installed.seq for m in net.managers] == [1, 1, 1]
    net.partitioned = {1}  # the proposer goes dark before proposing
    net.time = 10.0
    net.stabilize((4, 4, 4))
    # Nobody else may take the rotation's turn: the chain stalls...
    assert [m.installed.seq for m in net.managers] == [1, 1, 1]
    assert net.managers[0].shares_sent == 1  # no competing proposal
    # ...and the survivors' stall clocks have been running since the
    # interval was crossed, with nobody to blame yet (no proposal means
    # an empty bucket — the membership layer's counterfactual check, not
    # this one, names a missing proposer).
    assert net.managers[0].stall_seconds(now=25.0) == 15.0
    assert net.managers[0].blocking_clients() == ()
    assert net.managers[0].shares_for(2) == {}
    # The proposer comes back and catches up on stability: one proposal,
    # quorum, install — and the stall clock rearms to zero.
    net.partitioned = set()
    net.managers[1].on_stability((4, 4, 4))
    assert [m.installed.seq for m in net.managers] == [2, 2, 2]
    assert all(m.stall_seconds(now=99.0) == 0.0 for m in net.managers)
    # The rotation was not perturbed: seq 3 belongs to client 2.
    net.stabilize((6, 6, 6))
    assert net.server_messages[-1].seq == 3
    assert net.managers[0].proposer(3) == 2
    assert not net.failures


def test_proposer_crash_after_proposal_does_not_block_the_quorum():
    net = _Net(n=3, interval=4)
    # Client 0 proposes seq 1 (its share reaches everyone), then crashes.
    net.managers[0].on_stability((2, 2, 1))
    net.partitioned = {0}
    net.stabilize((2, 2, 1))
    # Its share is already in the bucket, so the survivors complete the
    # quorum without it; only the crashed proposer itself is behind.
    assert [m.installed.seq for m in net.managers] == [0, 1, 1]
    assert not net.failures


def test_blocking_clients_names_the_member_withholding_its_share():
    net = _Net(n=3, interval=4)
    net.partitioned = {2}
    net.time = 5.0
    net.stabilize((2, 2, 2))  # 0 proposes, 1 countersigns, 2 is dark
    assert [m.installed.seq for m in net.managers] == [0, 0, 0]
    assert net.managers[0].blocking_clients() == (2,)
    assert net.managers[1].blocking_clients() == (2,)
    assert set(net.managers[0].shares_for(1)) == {0, 1}
    assert net.managers[0].stall_seconds(now=9.0) == 4.0
    # The bucket is a retransmission source: replaying it to the healed
    # member (whose copies were lost) completes the quorum.
    net.partitioned = set()
    net.managers[2].on_stability((2, 2, 2))
    for share in list(net.managers[0].shares_for(1).values()):
        net.managers[2].on_share(share)
    assert [m.installed.seq for m in net.managers] == [1, 1, 1]
    assert all(m.blocking_clients() == () for m in net.managers)
    assert not net.failures


def test_buffered_future_share_installs_once_the_gap_fills():
    net = _Net(n=3, interval=4)
    manager = net.managers[2]
    genesis = Checkpoint.genesis(3).digest
    seq1_digest = chain_digest(1, (2, 2, 2), (0, 1, 2), genesis)

    def share(sender: int, seq: int, cut, parent: bytes):
        return _share(net.keystore, sender, seq, cut, parent)

    # The seq-2 proposal arrives before the seq-1 round this client
    # missed: not actionable (its parent is unknown here), so it buffers
    # — no install, no countersignature, and crucially no failure.
    manager.on_share(share(1, 2, (4, 4, 4), seq1_digest))
    manager.on_stability((4, 4, 4))
    assert manager.installed.seq == 0
    assert set(manager.shares_for(2)) == {1}
    assert manager.shares_sent == 0
    # Retransmitted seq-1 shares (a live deployment replays them from
    # held mail or re-seeds via a rejoin answer) fill the gap...
    manager.on_share(share(0, 1, (2, 2, 2), genesis))
    manager.on_share(share(1, 1, (2, 2, 2), genesis))
    # ...and _advance walks the buffered seq-2 bucket in the same
    # breath: install 1, countersign 2 (my stability already covers it).
    assert manager.installed.seq == 1
    assert manager.installed.digest == seq1_digest
    assert 2 in manager.shares_for(2)  # my countersignature joined in
    manager.on_share(share(0, 2, (4, 4, 4), seq1_digest))
    assert manager.installed.seq == 2
    assert manager.installs == 2
    assert not net.failures


# --------------------------------------------------------------------- #
# Server-side defensive truncation
# --------------------------------------------------------------------- #


def _submit_message(client: int, timestamp: int, value: bytes) -> SubmitMessage:
    return SubmitMessage(
        timestamp=timestamp,
        invocation=InvocationTuple(
            client=client,
            opcode=OpKind.WRITE,
            register=client,
            submit_sig=b"sig",
        ),
        value=value,
        data_sig=b"sig",
    )


def _pending_state():
    """A server state with pending entries [(c0,t1), (c1,t1), (c1,t2)]."""
    from repro.store.engine import MemoryEngine

    state = MemoryEngine(2).recover()
    apply_submit(state, _submit_message(0, 1, b"a"))
    apply_submit(state, _submit_message(1, 1, b"b"))
    apply_submit(state, _submit_message(1, 2, b"c"))
    return state


def _commit(state, client: int, vector: tuple[int, ...]) -> None:
    from repro.ustor.messages import CommitMessage

    apply_commit(
        state,
        client,
        CommitMessage(
            version=Version(vector=vector, digests=(b"d",) * len(vector)),
            commit_sig=b"sig",
            proof_sig=b"sig",
        ),
    )


def test_apply_checkpoint_truncates_covered_prefix():
    state = _pending_state()
    # Client 0 commits a version covering (c0,t1) and (c1,t1); apply_commit
    # itself prunes up to client 0's own last entry (index 0).
    _commit(state, 0, (1, 1))
    assert len(state.pending) == 2  # (c1,t1), (c1,t2) remain
    assert apply_checkpoint(state, (1, 0)) == 0  # cut excludes client 1
    assert apply_checkpoint(state, (1, 1)) == 1  # covers (c1,t1) only
    assert [ts for ts in state.pending_ts] == [2]


def test_apply_checkpoint_capped_by_committed_version():
    state = _pending_state()
    _commit(state, 0, (1, 1))
    # A forged, absurdly large cut must not outrun the committed version:
    # (c1,t2) is not committed anywhere, so it survives.
    assert apply_checkpoint(state, (99, 99)) == 1
    assert [ts for ts in state.pending_ts] == [2]
    assert state.pending[0].client == 1


def test_apply_checkpoint_rejects_wrong_cut_width():
    state = _pending_state()
    with pytest.raises(ProtocolError):
        apply_checkpoint(state, (1, 1, 1))


def test_checkpoint_survives_codec_roundtrip():
    state = _pending_state()
    _commit(state, 0, (1, 1))
    apply_checkpoint(state, (1, 1))
    decoded = decode_server_state(encode_server_state(state))
    assert encode_server_state(decoded) == encode_server_state(state)
    assert list(decoded.pending_ts) == [2]


def test_wal_checkpoint_record_replays_on_recovery():
    engine = LogStructuredEngine(2, snapshot_interval=1000)
    state = engine.recover()
    messages = [
        _submit_message(0, 1, b"a"),
        _submit_message(1, 1, b"b"),
        _submit_message(1, 2, b"c"),
    ]
    for message in messages:
        apply_submit(state, message)
        engine.log_submit(message)
    from repro.ustor.messages import CommitMessage

    commit = CommitMessage(
        version=Version(vector=(1, 1), digests=(b"d", b"d")),
        commit_sig=b"sig",
        proof_sig=b"sig",
    )
    apply_commit(state, 0, commit)
    engine.log_commit(0, commit)
    truncated = apply_checkpoint(state, (1, 1))
    engine.log_checkpoint((1, 1))
    assert truncated == 1
    # A fresh engine over the same medium replays S/C/K records back to
    # the exact same state — the checkpoint is as durable as the data.
    recovered = LogStructuredEngine(2, medium=engine.medium).recover()
    assert encode_server_state(recovered) == encode_server_state(state)
    assert list(recovered.pending_ts) == [2]


# --------------------------------------------------------------------- #
# History compaction and checkpoint-base checking
# --------------------------------------------------------------------- #


def _recorded(recorder: HistoryRecorder, op) -> None:
    op_id = recorder.begin(
        client=op.client,
        kind=op.kind,
        register=op.register,
        invoked_at=op.invoked_at,
        value=op.value if op.kind is OpKind.WRITE else None,
        timestamp=op.timestamp,
    )
    recorder.end(
        op_id,
        responded_at=op.responded_at,
        value=op.value,
        timestamp=op.timestamp,
    )


def test_recorder_compact_prunes_stable_writes_and_their_reads():
    recorder = HistoryRecorder()
    ops = [
        w(0, b"w1", 0, 1, timestamp=1),
        r(1, 0, b"w1", 1.5, 2.5, timestamp=1),
        w(0, b"w2", 3, 4, timestamp=2),
        w(0, b"w3", 5, 6, timestamp=3),
        r(1, 0, b"w3", 6.5, 7.5, timestamp=2),
    ]
    for op in ops:
        _recorded(recorder, op)
    pruned = recorder.compact((2, 2), keep_tail=1)
    # w1 (stable, not the tail) and its read go; w2 is the kept tail.
    assert pruned == 2
    assert recorder.compacted_ops == 2
    history = recorder.history()
    assert len(history) == 3
    assert history.base_of(0) == (1, 1.0)  # one write pruned, responded at 1
    assert history.base_of(1) == (0, float("-inf"))
    # The compacted history still checks clean, carrying the base.
    assert check_linearizability(history.complete()).ok


def test_recorder_compact_validates_keep_tail():
    with pytest.raises(HistoryError):
        HistoryRecorder().compact((0,), keep_tail=0)


def test_base_aware_offline_checker_accepts_post_checkpoint_history():
    # Write index 3 onward: two pruned writes before the base.
    history = h(
        w(0, b"w3", 10, 11, timestamp=3),
        r(1, 0, b"w3", 11.5, 12.5, timestamp=1),
        base={0: (2, 9.0)},
    )
    assert check_linearizability(history).ok


def test_base_rule_flags_bottom_read_after_checkpointed_writes():
    # Register 0 had writes folded into a checkpoint (base count 2, last
    # response at t=9); a read invoked after that returning BOTTOM is a
    # rollback across the checkpoint.
    history = h(
        r(1, 0, BOTTOM, 11.5, 12.5, timestamp=0),
        base={0: (2, 9.0)},
    )
    verdict = check_linearizability(history)
    assert not verdict.ok
    assert "checkpoint" in (verdict.violation or "")
    # ...but a read that was already in flight before the fold is fine.
    concurrent = h(
        r(1, 0, BOTTOM, 8.0, 12.5, timestamp=0),
        base={0: (2, 9.0)},
    )
    assert check_linearizability(concurrent).ok


def test_exhaustive_checker_refuses_compacted_histories():
    history = h(w(0, b"x", 0, 1, timestamp=3), base={0: (2, -1.0)})
    with pytest.raises(CheckerError):
        check_linearizability_exhaustive(history)


def test_incremental_checkers_track_compaction_live():
    recorder = HistoryRecorder()
    lin = IncrementalLinearizabilityChecker()
    causal = IncrementalCausalChecker()
    recorder.add_listener(lin)
    recorder.add_listener(causal)
    ops = [
        w(0, b"w1", 0, 1, timestamp=1),
        r(1, 0, b"w1", 1.5, 2.5, timestamp=1),
        w(0, b"w2", 3, 4, timestamp=2),
        w(0, b"w3", 5, 6, timestamp=3),
    ]
    for op in ops:
        _recorded(recorder, op)
    assert lin.result().ok and causal.result().ok
    recorder.compact((2, 2), keep_tail=1)
    # The streaming checkers shed the pruned prefix (w1 goes; w2 is the
    # kept tail, w3 is not yet covered by the cut)...
    assert len(lin._registers[0].writes) == 2
    assert lin._registers[0].base == 1
    # ...and keep absolute indexing for everything after it.
    _recorded(recorder, r(1, 0, b"w3", 7, 8, timestamp=3))
    _recorded(recorder, w(0, b"w4", 9, 10, timestamp=4))
    assert lin.result().ok and causal.result().ok


def test_incremental_seed_base_matches_offline_verdict():
    lin = IncrementalLinearizabilityChecker()
    lin.seed_base({0: (2, 9.0)})
    history = h(
        r(1, 0, BOTTOM, 11.5, 12.5, timestamp=0),
        base={0: (2, 9.0)},
    )
    for op in history:
        lin.on_invoke(op)
        lin.on_response(op)
    assert lin.result().ok is False
    assert check_linearizability(history).ok is False
