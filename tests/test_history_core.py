"""Operations, histories, the register spec, and the recorder."""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.api import FaustParams, SystemConfig, open_system
from repro.common.errors import HistoryError
from repro.common.types import BOTTOM, DIGEST_FORM_MIN_BYTES, OpKind, ValueDigest
from repro.consistency import check_linearizability
from repro.crypto.hashing import hash_register_value
from repro.history.events import Operation
from repro.history.history import History
from repro.history.recorder import HistoryRecorder
from repro.history.register_spec import (
    explain_illegal,
    is_legal_sequence,
    run_sequentially,
)

from histbuild import h, r, w


class TestOperation:
    def test_swmr_enforced(self):
        with pytest.raises(HistoryError):
            Operation(1, client=0, kind=OpKind.WRITE, register=1, value=b"x",
                      invoked_at=0, responded_at=1)

    def test_read_any_register_allowed(self):
        op = r(0, 2, b"x", 0, 1)
        assert op.register == 2

    def test_response_before_invocation_rejected(self):
        with pytest.raises(HistoryError):
            w(0, b"x", 5, 1)

    def test_write_needs_value(self):
        with pytest.raises(HistoryError):
            Operation(1, client=0, kind=OpKind.WRITE, register=0, value=None,
                      invoked_at=0, responded_at=1)

    def test_real_time_precedence_strict(self):
        a = w(0, b"a", 0, 1)
        b = r(1, 0, b"a", 2, 3)
        c = r(2, 0, b"a", 1, 4)  # overlaps a's response instant boundary
        assert a.precedes(b)
        assert not b.precedes(a)
        assert not a.precedes(c) or a.responded_at < c.invoked_at

    def test_concurrency(self):
        a = w(0, b"a", 0, 10)
        b = r(1, 0, BOTTOM, 5, 6)
        assert a.concurrent_with(b)
        assert b.concurrent_with(a)

    def test_incomplete_never_precedes(self):
        a = w(0, b"a", 0, None)
        b = r(1, 0, BOTTOM, 100, 101)
        assert not a.precedes(b)

    def test_completed_copy(self):
        pending = w(0, b"a", 0, None)
        done = pending.completed_copy(responded_at=float("inf"))
        assert done.complete and done.value == b"a"

    def test_completed_copy_read_takes_value(self):
        pending = r(0, 1, None, 0, None)
        done = pending.completed_copy(responded_at=5.0, value=b"v")
        assert done.value == b"v"

    def test_describe_uses_paper_notation(self):
        assert w(0, b"u", 0, 1).describe() == "write_C1(X1, 'u')"
        assert r(1, 0, BOTTOM, 0, 1).describe() == "read_C2(X1) -> BOTTOM"


class TestHistory:
    def test_sorted_by_invocation(self):
        late = w(0, b"b", 5, 6)
        early = r(1, 0, BOTTOM, 0, 1)
        hist = h(late, early)
        assert hist[0] is early

    def test_duplicate_op_id_rejected(self):
        a = w(0, b"a", 0, 1, op_id=99)
        b = r(1, 0, BOTTOM, 2, 3, op_id=99)
        with pytest.raises(HistoryError):
            h(a, b)

    def test_overlapping_ops_same_client_rejected(self):
        a = w(0, b"a", 0, 5)
        b = r(0, 0, b"a", 3, 6)
        with pytest.raises(HistoryError):
            h(a, b)

    def test_invoke_while_pending_rejected(self):
        a = w(0, b"a", 0, None)
        b = r(0, 1, BOTTOM, 1, 2)
        with pytest.raises(HistoryError):
            h(a, b)

    def test_complete_filters_pending(self):
        a = w(0, b"a", 0, 1)
        b = w(1, b"b", 0, None)
        assert [op.op_id for op in h(a, b).complete()] == [a.op_id]

    def test_restrict_to_client(self):
        a = w(0, b"a", 0, 1)
        b = r(1, 0, b"a", 2, 3)
        c = r(0, 1, BOTTOM, 2, 3)
        hist = h(a, b, c)
        assert [op.op_id for op in hist.restrict_to_client(0)] == [a.op_id, c.op_id]

    def test_writes_to_in_program_order(self):
        a = w(0, b"a", 0, 1)
        b = w(0, b"b", 2, 3)
        hist = h(a, b)
        assert [op.value for op in hist.writes_to(0)] == [b"a", b"b"]
        assert hist.writes_to(1) == []

    def test_unique_values_enforced(self):
        a = w(0, b"same", 0, 1)
        b = w(0, b"same", 2, 3)
        with pytest.raises(HistoryError):
            h(a, b).assert_unique_write_values()

    def test_same_value_different_registers_allowed(self):
        a = w(0, b"same", 0, 1)
        b = w(1, b"same", 0, 1)
        h(a, b).assert_unique_write_values()

    def test_completed_for_checking_drops_incomplete_reads(self):
        a = r(0, 1, None, 0, None)
        assert len(h(a).completed_for_checking()) == 0

    def test_completed_for_checking_keeps_incomplete_writes(self):
        a = w(0, b"a", 0, None)
        prepared = h(a).completed_for_checking()
        assert len(prepared) == 1
        assert prepared[0].responded_at == float("inf")

    def test_op_lookup(self):
        a = w(0, b"a", 0, 1)
        hist = h(a)
        assert hist.op(a.op_id) is a
        with pytest.raises(HistoryError):
            hist.op(10**9)

    def test_clients_and_registers(self):
        hist = h(w(0, b"a", 0, 1), r(2, 1, BOTTOM, 0, 1))
        assert hist.clients() == [0, 2]
        assert hist.registers() == [0, 1]

    def test_describe_includes_pending(self):
        text = h(w(0, b"a", 0, None)).describe()
        assert "pending" in text


class TestRegisterSpec:
    def test_read_after_write(self):
        assert is_legal_sequence([w(0, b"a", 0, 1), r(1, 0, b"a", 2, 3)])

    def test_read_initial(self):
        assert is_legal_sequence([r(1, 0, BOTTOM, 0, 1)])

    def test_stale_read_illegal(self):
        seq = [w(0, b"a", 0, 1), w(0, b"b", 2, 3), r(1, 0, b"a", 4, 5)]
        assert not is_legal_sequence(seq)

    def test_bottom_after_write_illegal(self):
        assert not is_legal_sequence([w(0, b"a", 0, 1), r(1, 0, BOTTOM, 2, 3)])

    def test_registers_independent(self):
        seq = [w(0, b"a", 0, 1), w(1, b"b", 0, 1), r(2, 0, b"a", 2, 3), r(2, 1, b"b", 4, 5)]
        assert is_legal_sequence(seq)

    def test_run_sequentially_reports_offender(self):
        bad = r(1, 0, b"ghost", 0, 1)
        legal, offender, state = run_sequentially([bad])
        assert not legal and offender == bad.op_id

    def test_explain_illegal(self):
        message = explain_illegal([w(0, b"a", 0, 1), r(1, 0, BOTTOM, 2, 3)])
        assert message is not None and "should have returned" in message
        assert explain_illegal([w(0, b"a", 0, 1)]) is None


class TestRecorder:
    def test_begin_end_roundtrip(self):
        rec = HistoryRecorder()
        op_id = rec.begin(0, OpKind.WRITE, 0, invoked_at=1.0, value=b"v", timestamp=1)
        op = rec.end(op_id, responded_at=2.0)
        assert op.value == b"v" and op.complete and op.timestamp == 1

    def test_read_value_set_at_end(self):
        rec = HistoryRecorder()
        op_id = rec.begin(0, OpKind.READ, 1, invoked_at=1.0, timestamp=1)
        op = rec.end(op_id, responded_at=2.0, value=b"seen")
        assert op.value == b"seen"

    def test_pending_included_in_history(self):
        rec = HistoryRecorder()
        rec.begin(0, OpKind.WRITE, 0, invoked_at=1.0, value=b"v", timestamp=1)
        hist = rec.history()
        assert len(hist) == 1 and not hist[0].complete
        assert rec.pending_count == 1 and rec.completed_count == 0

    def test_double_end_rejected(self):
        rec = HistoryRecorder()
        op_id = rec.begin(0, OpKind.WRITE, 0, invoked_at=1.0, value=b"v")
        rec.end(op_id, responded_at=2.0)
        with pytest.raises(HistoryError):
            rec.end(op_id, responded_at=3.0)

    def test_a_long_value_is_recorded_as_its_digest(self):
        rec = HistoryRecorder()
        short, long = b"s" * (DIGEST_FORM_MIN_BYTES - 1), b"l" * DIGEST_FORM_MIN_BYTES
        ops = []
        for t, value in ((1, short), (2, long)):
            op_id = rec.begin(0, OpKind.WRITE, 0, invoked_at=t, value=value, timestamp=t)
            ops.append(rec.end(op_id, responded_at=t + 0.5))
        assert ops[0].value == short
        assert ops[1].value == ValueDigest(hash_register_value(long))
        op_id = rec.begin(1, OpKind.READ, 0, invoked_at=5.0, timestamp=1)
        # A hash the caller passes is taken as H(x), not recomputed.
        read = rec.end(op_id, responded_at=6.0, value=long, value_hash=b"h" * 32)
        assert read.value == ValueDigest(b"h" * 32)
        assert rec.history()[1].value == ops[1].value

    def test_a_digest_read_across_a_compaction_records_the_digest(self):
        # Register 0's first write is compacted away behind the cut at 2;
        # a dummy read answered with the digest of the write at 2 records
        # the writer's own recorded form, and raises nothing.
        rec = HistoryRecorder()
        values = [bytes([t]) * 64 for t in (1, 2, 3)]
        for t, value in enumerate(values, start=1):
            op_id = rec.begin(0, OpKind.WRITE, 0, invoked_at=t, value=value, timestamp=t)
            rec.end(op_id, responded_at=t + 0.5)
        assert rec.compact((2,), keep_tail=1) == 1
        digest = ValueDigest(hash_register_value(values[1]))
        op_id = rec.begin(1, OpKind.READ, 0, invoked_at=2.7, timestamp=1)
        assert rec.end(op_id, responded_at=2.8, value=digest).value == digest
        history = rec.history()
        assert [op.value for op in history if op.is_write][0] == digest
        assert check_linearizability(history).ok


def _value(client: int, index: int, size: int) -> bytes:
    stem = b"c%d#%d|" % (client, index)
    return stem + bytes(size - len(stem))


def _bytes_held_after_run(value_size: int, clients: int = 4, rounds: int = 60):
    """Bytes still allocated, after a seeded FAUST run, by the recorder
    (``repro/history/``) and by this file — which made every written
    value and keeps none itself.  Returns ``(bytes, completed ops)``."""
    tracemalloc.start()
    try:
        system = open_system(
            SystemConfig(
                num_clients=clients, seed=7, faust=FaustParams(dummy_read_period=3.0)
            ),
            backend="faust",
        )
        sessions = system.sessions()
        for index in range(rounds):
            for client, session in enumerate(sessions):
                session.write(_value(client, index, value_size))
                session.read((client + 1) % clients)
            for session in sessions:
                session.barrier()
        system.run(until=system.now + 50.0)  # idle: dummy reads in digest form
        gc.collect()
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [
                tracemalloc.Filter(True, "*repro/history/*"),
                tracemalloc.Filter(True, __file__),
            ]
        )
        held = sum(stat.size for stat in snapshot.statistics("filename"))
        return held, system.recorder.completed_count
    finally:
        tracemalloc.stop()


class TestRecorderMemory:
    def test_recorder_bytes_do_not_scale_with_the_value_size(self):
        small, ops = _bytes_held_after_run(64)
        large, same_ops = _bytes_held_after_run(4096)
        assert ops == same_ops and ops >= 2 * 4 * 60
        # Both runs record H(x) for every value; what 4 KiB values add is
        # the one value per client the server's MEM still holds, and a
        # few bytes per op of allocator noise.  Keeping the values costs
        # about 4 KiB per write.
        assert abs(large - small) <= 4 * 4096 + 8 * ops, (small, large, ops)
