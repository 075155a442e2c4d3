"""Operations, histories, the register spec, and the recorder."""

from __future__ import annotations

import pytest

from repro.common.errors import HistoryError
from repro.common.types import BOTTOM, OpKind
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

    def test_a_digest_read_records_the_write_its_timestamp_names(self):
        # Writer C1 (register 0): write at 1, read at 2, write at 3, and a
        # write at 5 still in flight.  MEM[0] at t_j names the latest
        # write at or before t_j.
        rec = HistoryRecorder()
        for t, value in ((1, b"a"), (3, b"b"), (5, b"c")):
            op_id = rec.begin(0, OpKind.WRITE, 0, invoked_at=t, value=value, timestamp=t)
            if t < 5:
                rec.end(op_id, responded_at=t + 0.5)
        expected = {0: BOTTOM, 1: b"a", 2: b"a", 3: b"b", 4: b"b", 5: b"c", 9: b"c"}
        for t_j, value in expected.items():
            op_id = rec.begin(1, OpKind.READ, 0, invoked_at=10.0 + t_j, timestamp=t_j + 1)
            op = rec.end(op_id, responded_at=10.5 + t_j, written_at=(0, t_j))
            assert op.value == value, t_j
        assert rec.value_written(1, 4) is BOTTOM  # C2 never wrote

    def test_a_write_compaction_pruned_is_not_guessed(self):
        rec = HistoryRecorder()
        for t, value in ((1, b"a"), (2, b"b"), (3, b"c")):
            op_id = rec.begin(0, OpKind.WRITE, 0, invoked_at=t, value=value, timestamp=t)
            rec.end(op_id, responded_at=t + 0.5)
        assert rec.compact((2,), keep_tail=1) == 1  # b"a" goes, b"b" stays
        assert rec.value_written(0, 2) == b"b"
        assert rec.value_written(0, 3) == b"c"
        op_id = rec.begin(0, OpKind.READ, 0, invoked_at=5.0, timestamp=4)
        with pytest.raises(HistoryError, match="compacted"):
            rec.end(op_id, responded_at=6.0, written_at=(0, 1))

    def test_timestamp_lookup(self):
        rec = HistoryRecorder()
        op_id = rec.begin(2, OpKind.READ, 0, invoked_at=0.0, timestamp=7)
        assert rec.op_id_for(2, 7) == op_id
        assert rec.op_id_for(2, 8) is None
