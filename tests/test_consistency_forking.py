"""Views (Definition 1), fork-linearizability, weak fork-linearizability.

The centrepiece is the paper's Figure 3 history, which must separate the
notions exactly as Section 4 claims: causally consistent and weakly
fork-linearizable, but neither linearizable nor fork-linearizable.
"""

from __future__ import annotations

from repro.common.types import BOTTOM
from repro.consistency import (
    at_most_one_join_violation,
    causality_violation,
    check_fork_linearizability_exhaustive,
    check_weak_fork_linearizability_exhaustive,
    enumerate_views,
    is_view_of,
    lastops,
    no_join_violation,
    prefixes_agree,
    preserves_real_time,
    preserves_weak_real_time,
    validate_fork_linearizability,
    validate_weak_fork_linearizability,
    view_violation,
)

from histbuild import h, r, w


def figure3_history():
    write = w(0, b"u", 0, 1)
    read1 = r(1, 0, BOTTOM, 2, 3)
    read2 = r(1, 0, b"u", 4, 5)
    return h(write, read1, read2), write, read1, read2


class TestViews:
    def test_own_ops_required_in_order(self):
        hist = h(w(0, b"a", 0, 1), r(0, 1, BOTTOM, 2, 3))
        prepared = hist.completed_for_checking()
        a, b = prepared[0], prepared[1]
        assert is_view_of(prepared, 0, [a, b])
        assert not is_view_of(prepared, 0, [b, a])
        assert not is_view_of(prepared, 0, [a])

    def test_other_ops_optional(self):
        hist = h(w(0, b"a", 0, 1), r(1, 0, BOTTOM, 5, 6))
        prepared = hist.completed_for_checking()
        write, read = prepared[0], prepared[1]
        # C1's view may ignore C2's read entirely.
        assert is_view_of(prepared, 0, [write])
        # C2's view must include its own read; including the write after
        # the read keeps the read legal.
        assert is_view_of(prepared, 1, [read, write])
        assert not is_view_of(prepared, 1, [write, read])  # read illegal

    def test_view_must_be_legal(self):
        hist = h(w(0, b"a", 0, 1), r(1, 0, b"a", 2, 3))
        prepared = hist.completed_for_checking()
        write, read = prepared[0], prepared[1]
        problem = view_violation(prepared, 1, [read, write])
        assert problem is not None and "register specification" in problem

    def test_foreign_operation_rejected(self):
        hist = h(w(0, b"a", 0, 1))
        other = w(1, b"zz", 0, 1, op_id=424242)
        problem = view_violation(hist.completed_for_checking(), 0, [hist[0], other])
        assert problem is not None and "does not occur" in problem

    def test_duplicate_rejected(self):
        hist = h(w(0, b"a", 0, 1))
        prepared = hist.completed_for_checking()
        problem = view_violation(prepared, 0, [prepared[0], prepared[0]])
        assert problem is not None and "twice" in problem

    def test_lastops(self):
        hist, write, read1, read2 = figure3_history()
        assert lastops([write, read1, read2]) == {write.op_id, read2.op_id}
        assert lastops([read1]) == {read1.op_id}
        assert lastops([]) == set()

    def test_preserves_real_time(self):
        hist, write, read1, read2 = figure3_history()
        assert preserves_real_time([write, read1, read2], hist)
        assert not preserves_real_time([read1, write, read2], hist)

    def test_weak_real_time_exempts_last_ops(self):
        hist, write, read1, read2 = figure3_history()
        # write is C1's last op: exempt, so this order is weakly fine.
        assert preserves_weak_real_time([read1, write, read2], hist)

    def test_weak_real_time_still_binds_non_last_ops(self):
        # Four operations so that the trimmed sequence retains a
        # misordered pair: a1 (completed long before b was invoked) placed
        # after b, with neither being its client's last operation.
        a1 = w(0, b"a1", 0, 1)
        a2 = w(0, b"a2", 2, 3)
        b1 = r(1, 0, b"a1", 4, 5)
        b2 = r(1, 0, b"a2", 6, 7)
        hist = h(a1, a2, b1, b2)
        assert not preserves_weak_real_time([b1, a1, a2, b2], hist)
        assert preserves_weak_real_time([a1, a2, b1, b2], hist)

    def test_enumerate_views_yields_legal_orders(self):
        hist = h(w(0, b"a", 0, 1), r(1, 0, b"a", 2, 3))
        prepared = hist.completed_for_checking()
        views = list(enumerate_views(prepared, 1))
        assert views  # at least <write, read>
        for view in views:
            assert is_view_of(prepared, 1, view)


class TestPrefixHelpers:
    def test_prefixes_agree(self):
        hist, write, read1, read2 = figure3_history()
        pi_1 = [write]
        pi_2 = [read1, write, read2]
        assert not prefixes_agree(pi_1, pi_2, write.op_id)
        assert prefixes_agree(pi_2, pi_2, read1.op_id)

    def test_no_join_violation_found(self):
        hist, write, read1, read2 = figure3_history()
        assert no_join_violation([write], [read1, write, read2]) == write.op_id
        assert no_join_violation([write], [read1, read2]) is None

    def test_at_most_one_join_allows_single_common_op(self):
        hist, write, read1, read2 = figure3_history()
        pi_1 = [write]
        pi_2 = [read1, write, read2]
        assert at_most_one_join_violation(pi_1, pi_2) is None
        assert at_most_one_join_violation(pi_2, pi_1) is None

    def test_at_most_one_join_rejects_two_divergent_common_ops(self):
        a1 = w(0, b"a1", 0, 1)
        a2 = w(0, b"a2", 2, 3)
        b = r(1, 0, b"a2", 4, 5)
        pi_i = [a1, a2, b]
        pi_j = [b, a1, a2]  # shares a1 and a2 but different prefix at a1
        problem = at_most_one_join_violation(pi_i, pi_j)
        assert problem is not None


class TestFigure3Separation:
    """The paper's Section 4 example, checked against all four notions."""

    def test_not_linearizable(self):
        from repro.consistency.linearizability import check_linearizability

        hist, *_ = figure3_history()
        assert not check_linearizability(hist)

    def test_causally_consistent(self):
        from repro.consistency.causal import check_causal_consistency

        hist, *_ = figure3_history()
        assert check_causal_consistency(hist)

    def test_not_fork_linearizable(self):
        hist, *_ = figure3_history()
        assert not check_fork_linearizability_exhaustive(hist)

    def test_weakly_fork_linearizable(self):
        hist, *_ = figure3_history()
        result = check_weak_fork_linearizability_exhaustive(hist)
        assert result

    def test_paper_views_validate(self):
        # The exact views the paper exhibits (Section 4).
        hist, write, read1, read2 = figure3_history()
        prepared = hist.completed_for_checking()
        write, read1, read2 = prepared[0], prepared[1], prepared[2]
        views = {0: [write], 1: [read1, write, read2]}
        assert validate_weak_fork_linearizability(hist, views)

    def test_paper_views_fail_fork_validation(self):
        hist, write, read1, read2 = figure3_history()
        prepared = hist.completed_for_checking()
        write, read1, read2 = prepared[0], prepared[1], prepared[2]
        views = {0: [write], 1: [read1, write, read2]}
        result = validate_fork_linearizability(hist, views)
        assert not result  # C2's view breaks real-time order


class TestValidators:
    def test_linearizable_history_validates_everything(self):
        hist = h(w(0, b"a", 0, 1), r(1, 0, b"a", 2, 3))
        prepared = hist.completed_for_checking()
        seq = [prepared[0], prepared[1]]
        views = {0: [prepared[0]], 1: seq}
        assert validate_fork_linearizability(hist, views)
        assert validate_weak_fork_linearizability(hist, views)

    def test_causality_condition_detects_missing_update(self):
        write_a = w(0, b"a", 0, 1)
        read_a = r(1, 0, b"a", 2, 3)
        write_b = w(1, b"b", 4, 5)
        read_b = r(2, 1, b"b", 6, 7)
        hist = h(write_a, read_a, write_b, read_b)
        prepared = hist.completed_for_checking()
        ops = {op.op_id: op for op in prepared}
        # C3's view contains read_b; write_a causally precedes write_b
        # (via C2's read) hence also read_b — omitting it violates cond. 3.
        bad_view = [ops[write_b.op_id], ops[read_b.op_id]]
        problem = causality_violation(prepared, bad_view)
        assert problem is not None and "missing" in problem

    def test_causality_condition_detects_misordered_update(self):
        write_a = w(0, b"a", 0, 1)
        read_a = r(1, 0, b"a", 2, 3)
        hist = h(write_a, read_a)
        prepared = hist.completed_for_checking()
        bad = [prepared[1], prepared[0]]
        problem = causality_violation(prepared, bad)
        assert problem is not None and "follows it" in problem

    def test_weak_fork_violation_reported_per_condition(self):
        hist, write, read1, read2 = figure3_history()
        prepared = hist.completed_for_checking()
        write, read1, read2 = prepared[0], prepared[1], prepared[2]
        # An illegal view (read u before the write is in the view).
        result = validate_weak_fork_linearizability(
            hist, {1: [read1, read2, write]}
        )
        assert not result and "condition 1" in result.violation


class TestExhaustiveForkCheckers:
    def test_sequential_history_is_fork_linearizable(self):
        hist = h(w(0, b"a", 0, 1), r(1, 0, b"a", 2, 3))
        assert check_fork_linearizability_exhaustive(hist)

    def test_forked_groups_are_fork_linearizable(self):
        # Two clients that never see each other's operations: a textbook
        # fork — allowed by fork-linearizability (and the weak variant).
        hist = h(
            w(0, b"a", 0, 1),
            r(0, 1, BOTTOM, 2, 3),
            w(1, b"b", 0.5, 1.5),
            r(1, 0, BOTTOM, 2.5, 3.5),
        )
        assert check_fork_linearizability_exhaustive(hist)
        assert check_weak_fork_linearizability_exhaustive(hist)

    def test_fabricated_value_is_not_weak_fork_linearizable(self):
        hist = h(r(0, 1, b"ghost", 0, 1))
        assert not check_weak_fork_linearizability_exhaustive(hist)
        assert not check_fork_linearizability_exhaustive(hist)

    def test_fork_implies_weak_fork_on_samples(self):
        import random

        from test_consistency_linearizability import _random_history

        for seed in range(60):
            hist = _random_history(random.Random(seed), 2, 5)
            if check_fork_linearizability_exhaustive(hist).ok:
                assert check_weak_fork_linearizability_exhaustive(hist).ok, f"seed {seed}"

    def test_linearizable_implies_fork_linearizable_on_samples(self):
        import random

        from repro.consistency.linearizability import check_linearizability
        from test_consistency_linearizability import _random_history

        for seed in range(60):
            hist = _random_history(random.Random(seed), 2, 5)
            if check_linearizability(hist).ok:
                assert check_fork_linearizability_exhaustive(hist).ok, f"seed {seed}"
