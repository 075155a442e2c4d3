"""Sequential consistency and its place in the lattice."""

from __future__ import annotations

import random

import pytest

from repro.common.errors import CheckerError
from repro.common.types import BOTTOM
from repro.consistency.causal import check_causal_consistency
from repro.consistency.linearizability import check_linearizability
from repro.consistency import check_sequential_consistency_exhaustive

from histbuild import h, r, w
from test_consistency_linearizability import _random_history


class TestSequentialConsistency:
    def test_sequential_history(self):
        assert check_sequential_consistency_exhaustive(
            h(w(0, b"a", 0, 1), r(1, 0, b"a", 2, 3))
        )

    def test_real_time_violation_allowed(self):
        # A read returning a stale value after a newer write completed is
        # NOT linearizable but IS sequentially consistent (the read can be
        # ordered before the write, program order permitting).
        hist = h(
            w(0, b"a", 0, 1),
            w(0, b"b", 2, 3),
            r(1, 0, b"a", 10, 11),
        )
        assert not check_linearizability(hist)
        assert check_sequential_consistency_exhaustive(hist)

    def test_program_order_still_binds(self):
        # The same client reading b then a cannot be serialised.
        hist = h(
            w(0, b"a", 0, 1),
            w(0, b"b", 2, 3),
            r(1, 0, b"b", 4, 5),
            r(1, 0, b"a", 6, 7),
        )
        assert not check_sequential_consistency_exhaustive(hist)

    def test_witness_is_legal_order(self):
        hist = h(w(0, b"a", 0, 1), r(1, 0, BOTTOM, 2, 3))
        result = check_sequential_consistency_exhaustive(hist)
        assert result
        assert [op.op_id for op in result.witness] == [hist[1].op_id, hist[0].op_id]

    def test_figure3_not_sequentially_consistent(self):
        # C2 reads BOTTOM then u: the single total order would need the
        # write between C2's reads — fine! <r_bottom, w, r_u> IS legal and
        # preserves program order, so Figure 3 *is* sequentially
        # consistent (the forking notions diverge from SC elsewhere).
        hist = h(w(0, b"u", 0, 1), r(1, 0, BOTTOM, 2, 3), r(1, 0, b"u", 4, 5))
        assert check_sequential_consistency_exhaustive(hist)

    def test_cap(self):
        ops = [w(0, bytes([i]), 2 * i, 2 * i + 1) for i in range(15)]
        with pytest.raises(CheckerError):
            check_sequential_consistency_exhaustive(h(*ops), max_ops=10)


class TestLatticePosition:
    def test_linearizable_implies_sequential(self):
        for seed in range(60):
            hist = _random_history(random.Random(seed), 2, 6)
            if check_linearizability(hist).ok:
                assert check_sequential_consistency_exhaustive(hist).ok, f"seed {seed}"

    def test_sequential_implies_causal(self):
        for seed in range(60):
            hist = _random_history(random.Random(seed), 2, 6)
            if check_sequential_consistency_exhaustive(hist).ok:
                assert check_causal_consistency(hist).ok, f"seed {seed}"

    def test_causal_does_not_imply_sequential(self):
        # The classic: two clients disagree about the order of two
        # concurrent writes — causal, not sequentially consistent.
        hist = h(
            w(0, b"a", 0, 1),
            w(1, b"b", 0, 1),
            r(2, 0, b"a", 2, 3),
            r(2, 1, BOTTOM, 4, 5),
            r(3, 1, b"b", 2, 3),
            r(3, 0, BOTTOM, 4, 5),
        )
        assert check_causal_consistency(hist)
        assert not check_sequential_consistency_exhaustive(hist)
