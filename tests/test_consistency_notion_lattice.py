"""The lattice of forking notions — Section 4's comparison claims.

The paper's key structural claim: weak fork-linearizability is *neither
stronger nor weaker* than fork-*-linearizability.  Two witness histories
prove it, and both directions are checked here with the exhaustive
checkers, along with the implication structure among all five notions.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CheckerError
from repro.common.types import BOTTOM
from repro.consistency import (
    IMPLIES,
    NOTIONS,
    check_causal_consistency,
    check_fork_linearizability_exhaustive,
    check_fork_sequential_exhaustive,
    check_fork_star_linearizability_exhaustive,
    check_linearizability,
    check_weak_fork_linearizability_exhaustive,
    validate_fork_sequential_consistency,
    validate_fork_star_linearizability,
)

from histbuild import h, r, w
from test_consistency_linearizability import _random_history


def figure3_history():
    return h(
        w(0, b"u", 0, 1),
        r(1, 0, BOTTOM, 2, 3),
        r(1, 0, b"u", 4, 5),
    )


def causality_violating_history():
    """Fork-*-linearizable but not weakly fork-linearizable.

    C1 writes a; C2 reads it and writes b (so a causally precedes b);
    C3 reads b but then reads X1 as BOTTOM.  C3's read of b drags the
    causal past of b into any weak-fork view (condition 3), making the
    BOTTOM read illegal — but fork-* has no causality condition, and C3's
    view may simply omit w(X1,a): C3's ops are concurrent with it in real
    time, so full real-time order is preserved.
    """
    write_a = w(0, b"a", 0, 1)
    read_a = r(1, 0, b"a", 2, 3)
    write_b = w(1, b"b", 4, 5)
    # C3's ops overlap w(X1,a) (invoked at 0.5), so real time allows the
    # view to exclude/reorder it.
    read_b = r(2, 1, b"b", 6, 7)
    read_bottom = r(2, 0, BOTTOM, 8, 9)
    write_a = w(0, b"a", 0.5, 100.0)  # concurrent with everything by C3
    return h(write_a, read_a, write_b, read_b, read_bottom)


class TestNeitherStrongerNorWeaker:
    def test_figure3_weak_fork_but_not_fork_star(self):
        hist = figure3_history()
        assert check_weak_fork_linearizability_exhaustive(hist)
        assert not check_fork_star_linearizability_exhaustive(hist)

    def test_causality_violation_fork_star_but_not_weak_fork(self):
        hist = causality_violating_history()
        assert check_fork_star_linearizability_exhaustive(hist)
        assert not check_weak_fork_linearizability_exhaustive(hist)
        # And indeed the separation is exactly causality:
        assert not check_causal_consistency(hist)


class TestFigure3AcrossAllNotions:
    def test_full_classification(self):
        hist = figure3_history()
        assert not check_linearizability(hist)
        assert not check_fork_linearizability_exhaustive(hist)
        assert not check_fork_star_linearizability_exhaustive(hist)
        assert check_weak_fork_linearizability_exhaustive(hist)
        assert check_fork_sequential_exhaustive(hist)
        assert check_causal_consistency(hist)

    def test_fork_sequential_witness_views(self):
        # Fork-sequential consistency drops real-time order entirely, so
        # C1's view may also order the hidden read first — restoring the
        # no-join property.
        hist = figure3_history().completed_for_checking()
        write, read1, read2 = hist[0], hist[1], hist[2]
        views = {0: [read1, write], 1: [read1, write, read2]}
        assert validate_fork_sequential_consistency(hist, views)


class TestImplications:
    """fork-linearizability implies every other forking notion."""

    def test_fork_implies_fork_star_on_samples(self):
        for seed in range(40):
            hist = _random_history(random.Random(seed), 2, 5)
            if check_fork_linearizability_exhaustive(hist).ok:
                assert check_fork_star_linearizability_exhaustive(hist).ok, f"seed {seed}"

    def test_fork_implies_fork_sequential_on_samples(self):
        for seed in range(40):
            hist = _random_history(random.Random(seed), 2, 5)
            if check_fork_linearizability_exhaustive(hist).ok:
                assert check_fork_sequential_exhaustive(hist).ok, f"seed {seed}"

    def test_linearizable_implies_fork_star_on_samples(self):
        for seed in range(40):
            hist = _random_history(random.Random(seed), 2, 5)
            if check_linearizability(hist).ok:
                assert check_fork_star_linearizability_exhaustive(hist).ok, f"seed {seed}"


class TestValidators:
    def test_fork_star_validator_accepts_sequential_history(self):
        hist = h(w(0, b"a", 0, 1), r(1, 0, b"a", 2, 3)).completed_for_checking()
        write, read = hist[0], hist[1]
        assert validate_fork_star_linearizability(hist, {0: [write], 1: [write, read]})

    def test_fork_star_validator_rejects_real_time_violation(self):
        hist = figure3_history().completed_for_checking()
        write, read1, read2 = hist[0], hist[1], hist[2]
        result = validate_fork_star_linearizability(
            hist, {1: [read1, write, read2]}
        )
        assert not result and "real-time" in result.violation

    def test_fork_sequential_validator_rejects_join(self):
        a1 = w(0, b"a1", 0, 1)
        a2 = w(0, b"a2", 2, 3)
        b = r(1, 0, b"a2", 4, 5)
        hist = h(a1, a2, b).completed_for_checking()
        ops = {op.value: op for op in hist if op.is_write}
        read = next(op for op in hist if op.is_read)
        views = {
            0: [ops[b"a1"], ops[b"a2"]],
            1: [ops[b"a2"], read],  # shares a2 but on a divergent prefix
        }
        result = validate_fork_sequential_consistency(hist, views)
        assert not result and "no-join" in result.violation


class TestTheTable:
    """Properties of every row of ``NOTIONS`` / every edge of ``IMPLIES``."""

    @pytest.mark.parametrize("notion", NOTIONS)
    def test_oracle_refuses_compacted_history(self, notion):
        # A correct read whose witness write was checkpointed away: no
        # search can find the write, so a verdict would be a false VIOLATED.
        hist = h(r(1, 0, b"old", 10, 11), base={0: (1, 5.0)})
        with pytest.raises(CheckerError, match="checkpoint base"):
            NOTIONS[notion](hist)

    @pytest.mark.parametrize("stronger, weaker", IMPLIES)
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_stronger_notion_implies_weaker(self, stronger, weaker, seed):
        rng = random.Random(seed)
        hist = _random_history(rng, rng.choice((2, 3)), rng.randint(2, 6))
        if NOTIONS[stronger](hist).ok:
            assert NOTIONS[weaker](hist).ok, hist.describe()

    def test_edges_name_declared_notions(self):
        assert {name for edge in IMPLIES for name in edge} == set(NOTIONS)
