"""Reads-from and potential causality (the Definition 3 machinery)."""

from __future__ import annotations

from repro.common.types import BOTTOM
from repro.history.causality import build_causal_structure

from histbuild import h, r, w


class TestReadsFrom:
    def test_read_maps_to_unique_writer(self):
        a = w(0, b"a", 0, 1)
        b = r(1, 0, b"a", 2, 3)
        cs = build_causal_structure(h(a, b))
        assert cs.reads_from == {b.op_id: a.op_id}

    def test_bottom_read_has_no_source(self):
        b = r(1, 0, BOTTOM, 0, 1)
        cs = build_causal_structure(h(b))
        assert cs.reads_from == {}
        assert not cs.fabricated_reads

    def test_fabricated_read_flagged(self):
        b = r(1, 0, b"never-written", 0, 1)
        cs = build_causal_structure(h(b))
        assert cs.fabricated_reads == [b.op_id]


class TestCausalOrder:
    def test_program_order(self):
        a = w(0, b"a", 0, 1)
        b = r(0, 1, BOTTOM, 2, 3)
        cs = build_causal_structure(h(a, b))
        assert a.op_id in cs.ancestors(b.op_id)
        assert b.op_id not in cs.ancestors(a.op_id)

    def test_reads_from_edge(self):
        a = w(0, b"a", 0, 1)
        b = r(1, 0, b"a", 2, 3)
        cs = build_causal_structure(h(a, b))
        assert a.op_id in cs.ancestors(b.op_id)

    def test_transitivity_across_clients(self):
        # C1 writes a; C2 reads a then writes b; C3 reads b.
        # The write of a causally precedes C3's read via C2.
        a = w(0, b"a", 0, 1)
        b = r(1, 0, b"a", 2, 3)
        c = w(1, b"b", 4, 5)
        d = r(2, 1, b"b", 6, 7)
        cs = build_causal_structure(h(a, b, c, d))
        assert a.op_id in cs.ancestors(d.op_id)

    def test_not_reflexive(self):
        a = w(0, b"a", 0, 1)
        cs = build_causal_structure(h(a))
        assert a.op_id not in cs.ancestors(a.op_id)

    def test_concurrent_unrelated_ops(self):
        a = w(0, b"a", 0, 1)
        b = w(1, b"b", 0, 1)
        cs = build_causal_structure(h(a, b))
        assert a.op_id not in cs.ancestors(b.op_id)
        assert b.op_id not in cs.ancestors(a.op_id)

    def test_real_time_alone_is_not_causality(self):
        # Potential causality ignores real-time order between different
        # clients with no data flow.
        a = w(0, b"a", 0, 1)
        b = w(1, b"b", 5, 6)
        cs = build_causal_structure(h(a, b))
        assert a.op_id not in cs.ancestors(b.op_id)

    def test_ancestors_and_descendants(self):
        a = w(0, b"a", 0, 1)
        b = r(1, 0, b"a", 2, 3)
        c = w(1, b"b", 4, 5)
        cs = build_causal_structure(h(a, b, c))
        assert cs.ancestors(c.op_id) == {a.op_id, b.op_id}
        # a's descendants: every op with a among its ancestors.
        assert {o.op_id for o in (a, b, c) if a.op_id in cs.ancestors(o.op_id)} == {
            b.op_id,
            c.op_id,
        }
        assert cs.ancestors(b.op_id, c.op_id) == {a.op_id, b.op_id}

    def test_acyclic_in_honest_history(self):
        ops = [w(0, b"a", 0, 1), r(1, 0, b"a", 2, 3), w(1, b"b", 4, 5)]
        cs = build_causal_structure(h(*ops))
        assert not cs.has_cycle()

    def test_cycle_detected_in_pathological_history(self):
        # A server colluding with value prediction: C1 reads C2's value
        # before C2 writes it, and vice versa — only possible if causality
        # is already broken, and has_cycle must say so.
        r1 = r(0, 1, b"y", 0, 1)
        w1 = w(0, b"x", 2, 3)
        r2 = r(1, 0, b"x", 4, 5)
        w2 = w(1, b"y", 6, 7)
        cs = build_causal_structure(h(r1, w1, r2, w2))
        # Edges: w1 -> r2 (reads-from), r2 -> w2 (program), w2 -> r1
        # (reads-from), r1 -> w1 (program): a cycle.
        assert cs.has_cycle()

    def test_write_frontier_counts_each_clients_first_writes(self):
        # C1 writes a then a2; C2 reads a2 (so both of C1's writes precede
        # it), then writes b.
        a = w(0, b"a", 0, 1)
        a2 = w(0, b"a2", 2, 3)
        b = r(1, 0, b"a2", 4, 5)
        c = w(1, b"b", 6, 7)
        cs = build_causal_structure(h(a, a2, b, c))
        assert cs.frontier[a.op_id] == (0, 0)
        assert cs.frontier[a2.op_id] == (1, 0)
        assert cs.frontier[b.op_id] == (2, 0)
        assert cs.frontier[c.op_id] == (2, 0)

    def test_ops_on_or_after_a_cycle_have_no_frontier(self):
        r1 = r(0, 1, b"y", 0, 1)
        w1 = w(0, b"x", 2, 3)
        r2 = r(1, 0, b"x", 4, 5)
        w2 = w(1, b"y", 6, 7)
        # C3 reads y off the cycle, then writes: both come after it.
        after = r(2, 1, b"y", 8, 9)
        then = w(2, b"z", 10, 11)
        cs = build_causal_structure(h(r1, w1, r2, w2, after, then))
        assert cs.frontier == {} and cs.has_cycle()
        # A write causally unrelated to the cycle keeps its frontier.
        apart = w(2, b"z", 0, 1)
        cs = build_causal_structure(h(r1, w1, r2, w2, apart))
        assert cs.frontier == {apart.op_id: (0, 0, 0)} and cs.has_cycle()
