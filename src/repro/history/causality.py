"""Potential causality over histories (Definition 3 machinery).

The paper adopts Lamport's potential causality: ``o -->_sigma o'`` iff

1. both are by the same client and ``o <_sigma o'`` (program order), or
2. ``o'`` reads-from ``o`` (the read returns the value ``o`` wrote), or
3. transitivity through some ``o''``.

Written values are unique (Section 2), so the reads-from relation is a
function from reads to writes: a read returning value ``v`` reads-from
*the* write of ``v``, and a read returning ``BOTTOM`` reads-from no write.
A read returning a value *nobody wrote* witnesses a fabricated response;
the causal structure flags it so checkers can fail the history outright
(an unforgeable-signature server can never make an honest client return
such a value, but baseline protocols without signatures can).

Registers are single-writer, so the writes of client ``c`` that causally
precede an operation are always ``c``'s *first* ``k``: the operation's
*write frontier* keeps that ``k`` per client, computed in one topological
pass, and checkers compare counts instead of walking ancestors.  An
operation the pass never reaches lies on or after a causal cycle.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.common.types import BOTTOM
from repro.history.history import History


@dataclass
class CausalStructure:
    """Reads-from, direct causal edges and write frontiers for one history."""

    history: History
    #: read op_id -> write op_id (absent key: read returned BOTTOM)
    reads_from: dict[int, int] = field(default_factory=dict)
    #: reads whose returned value was never written (fabricated responses)
    fabricated_reads: list[int] = field(default_factory=list)
    #: direct causal edges op_id -> set of successor op_ids
    successors: dict[int, set[int]] = field(default_factory=lambda: defaultdict(set))
    #: inverse edges, for ancestor queries
    predecessors: dict[int, set[int]] = field(default_factory=lambda: defaultdict(set))
    #: op_id -> its write frontier: entry ``c`` counts client ``c``'s
    #: writes that causally precede the op (absent: on or after a cycle)
    frontier: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def ancestors(self, *op_ids: int) -> set[int]:
        """All op_ids that causally precede any of ``op_ids``: one backward
        walk (an op on a cycle is its own ancestor)."""
        seen: set[int] = set()
        stack = [pred for op_id in op_ids for pred in self.predecessors.get(op_id, ())]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.predecessors.get(current, ()))
        return seen

    def has_cycle(self) -> bool:
        """A causal cycle means the 'order' is not an order at all.

        Impossible for honest values in real time, but a Byzantine server
        colluding with a broken signature scheme could fabricate one; the
        causal checker treats it as an immediate violation.
        """
        return len(self.frontier) != len(self.history)


def build_causal_structure(history: History) -> CausalStructure:
    """Compute reads-from, direct causal edges and every op's write
    frontier for a (complete) history."""
    structure = CausalStructure(history=history)

    def add_edge(src_id: int, dst_id: int) -> None:
        structure.successors[src_id].add(dst_id)
        structure.predecessors[dst_id].add(src_id)

    # Rule 1: program order per client; the first write of each value.
    writer: dict[tuple, int] = {}
    for client in history.clients():
        ops = history.restrict_to_client(client)
        for earlier, later in zip(ops, ops[1:]):
            add_edge(earlier.op_id, later.op_id)
        for op in ops:
            if op.is_write:
                writer.setdefault((op.register, op.value), op.op_id)

    # Rule 2: reads-from (unique values make the writer unambiguous).
    for op in history:
        if not op.is_read or op.value is None or op.value is BOTTOM:
            continue
        source = writer.get((op.register, op.value))
        if source is None:
            structure.fabricated_reads.append(op.op_id)
            continue
        structure.reads_from[op.op_id] = source
        add_edge(source, op.op_id)

    _compute_frontiers(structure)
    return structure


def _compute_frontiers(structure: CausalStructure) -> None:
    """One topological (Kahn) pass: an op's frontier is the entrywise max
    of what its direct predecessors reach, a write reaching itself."""
    history = structure.history
    zero = (0,) * (max((op.client for op in history), default=-1) + 1)
    waiting = {op.op_id: len(structure.predecessors.get(op.op_id, ())) for op in history}
    ready = [op_id for op_id, count in waiting.items() if count == 0]
    reached: dict[int, tuple[int, ...]] = {}
    while ready:
        op_id = ready.pop()
        counts = structure.frontier[op_id] = reached.pop(op_id, zero)
        op = history.op(op_id)
        if op.is_write:
            c = op.client
            counts = counts[:c] + (counts[c] + 1,) + counts[c + 1 :]
        for succ in structure.successors.get(op_id, ()):
            before = reached.get(succ)
            reached[succ] = counts if before is None else tuple(map(max, before, counts))
            waiting[succ] -= 1
            if waiting[succ] == 0:
                ready.append(succ)
