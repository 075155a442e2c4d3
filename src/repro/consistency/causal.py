"""Causal consistency checking (Definition 3) for SWMR register histories.

:func:`check_causal_consistency` decides Definition 3 for the paper's
functionality using the writes-into characterisation: a SWMR history is
causally consistent iff

1. every read returns a value some write produced (or BOTTOM),
2. potential causality ``-->_sigma`` is acyclic, and
3. no read returns a *causally overwritten* value: if ``r`` reads-from
   ``w_k`` then no later write ``w_l`` (``l > k``; same register, so
   causally after ``w_k``) causally precedes ``r``.  A BOTTOM read must
   have no write of its register among its causal ancestors.

Necessity of each rule is immediate (condition 3 of Definition 3 forces a
causally ordered ``w_k .. w_l .. r`` subsequence into the view, making the
read illegal).  Sufficiency holds for SWMR registers because writes to a
register are causally totally ordered by writer program order, so each
client's view can be built by topologically sorting its causal past with
reads pinned directly after the write they return; the exhaustive
Definition-3 search in :func:`check_causal_exhaustive` cross-validates this
on small histories (see tests).
"""

from __future__ import annotations

from itertools import permutations

from repro.common.types import BOTTOM
from repro.history.causality import CausalStructure, build_causal_structure
from repro.history.events import Operation
from repro.history.history import History
from repro.history.register_spec import is_legal_sequence
from repro.consistency.report import CheckResult, ok, prepare_exhaustive, violated

_CONDITION = "causal-consistency"


def check_causal_consistency(history: History) -> CheckResult:
    """Polynomial causal-consistency check (SWMR, unique values)."""
    prepared = history.completed_for_checking()
    prepared.assert_unique_write_values()
    structure = build_causal_structure(prepared)

    if structure.fabricated_reads:
        op = prepared.op(structure.fabricated_reads[0])
        return violated(
            _CONDITION,
            f"{op.describe()} returned a value that was never written",
            witness=op,
        )
    if structure.has_cycle():
        return violated(_CONDITION, "potential causality contains a cycle")

    # A read of w_k is overwritten iff its frontier holds more than k of
    # the register's writes (w_k's own frontier holds k - 1 of them).
    for register in prepared.registers():
        writes = prepared.writes_to(register)
        if not writes:
            continue  # nothing to overwrite
        for read in prepared.reads_of(register):
            source = structure.reads_from.get(read.op_id)
            k = 0 if source is None else structure.frontier[source][register] + 1
            if structure.frontier[read.op_id][register] > k:
                later = writes[k]
                return violated(
                    _CONDITION,
                    f"{read.describe()} is causally overwritten: "
                    f"{later.describe()} causally precedes the read",
                    witness=(read, later),
                )
    return ok(_CONDITION)


def _required_view_ops(
    prepared: History, structure: CausalStructure, client: int
) -> list[Operation]:
    """Client ops plus the updates causally preceding any of them.

    Definition 3 condition 2 requires all updates causally preceding any
    view operation; legality independently requires each read's source
    write.  Both are causal ancestors, so the write frontier of the
    client's last op covers them (program order makes it the largest).
    """
    own = prepared.restrict_to_client(client)
    required: set[int] = {op.op_id for op in own}
    for writer, count in enumerate(structure.frontier[own[-1].op_id]):
        required.update(w.op_id for w in prepared.writes_to(writer)[:count])
    return [op for op in prepared if op.op_id in required]


def check_causal_exhaustive(history: History, max_ops: int = 8) -> CheckResult:
    """Direct Definition-3 search (small histories): for every client, try
    to build a view over its required operation set that extends causal
    order and satisfies the register spec."""
    prepared = prepare_exhaustive(history, max_ops, _CONDITION)
    structure = build_causal_structure(prepared)
    if structure.fabricated_reads:
        op = prepared.op(structure.fabricated_reads[0])
        return violated(_CONDITION, f"{op.describe()} returned an unwritten value")
    if structure.has_cycle():
        return violated(_CONDITION, "potential causality contains a cycle")

    witnesses: dict[int, list[Operation]] = {}
    for client in prepared.clients():
        candidates = _required_view_ops(prepared, structure, client)
        found = None
        for perm in permutations(candidates):
            if not _extends_causal_order(perm, structure):
                continue
            if not is_legal_sequence(perm):
                continue
            found = list(perm)
            break
        if found is None:
            return violated(
                _CONDITION,
                f"no causal view exists for client C{client + 1} (exhaustive search)",
            )
        witnesses[client] = found
    return ok(_CONDITION, witness=witnesses)


def _extends_causal_order(sequence, structure: CausalStructure) -> bool:
    position = {op.op_id: i for i, op in enumerate(sequence)}
    for op in sequence:
        for ancestor in structure.ancestors(op.op_id):
            if ancestor in position and position[ancestor] > position[op.op_id]:
                return False
    return True
