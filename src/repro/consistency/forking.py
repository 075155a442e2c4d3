"""Section 4's forking consistency notions, declared once.

Every forking notion has the same shape.  A history satisfies it iff each
client ``C_i`` has a sequence ``pi_i`` such that

1. ``pi_i`` is a view of the history at ``C_i`` (Definition 1);
2. ``pi_i`` preserves an order of the history (``view_order``): the full
   *real-time* order; the *weak real-time* order, which exempts each
   client's last operation in the view; or *program* order only, which
   view-hood already enforces;
3. optionally (``causal``) every update causally preceding an operation
   of ``pi_i`` appears in ``pi_i``, before it;
4. the views obey a ``join`` rule bounding how views that diverged may
   share operations again.  *no-join*: for every ``o`` in ``pi_i ∩ pi_j``
   the prefixes coincide, ``pi_i|o = pi_j|o`` — once forked, never joined.
   *at-most-one-join*: that holds for every ``o`` that some later
   operation ``o'`` of the same client in ``pi_i ∩ pi_j`` follows — only
   the last common operation of each client may sit on divergent prefixes.

A notion is one :class:`ForkingNotion` row; the numbering is Definition
6's, whose weakened conditions 2 and 4 are exactly what admits wait-free
protocols (Sections 4-5) and whose condition 3 restores the causality
fork-*-linearizability loses.  Fork-linearizability and fork-sequential
consistency cannot be implemented wait-free (Figure 3 and the companion
result [4]), which is why neither can carry a fail-aware service.
Figure 3's history is weakly fork-linearizable but neither fork- nor
fork-*-linearizable (C2's view must order the hidden read before the
write), while a history whose reader sees a write through a data
dependency yet older state of the causally preceding register is
fork-*-linearizable but not weakly so: the two are incomparable (E12).

:func:`validate_views` checks concrete, e.g. protocol-derived, views
against a row; :func:`search_views` decides a row for a small history by
joint exhaustive search over all views of all clients.  Each condition is
one pass, so whole runs validate: real-time order is a sweep, condition 3
sweeps a view against the write frontiers, and both join rules look only
past the two views' longest common prefix.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Sequence

from repro.common.types import ClientId
from repro.history.causality import CausalStructure, build_causal_structure
from repro.history.events import Operation
from repro.history.history import History
from repro.consistency.report import CheckResult, ok, prepare_exhaustive, violated
from repro.consistency.views import (
    enumerate_views,
    preserves_real_time,
    preserves_weak_real_time,
    view_violation,
)


@dataclass(frozen=True)
class ForkingNotion:
    """One forking notion: the order its views preserve (``"real-time"``,
    ``"weak real-time"`` or ``"program"``), whether they are causally
    closed, and the join rule between them (``"no-join"`` or
    ``"at-most-one-join"``)."""

    condition: str
    view_order: str
    causal: bool
    join: str


#: Mazieres & Shasha.
FORK_LINEARIZABILITY = ForkingNotion(
    "fork-linearizability", "real-time", causal=False, join="no-join"
)
#: Li & Mazieres (NSDI 2007) as the paper adapts it: the full real-time
#: order binds, "oddly", even every other client's last operation.
FORK_STAR_LINEARIZABILITY = ForkingNotion(
    "fork-star-linearizability", "real-time", causal=False, join="at-most-one-join"
)
#: Definition 6 — the paper's new notion.
WEAK_FORK_LINEARIZABILITY = ForkingNotion(
    "weak-fork-linearizability", "weak real-time", causal=True, join="at-most-one-join"
)
#: Oprea & Reiter (DISC 2006): the forking analogue of sequential consistency.
FORK_SEQUENTIAL_CONSISTENCY = ForkingNotion(
    "fork-sequential-consistency", "program", causal=False, join="no-join"
)

_PRESERVES = {
    "real-time": preserves_real_time,
    "weak real-time": preserves_weak_real_time,
    "program": lambda view, history: True,
}

View = Sequence[Operation]
Views = dict[ClientId, View]


# ---------------------------------------------------------------------- #
# The conditions
# ---------------------------------------------------------------------- #


def causality_violation(
    history: History, view: View, structure: CausalStructure | None = None
) -> str | None:
    """Condition 3 on one view of ``history`` (or None if fine); an op on
    or after a causal cycle fails it in every view.  ``structure`` is
    ``history``'s causal structure, when the caller already built it."""
    if structure is None:
        structure = build_causal_structure(history)
    writes = {client: history.writes_to(client) for client in history.clients()}
    seen: set[int] = set()
    # closed[c]: client c's first closed[c] writes all precede the sweep
    closed: dict[ClientId, int] = defaultdict(int)
    for op in view:
        counts = structure.frontier.get(op.op_id)
        if counts is None:
            return (
                f"{op.describe()} lies on or after a causal cycle, "
                f"so an update causally precedes itself"
            )
        for client, needed in enumerate(counts):
            if needed <= closed[client]:
                continue
            while closed[client] < needed and writes[client][closed[client]].op_id in seen:
                closed[client] += 1
            if closed[client] < needed:
                update = writes[client][closed[client]]
                late = any(other.op_id == update.op_id for other in view)
                where = "follows it in" if late else "is missing from"
                return (
                    f"update {update.describe()} causally precedes "
                    f"{op.describe()} but {where} the view"
                )
        seen.add(op.op_id)
    return None


def _past_agreement(pi_i: View, pi_j: View) -> View:
    """``pi_i`` after the longest common prefix of the two views: ``o``'s
    prefixes ``pi_i|o`` and ``pi_j|o`` agree iff ``o`` lies inside it."""
    agreed = 0
    for a, b in zip(pi_i, pi_j):
        if a.op_id != b.op_id:
            break
        agreed += 1
    return pi_i[agreed:]


def prefixes_agree(pi_i: View, pi_j: View, op_id: int) -> bool:
    """``pi_i|o == pi_j|o`` compared as op-id sequences (False unless
    ``o`` occurs in both)."""
    past = {op.op_id for op in _past_agreement(pi_i, pi_j)}
    return op_id not in past and any(op.op_id == op_id for op in pi_i)


def no_join_violation(pi_i: View, pi_j: View) -> int | None:
    """First common op (id) whose prefixes differ, or None."""
    ids_j = {op.op_id for op in pi_j}
    for op in _past_agreement(pi_i, pi_j):
        if op.op_id in ids_j:
            return op.op_id
    return None


def at_most_one_join_violation(pi_i: View, pi_j: View) -> str | None:
    """At-most-one-join from ``pi_i``'s side (or None); views that list a
    third client's operations in different orders need both sides."""
    ids_j = {op.op_id for op in pi_j}
    diverged: dict[ClientId, list[Operation]] = defaultdict(list)
    for op in _past_agreement(pi_i, pi_j):
        if op.op_id in ids_j:
            diverged[op.client].append(op)
    for client, ops in diverged.items():
        # Only a client's last common op may sit on divergent prefixes.
        if len(ops) > 1:
            return (
                f"views share operations {ops[-1].op_id} and {ops[0].op_id} of "
                f"C{client + 1} but disagree on the prefix up to {ops[0].op_id}"
            )
    return None


def _order_or_causality_problem(
    notion: ForkingNotion, prepared: History, structure: CausalStructure | None, view: View
) -> str | None:
    """Conditions 2 and 3 on a sequence already known to be a view."""
    if not _PRESERVES[notion.view_order](view, prepared):
        return f"does not preserve {notion.view_order} order (condition 2)"
    if notion.causal:
        problem = causality_violation(prepared, view, structure)
        if problem is not None:
            return f"is not causally closed: {problem} (condition 3)"
    return None


def _join_problem(notion: ForkingNotion, pi_i: View, pi_j: View) -> str | None:
    """Condition 4 between two views."""
    if notion.join == "no-join":
        bad = no_join_violation(pi_i, pi_j)
        return None if bad is None else f"prefixes up to operation {bad} differ"
    return at_most_one_join_violation(pi_i, pi_j) or at_most_one_join_violation(pi_j, pi_i)


# ---------------------------------------------------------------------- #
# The views engine: one validator, one search
# ---------------------------------------------------------------------- #


def validate_views(notion: ForkingNotion, history: History, views: Views) -> CheckResult:
    """Check concrete candidate views against ``notion``.

    ``history`` may contain incomplete operations; it is completion-extended
    with the standard rules first, and views must draw their operations
    from the extended history (protocol-derived views do, see
    :func:`repro.ustor.viewhistory.build_client_views`).
    """
    prepared = history.completed_for_checking()
    structure = build_causal_structure(prepared) if notion.causal else None
    for client, view in views.items():
        problem = view_violation(prepared, client, view)
        if problem is not None:
            return violated(notion.condition, f"C{client + 1}: {problem} (condition 1)")
        problem = _order_or_causality_problem(notion, prepared, structure, view)
        if problem is not None:
            return violated(notion.condition, f"view of C{client + 1} {problem}")
    for i, j in combinations(sorted(views), 2):
        problem = _join_problem(notion, views[i], views[j])
        if problem is not None:
            return violated(
                notion.condition,
                f"{notion.join} violated between C{i + 1} and C{j + 1}: "
                f"{problem} (condition 4)",
            )
    return ok(notion.condition, witness=views)


def search_views(notion: ForkingNotion, history: History, max_ops: int = 7) -> CheckResult:
    """Decide ``notion`` by joint existential search over per-client views
    (exponential; small histories).  The witness is the family of views."""
    prepared = prepare_exhaustive(history, max_ops, notion.condition)
    structure = build_causal_structure(prepared) if notion.causal else None
    clients = prepared.clients()

    def admissible(view: View) -> bool:
        return _order_or_causality_problem(notion, prepared, structure, view) is None

    candidates: dict[ClientId, list[tuple[Operation, ...]]] = {}
    for client in clients:
        candidates[client] = list(enumerate_views(prepared, client, admissible))
        if not candidates[client]:
            return violated(
                notion.condition, f"no view of C{client + 1} satisfies conditions 1-3"
            )

    assignment: dict[ClientId, tuple[Operation, ...]] = {}

    def assign(index: int) -> bool:
        if index == len(clients):
            return True
        client = clients[index]
        for view in candidates[client]:
            if all(
                _join_problem(notion, view, assignment[earlier]) is None
                for earlier in clients[:index]
            ):
                assignment[client] = view
                if assign(index + 1):
                    return True
                del assignment[client]
        return False

    if assign(0):
        return ok(notion.condition, witness=dict(assignment))
    return violated(
        notion.condition, "no compatible family of views exists (exhaustive search)"
    )


# ---------------------------------------------------------------------- #
# The four notions by name: ``validate_*(history, views)`` and
# ``check_*_exhaustive(history, max_ops=7)`` are the engine at one row.
# ---------------------------------------------------------------------- #

validate_fork_linearizability = partial(validate_views, FORK_LINEARIZABILITY)
validate_fork_star_linearizability = partial(validate_views, FORK_STAR_LINEARIZABILITY)
validate_weak_fork_linearizability = partial(validate_views, WEAK_FORK_LINEARIZABILITY)
validate_fork_sequential_consistency = partial(validate_views, FORK_SEQUENTIAL_CONSISTENCY)

check_fork_linearizability_exhaustive = partial(search_views, FORK_LINEARIZABILITY)
check_fork_star_linearizability_exhaustive = partial(search_views, FORK_STAR_LINEARIZABILITY)
check_weak_fork_linearizability_exhaustive = partial(search_views, WEAK_FORK_LINEARIZABILITY)
check_fork_sequential_exhaustive = partial(search_views, FORK_SEQUENTIAL_CONSISTENCY)
