"""Views of a history at a client (Definition 1) and related predicates.

A *view* of history ``sigma`` at client ``C_i`` is a sequential, legal
permutation of a subset of the (completion-extended) operations that
contains exactly ``C_i``'s complete operations in their original order.
Forking consistency notions quantify existentially over views, so this
module provides both a *validator* (given a candidate sequence, check it)
and an *enumerator* (generate all views of a small history) used by the
exhaustive fork / weak-fork checkers.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Iterable, Iterator, Sequence

from repro.common.errors import HistoryError
from repro.common.types import ClientId
from repro.history.events import Operation
from repro.history.history import History
from repro.history.register_spec import explain_illegal, is_legal_sequence


def view_violation(
    history: History, client: ClientId, sequence: Sequence[Operation]
) -> str | None:
    """Why ``sequence`` is not a view of ``history`` at ``client`` (or None).

    ``history`` should already be completion-extended
    (:meth:`History.completed_for_checking` or protocol-derived); the
    sequence must draw its operations from it.
    """
    known = {op.op_id for op in history}
    seen: set[int] = set()
    for op in sequence:
        if op.op_id not in known:
            return f"operation {op.op_id} does not occur in the history"
        if op.op_id in seen:
            return f"operation {op.op_id} occurs twice in the candidate view"
        seen.add(op.op_id)

    own_in_view = [op.op_id for op in sequence if op.client == client]
    own_ops = history.restrict_to_client(client)
    # Operations completed synthetically (responded_at == inf) were pending
    # in the original execution; Definition 1 lets each view's extension
    # sigma' choose whether to append their response, so they are optional.
    required = [op.op_id for op in own_ops if op.responded_at != float("inf")]
    allowed_order = [op.op_id for op in own_ops]
    required_ids = set(required)
    if [op_id for op_id in own_in_view if op_id in required_ids] != required:
        return (
            f"view restricted to C{client + 1} is {own_in_view} but must "
            f"contain all of {required} in order (Definition 1, condition 2)"
        )
    it = iter(allowed_order)
    if not all(any(op_id == candidate for candidate in it) for op_id in own_in_view):
        return (
            f"view lists C{client + 1}'s operations out of program order "
            f"(Definition 1, condition 2)"
        )

    problem = explain_illegal(list(sequence))
    if problem is not None:
        return f"view violates the register specification: {problem}"
    return None


def is_view_of(
    history: History, client: ClientId, sequence: Sequence[Operation]
) -> bool:
    """Is ``sequence`` a view of ``history`` at ``client`` (Definition 1)?"""
    return view_violation(history, client, sequence) is None


def preserves_real_time(sequence: Sequence[Operation], history: History) -> bool:
    """Does the sequence preserve ``<_sigma`` (Definition 2, condition 2)?
    One sweep: no op may sit after an op invoked after it responded (ops
    are judged as ``history`` records them; others are ignored)."""
    latest_invocation = float("-inf")
    for op in sequence:
        try:
            op = history.op(op.op_id)
        except HistoryError:
            continue
        if op.responded_at is not None and op.responded_at < latest_invocation:
            return False
        latest_invocation = max(latest_invocation, op.invoked_at)
    return True


def lastops(sequence: Sequence[Operation]) -> set[int]:
    """``lastops(pi)``: the last operation of every client in the sequence."""
    last: dict[ClientId, int] = {}
    for op in sequence:
        last[op.client] = op.op_id
    return set(last.values())


def preserves_weak_real_time(
    sequence: Sequence[Operation], history: History
) -> bool:
    """Weak real-time order (Section 4): real-time order must hold after
    removing each client's last operation from the sequence."""
    exempt = lastops(sequence)
    trimmed = [op for op in sequence if op.op_id not in exempt]
    return preserves_real_time(trimmed, history)


def enumerate_views(
    history: History,
    client: ClientId,
    extra_filter=None,
) -> Iterator[tuple[Operation, ...]]:
    """All views of a (small, completion-extended) history at a client.

    Candidates range over every subset of other clients' operations
    combined with all of ``client``'s operations, in every legal order.
    ``extra_filter`` (sequence -> bool) prunes orders early, e.g. real-time
    preservation for fork-linearizability.
    """
    own = [op for op in history.restrict_to_client(client)]
    others = [op for op in history if op.client != client]
    for r in range(len(others) + 1):
        for chosen in combinations(others, r):
            pool = own + list(chosen)
            for perm in permutations(pool):
                own_order = [op.op_id for op in perm if op.client == client]
                if own_order != [op.op_id for op in own]:
                    continue
                if not is_legal_sequence(perm):
                    continue
                if extra_filter is not None and not extra_filter(perm):
                    continue
                yield perm
