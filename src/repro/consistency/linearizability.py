"""Linearizability checking (Definition 2) for SWMR register histories.

Two checkers are provided:

* :func:`check_linearizability` — a fast, provably sound-and-complete
  polynomial decision procedure specialised to the paper's functionality
  (SWMR registers, unique written values).  Linearizability is *local*
  (Herlihy & Wing), so the history is checked per register; within one
  register the single sequential writer totally orders the writes, and the
  classical atomic-register conditions become three simple rules:

  1. no read completes before the write it returns is invoked
     ("value from the future");
  2. no read is invoked after a *later* write (than the one it returns)
     has completed ("stale read");
  3. two reads ordered in real time never observe writes in the opposite
     order ("new/old inversion").

  These are exactly the conditions under which the canonical placement —
  writes in program order, each read right after its write, same-value
  reads in invocation order — extends real-time order, and each is
  individually necessary.  See tests/test_consistency_linearizability.py
  for the brute-force cross-validation.

* :func:`check_linearizability_exhaustive` — a direct Wing&Gong-style
  search usable on any small history; the oracle against which the fast
  checker is validated.  The same search with real-time order relaxed to
  program order is :func:`check_sequential_consistency_exhaustive`.
"""

from __future__ import annotations

from typing import Callable

from repro.common.types import BOTTOM, RegisterId
from repro.history.events import Operation
from repro.history.history import History
from repro.consistency.report import CheckResult, ok, prepare_exhaustive, violated

_CONDITION = "linearizability"


def _map_reads_to_write_index(
    history: History, register: RegisterId
) -> tuple[list[Operation], dict[int, int], str | None]:
    """For one register: (writes in order, read op_id -> write index, error).

    Index 0 denotes the initial value BOTTOM; index k >= 1 denotes the k-th
    write.  A read whose value no write produced yields an error string.
    Indexes are *absolute*: a compacted history whose base records
    ``c`` pruned writes numbers its retained writes from ``c + 1``.
    """
    base_count, _ = history.base_of(register)
    writes = history.writes_to(register)
    index_of_value = {
        w.value: k for k, w in enumerate(writes, start=base_count + 1)
    }
    mapping: dict[int, int] = {}
    for read in history.reads_of(register):
        if not read.is_read:
            continue
        if read.value is BOTTOM:
            mapping[read.op_id] = 0
        elif read.value is None:
            return writes, mapping, f"read {read.op_id} has no recorded return value"
        elif read.value not in index_of_value:
            return (
                writes,
                mapping,
                f"{read.describe()} returned a value that was never written",
            )
        else:
            mapping[read.op_id] = index_of_value[read.value]
    return writes, mapping, None


def _check_register(history: History, register: RegisterId) -> CheckResult:
    writes, read_index, error = _map_reads_to_write_index(history, register)
    if error is not None:
        return violated(_CONDITION, error)

    base_count, base_time = history.base_of(register)
    reads = history.reads_of(register)

    # Rule 1 and rule 2: each read against the write order.
    for read in reads:
        k = read_index[read.op_id]
        if k >= 1:
            write = writes[k - 1 - base_count]
            if read.precedes(write):
                return violated(
                    _CONDITION,
                    f"{read.describe()} completed before {write.describe()} was "
                    f"invoked (value from the future)",
                    witness=(read, write),
                )
        elif base_count and read.invoked_at > base_time:
            # BOTTOM behind a checkpoint base: some pruned write had
            # completed before this read was even invoked.  Reads that
            # overlapped the pruned era may legitimately see BOTTOM.
            return violated(
                _CONDITION,
                f"{read.describe()} is stale: {base_count} checkpointed "
                f"write(s) of register {register} completed before the "
                f"read was invoked, yet it returned BOTTOM",
                witness=read,
            )
        for later in writes[max(k - base_count, 0) :]:
            if later.precedes(read):
                return violated(
                    _CONDITION,
                    f"{read.describe()} is stale: {later.describe()} completed "
                    f"before the read was invoked",
                    witness=(read, later),
                )

    # Rule 3: new/old inversion between reads.
    ordered_reads = sorted(reads, key=lambda r: (r.invoked_at, r.op_id))
    for i, first in enumerate(ordered_reads):
        for second in ordered_reads[i + 1 :]:
            if first.precedes(second) and read_index[first.op_id] > read_index[second.op_id]:
                return violated(
                    _CONDITION,
                    f"new/old inversion: {first.describe()} precedes "
                    f"{second.describe()} but observes a newer write",
                    witness=(first, second),
                )
    return ok(_CONDITION)


def check_linearizability(history: History) -> CheckResult:
    """Fast polynomial linearizability check (SWMR, unique values)."""
    prepared = history.completed_for_checking()
    prepared.assert_unique_write_values()
    for register in prepared.registers():
        result = _check_register(prepared, register)
        if not result:
            return result
    return ok(_CONDITION)


def _total_order_search(
    condition: str,
    must_precede: Callable[[Operation, Operation], bool],
    history: History,
    max_ops: int,
) -> CheckResult:
    """Memoized Wing&Gong search for ONE legal sequence of all operations
    that extends ``must_precede`` — the view every client shares.

    The two total-order notions differ only in that relation: real-time
    order (linearizability) or per-client program order (sequential
    consistency).  The satisfying order is the witness.
    """
    prepared = prepare_exhaustive(history, max_ops, condition)
    ops = list(prepared)
    reg_pos = {reg: i for i, reg in enumerate(prepared.registers())}
    # An op may be placed only after every op that must precede it.
    predecessors = {
        op.op_id: {o.op_id for o in ops if must_precede(o, op)} for op in ops
    }
    failed_states: set[tuple[frozenset[int], tuple]] = set()

    def search(done: frozenset, state: tuple, path: list[Operation]) -> bool:
        if len(done) == len(ops):
            return True
        key = (done, state)
        if key in failed_states:
            return False
        for op in ops:
            if op.op_id in done or not predecessors[op.op_id] <= done:
                continue
            pos = reg_pos[op.register]
            if op.is_read:
                if op.value != state[pos]:
                    continue
                new_state = state
            else:
                new_state = state[:pos] + (op.value,) + state[pos + 1 :]
            path.append(op)
            if search(done | {op.op_id}, new_state, path):
                return True
            path.pop()
        failed_states.add(key)
        return False

    witness: list[Operation] = []
    if search(frozenset(), tuple(BOTTOM for _ in reg_pos), witness):
        return ok(condition, witness=witness)
    return violated(
        condition, f"no legal order of all operations satisfies {condition}"
    )


def _program_order(a: Operation, b: Operation) -> bool:
    # History's own sort key, so back-to-back operations (response time ==
    # next invocation time), which real-time order leaves unordered, count.
    return a.client == b.client and (a.invoked_at, a.op_id) < (b.invoked_at, b.op_id)


def check_linearizability_exhaustive(
    history: History, max_ops: int = 13
) -> CheckResult:
    """Definition 2 by exhaustive search; exponential, small histories only.

    The oracle the fast checker is validated against.
    """
    return _total_order_search(_CONDITION, Operation.precedes, history, max_ops)


def check_sequential_consistency_exhaustive(
    history: History, max_ops: int = 12
) -> CheckResult:
    """Sequential consistency: one order serves as every client's view and
    preserves program order, but not real-time order across clients.

    Not used by the protocols; it completes the lattice the paper situates
    its notions in (linearizability => sequential => causal consistency,
    and sequential = fork-sequential consistency with one shared view).
    NP-hard in general (Taylor), so only the exhaustive search exists.
    """
    return _total_order_search(
        "sequential-consistency", _program_order, history, max_ops
    )
