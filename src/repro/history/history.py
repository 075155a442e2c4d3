"""Histories: sequences of operations with the paper's derived notions.

A :class:`History` is the record of one execution restricted to the
register functionality ``F`` — what Section 2 calls ``sigma|F``.  It
provides the constructions every definition in the paper is phrased in:
``complete(sigma)``, per-client restriction ``sigma|C_i``, each writer's
writes in program order, and the unique-values check that the
consistency checkers build on (reads-from itself is
:mod:`repro.history.causality`'s).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

from repro.common.errors import HistoryError
from repro.common.types import ClientId, RegisterId, Value, ValueDigest
from repro.history.events import Operation


class History:
    """An immutable collection of operations from one execution.

    ``base`` carries the checkpoint cut a compacted recorder pruned
    behind (:meth:`~repro.history.recorder.HistoryRecorder.compact`): a
    mapping ``register -> (pruned_write_count, last_pruned_responded_at)``.
    Checkers use it to keep write indexes absolute and to keep the
    BOTTOM-read staleness rule sound on histories that no longer start
    at the initial value.  An empty base (the default) is a history from
    timestamp zero.
    """

    def __init__(
        self,
        operations: Iterable[Operation],
        base: dict[RegisterId, tuple[int, float]] | None = None,
    ) -> None:
        ops = sorted(operations, key=lambda o: (o.invoked_at, o.op_id))
        seen: set[int] = set()
        for op in ops:
            if op.op_id in seen:
                raise HistoryError(f"duplicate op_id {op.op_id} in history")
            seen.add(op.op_id)
        self._ops: tuple[Operation, ...] = tuple(ops)
        self._by_id = {op.op_id: op for op in ops}
        self._by_client: dict[ClientId, list[Operation]] = defaultdict(list)
        for op in self._ops:
            self._by_client[op.client].append(op)
        self._base: dict[RegisterId, tuple[int, float]] = dict(base or {})
        self._check_well_formed()

    def _check_well_formed(self) -> None:
        """Each client must be sequential: alternating invoke/response."""
        for client, ops in self._by_client.items():
            previous: Operation | None = None
            for op in ops:
                if previous is not None:
                    if previous.responded_at is None:
                        raise HistoryError(
                            f"client C{client + 1} invoked op {op.op_id} while "
                            f"op {previous.op_id} was still pending"
                        )
                    if previous.responded_at > op.invoked_at:
                        raise HistoryError(
                            f"client C{client + 1} operations overlap "
                            f"({previous.op_id} and {op.op_id})"
                        )
                previous = op

    # ------------------------------------------------------------------ #
    # Basic access
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._ops)

    def __getitem__(self, index: int) -> Operation:
        return self._ops[index]

    @property
    def operations(self) -> tuple[Operation, ...]:
        return self._ops

    @property
    def base(self) -> dict[RegisterId, tuple[int, float]]:
        """The checkpoint base this history was compacted behind."""
        return dict(self._base)

    def base_of(self, register: RegisterId) -> tuple[int, float]:
        """``(pruned_write_count, last_pruned_responded_at)`` for one register."""
        return self._base.get(register, (0, float("-inf")))

    def op(self, op_id: int) -> Operation:
        try:
            return self._by_id[op_id]
        except KeyError:
            raise HistoryError(f"no operation with id {op_id}") from None

    def clients(self) -> list[ClientId]:
        return sorted(self._by_client)

    def registers(self) -> list[RegisterId]:
        return sorted({op.register for op in self._ops})

    # ------------------------------------------------------------------ #
    # The paper's derived sequences
    # ------------------------------------------------------------------ #

    def complete(self) -> "History":
        """``complete(sigma)``: the complete operations only."""
        return History(
            (op for op in self._ops if op.complete), base=self._base
        )

    def restrict_to_client(self, client: ClientId) -> list[Operation]:
        """``sigma|C_i`` as an ordered list."""
        return list(self._by_client.get(client, ()))

    def writes_to(self, register: RegisterId) -> list[Operation]:
        """All writes to a register in writer program order.

        SWMR means a single (sequential) writer, so program order totally
        orders these writes — the fact the fast linearizability checker
        exploits.
        """
        return [
            op
            for op in self._by_client.get(register, ())
            if op.is_write and op.register == register
        ]

    def reads_of(self, register: RegisterId) -> list[Operation]:
        return [op for op in self._ops if op.is_read and op.register == register]

    # ------------------------------------------------------------------ #
    # Unique-values machinery (Section 2 assumes written values unique)
    # ------------------------------------------------------------------ #

    def assert_unique_write_values(self) -> None:
        seen: dict[tuple[RegisterId, Value | ValueDigest], int] = {}
        for op in self._ops:
            if not op.is_write:
                continue
            key = (op.register, op.value)
            if key in seen:
                raise HistoryError(
                    f"writes {seen[key]} and {op.op_id} store the same value in "
                    f"register {op.register}; unique values are assumed"
                )
            seen[key] = op.op_id

    # ------------------------------------------------------------------ #
    # Completion (the standard preprocessing for Definitions 1-3)
    # ------------------------------------------------------------------ #

    def completed_for_checking(self) -> "History":
        """Resolve incomplete operations the way Definition 1 permits.

        * incomplete reads are dropped (they returned nothing observable
          and a response with *any* legal value may be appended, so they
          never make a history inconsistent);
        * incomplete writes are kept, completed with an open-ended response
          (``+inf``): they may have taken effect — another client may have
          read them — and since they then constrain nothing in real-time
          order, keeping them is equivalence-preserving for every checker
          in :mod:`repro.consistency` (an unread, real-time-unconstrained
          write can always be appended at the writer's last position).
        """
        kept: list[Operation] = []
        for op in self._ops:
            if op.complete:
                kept.append(op)
            elif op.is_write:
                kept.append(op.completed_copy(responded_at=float("inf")))
        return History(kept, base=self._base)

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #

    def describe(self) -> str:
        lines = []
        for op in self._ops:
            end = f"{op.responded_at:.3f}" if op.complete else "pending"
            lines.append(f"[{op.invoked_at:.3f} .. {end}] {op.describe()}")
        return "\n".join(lines)

