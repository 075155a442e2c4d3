"""Recording histories from live protocol runs.

Protocol clients report invocations and responses here; the recorder
assembles the :class:`~repro.history.History` that the consistency
checkers consume, and keeps the ``(client, protocol timestamp) -> op``
mapping that lets the analysis layer reconstruct USTOR view histories.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any

from repro.common.errors import HistoryError
from repro.common.types import BOTTOM, Bottom, ClientId, OpKind, RegisterId, Value
from repro.history.events import Operation
from repro.history.history import History


class _PendingOp:
    __slots__ = ("op_id", "client", "kind", "register", "value", "invoked_at", "timestamp")

    def __init__(self, op_id, client, kind, register, value, invoked_at, timestamp):
        self.op_id = op_id
        self.client = client
        self.kind = kind
        self.register = register
        self.value = value
        self.invoked_at = invoked_at
        self.timestamp = timestamp


class HistoryRecorder:
    """Builds a history incrementally from begin/end calls.

    Observers (e.g. the streaming checkers of
    :mod:`repro.consistency.incremental`) can subscribe with
    :meth:`add_listener` and see every invocation and response as it is
    recorded, in event order — the O(delta) alternative to re-extracting
    the whole :class:`History` on every periodic audit.
    """

    def __init__(self) -> None:
        self._next_id = 0
        self._pending: dict[int, _PendingOp] = {}
        self._done: list[Operation] = []
        self._by_key: dict[tuple[ClientId, int], int] = {}
        self._listeners: list = []
        #: register -> (pruned_write_count, last_pruned_responded_at);
        #: accumulated by :meth:`compact`, carried on extracted histories.
        self._base: dict[RegisterId, tuple[int, float]] = {}
        #: register -> (timestamps, values) of its writes in timestamp
        #: order, from invocation on: what ``written_at`` resolves against.
        #: :meth:`compact` trims it with the writes it prunes.
        self._writes: dict[RegisterId, tuple[list[int], list[Value]]] = {}
        self.compacted_ops = 0

    def add_listener(self, listener) -> None:
        """Subscribe ``listener`` to the live operation stream.

        The listener's ``on_invoke(op)`` is called at every :meth:`begin`
        with the operation as a (still-incomplete) :class:`Operation`
        (``responded_at=None``); ``on_response(op)`` at every :meth:`end`
        with the completed operation.  Either hook may be absent.
        """
        self._listeners.append(listener)

    def begin(
        self,
        client: ClientId,
        kind: OpKind,
        register: RegisterId,
        invoked_at: float,
        value: Value | None = None,
        timestamp: int | None = None,
    ) -> int:
        """Record an invocation; returns the operation id.

        ``timestamp`` is the protocol timestamp (USTOR assigns it before
        sending SUBMIT, so it is known even for operations that never
        complete).
        """
        op_id = self._next_id
        self._next_id += 1
        self._pending[op_id] = _PendingOp(
            op_id, client, kind, register, value, invoked_at, timestamp
        )
        if timestamp is not None:
            self._by_key[(client, timestamp)] = op_id
            if kind is OpKind.WRITE:
                timestamps, values = self._writes.setdefault(register, ([], []))
                timestamps.append(timestamp)
                values.append(value)
        if self._listeners:
            op = Operation(
                op_id=op_id,
                client=client,
                kind=kind,
                register=register,
                value=value,
                invoked_at=invoked_at,
                responded_at=None,
                timestamp=timestamp,
            )
            for listener in self._listeners:
                hook = getattr(listener, "on_invoke", None)
                if hook is not None:
                    hook(op)
        return op_id

    def end(
        self,
        op_id: int,
        responded_at: float,
        value: Value | Bottom | None = None,
        timestamp: int | None = None,
        written_at: tuple[RegisterId, int] | None = None,
    ) -> Operation:
        """Record the matching response; returns the completed operation.

        A read answered with only the value's digest passes ``written_at =
        (j, t_j)`` instead of ``value``: it returned what
        :meth:`value_written` resolves that to.
        """
        if written_at is not None:
            value = self.value_written(*written_at)
        try:
            pending = self._pending.pop(op_id)
        except KeyError:
            raise HistoryError(f"no pending operation with id {op_id}") from None
        if timestamp is not None:
            pending.timestamp = timestamp
            self._by_key[(pending.client, timestamp)] = op_id
        final_value = pending.value if pending.kind is OpKind.WRITE else value
        op = Operation(
            op_id=op_id,
            client=pending.client,
            kind=pending.kind,
            register=pending.register,
            value=final_value,
            invoked_at=pending.invoked_at,
            responded_at=responded_at,
            timestamp=pending.timestamp,
        )
        self._done.append(op)
        for listener in self._listeners:
            hook = getattr(listener, "on_response", None)
            if hook is not None:
                hook(op)
        return op

    def value_written(self, register: RegisterId, timestamp: int) -> Value | Bottom:
        """The value register ``register`` held as of its writer's operation
        ``timestamp``: that client's latest write with a timestamp at or
        below it, ``BOTTOM`` before its first write.

        Exact under forks too: a ``MEM[j]`` that passes line 50 carries the
        writer's DATA-signature over ``(t_j, H(x))``, and a correct writer
        signs at ``t_j`` the hash of its own latest write.  Once
        :meth:`compact` pruned writes of the register, a timestamp before
        every kept one is unknown: :class:`HistoryError` (a read that
        passes line 51 is never that old, as it knows the stable cut).
        """
        timestamps, values = self._writes.get(register, ((), ()))
        index = bisect_right(timestamps, timestamp)
        if index:
            return values[index - 1]
        if register not in self._base:
            return BOTTOM
        raise HistoryError(
            f"the write to register {register} at or before timestamp "
            f"{timestamp} was compacted away"
        )

    # ------------------------------------------------------------------ #
    # Checkpoint compaction
    # ------------------------------------------------------------------ #

    def compact(self, cut: tuple[int, ...], keep_tail: int = 1) -> int:
        """Prune completed operations behind a co-signed checkpoint cut.

        ``cut[j]`` is the stable protocol timestamp for client ``j``
        (SWMR: also the writer of register ``j``).  Per register, the
        completed writes with ``timestamp <= cut[register]`` are pruned
        except the newest ``keep_tail`` of them; completed reads whose
        value came from a pruned write go with it.  What was dropped is
        summarised in the per-register base carried on every extracted
        :class:`History`, so the offline checkers keep write indexes
        absolute and the BOTTOM staleness rule time-sound.  Listeners
        with an ``on_compact(cut, keep_tail)`` hook (the incremental
        checkers) are told to prune by the same rule.  Returns the
        number of operations dropped.
        """
        if keep_tail < 1:
            raise HistoryError("keep_tail must be at least 1")
        writes_by_register: dict[RegisterId, list[Operation]] = {}
        for op in self._done:
            if op.is_write:
                writes_by_register.setdefault(op.register, []).append(op)
        pruned_ids: set[int] = set()
        pruned_values: set[tuple[RegisterId, bytes]] = set()
        for register, writes in writes_by_register.items():
            if register >= len(cut):
                continue
            eligible = [
                w
                for w in writes
                if w.timestamp is not None and w.timestamp <= cut[register]
            ]
            drop = eligible[:-keep_tail]
            if not drop:
                continue
            for write in drop:
                pruned_ids.add(write.op_id)
                pruned_values.add((register, bytes(write.value)))
            timestamps, values = self._writes.get(register, ([], []))
            kept = bisect_right(timestamps, drop[-1].timestamp)
            del timestamps[:kept]
            del values[:kept]
            count, last = self._base.get(register, (0, float("-inf")))
            self._base[register] = (
                count + len(drop),
                max(last, drop[-1].responded_at),
            )
        if pruned_values:
            for op in self._done:
                if (
                    op.is_read
                    and op.value is not None
                    and not isinstance(op.value, Bottom)
                    and (op.register, bytes(op.value)) in pruned_values
                ):
                    pruned_ids.add(op.op_id)
        if pruned_ids:
            self._done = [op for op in self._done if op.op_id not in pruned_ids]
            self._by_key = {
                key: op_id
                for key, op_id in self._by_key.items()
                if op_id not in pruned_ids
            }
            self.compacted_ops += len(pruned_ids)
        for listener in self._listeners:
            hook = getattr(listener, "on_compact", None)
            if hook is not None:
                hook(tuple(cut), keep_tail)
        return len(pruned_ids)

    # ------------------------------------------------------------------ #
    # Extraction
    # ------------------------------------------------------------------ #

    def history(self) -> History:
        """The history so far, pending operations included (incomplete)."""
        ops = list(self._done)
        for pending in self._pending.values():
            ops.append(
                Operation(
                    op_id=pending.op_id,
                    client=pending.client,
                    kind=pending.kind,
                    register=pending.register,
                    value=pending.value,
                    invoked_at=pending.invoked_at,
                    responded_at=None,
                    timestamp=pending.timestamp,
                )
            )
        return History(ops, base=self._base)

    def op_id_for(self, client: ClientId, timestamp: int) -> int | None:
        """Map a protocol ``(client, timestamp)`` pair to an operation id."""
        return self._by_key.get((client, timestamp))

    @property
    def completed_count(self) -> int:
        return len(self._done)

    @property
    def pending_count(self) -> int:
        return len(self._pending)
