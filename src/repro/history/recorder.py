"""Recording histories from live protocol runs.

Protocol clients report invocations and responses here; the recorder
assembles the :class:`~repro.history.history.History` that the consistency
checkers consume.  A value of
:data:`~repro.common.types.DIGEST_FORM_MIN_BYTES` or more is recorded as
its :class:`~repro.common.types.ValueDigest` ``H(x)`` — the identity the
client vouches for — so what the recorder holds per operation does not
grow with the value's size.
"""

from __future__ import annotations

from repro.common.errors import HistoryError
from repro.common.types import Bottom, ClientId, OpKind, RegisterId, Value, ValueDigest
from repro.crypto.hashing import digest_form
from repro.history.events import Operation
from repro.history.history import History


class HistoryRecorder:
    """Builds a history incrementally from begin/end calls.

    Every recorded value is ``bytes`` shorter than
    :data:`~repro.common.types.DIGEST_FORM_MIN_BYTES`, ``BOTTOM``, a
    :class:`~repro.common.types.ValueDigest` or (an incomplete read)
    ``None``: a caller that already holds ``H(x)`` passes it as
    ``value_hash``, and the recorder hashes only when it is missing.
    Observers (e.g. the streaming checkers of
    :mod:`repro.consistency.incremental`) can subscribe with
    :meth:`add_listener` and see every invocation and response as it is
    recorded, in event order — the O(delta) alternative to re-extracting
    the whole :class:`History` on every periodic audit.
    """

    def __init__(self) -> None:
        self._next_id = 0
        self._pending: dict[int, Operation] = {}
        self._done: list[Operation] = []
        self._listeners: list = []
        #: register -> (pruned_write_count, last_pruned_responded_at);
        #: accumulated by :meth:`compact`, carried on extracted histories.
        self._base: dict[RegisterId, tuple[int, float]] = {}
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
        value_hash: bytes | None = None,
    ) -> int:
        """Record an invocation; returns the operation id.

        ``timestamp`` is the protocol timestamp (USTOR assigns it before
        sending SUBMIT, so it is known even for operations that never
        complete).  ``value_hash`` is ``H(value)`` if the caller has it.
        """
        op_id = self._next_id
        self._next_id += 1
        op = Operation(
            op_id, client, kind, register, digest_form(value, value_hash),
            invoked_at, None, timestamp,
        )
        self._pending[op_id] = op
        for listener in self._listeners:
            hook = getattr(listener, "on_invoke", None)
            if hook is not None:
                hook(op)
        return op_id

    def end(
        self,
        op_id: int,
        responded_at: float,
        value: Value | Bottom | ValueDigest | None = None,
        timestamp: int | None = None,
        value_hash: bytes | None = None,
    ) -> Operation:
        """Record the matching response; returns the completed operation.

        A read's ``value`` is what it returned — a
        :class:`~repro.common.types.ValueDigest` if it was answered with
        only the value's digest — and ``value_hash`` is ``H(value)`` if
        the caller has it.
        """
        try:
            pending = self._pending.pop(op_id)
        except KeyError:
            raise HistoryError(f"no pending operation with id {op_id}") from None
        op = Operation(
            op_id,
            pending.client,
            pending.kind,
            pending.register,
            pending.value if pending.is_write else digest_form(value, value_hash),
            pending.invoked_at,
            responded_at,
            pending.timestamp if timestamp is None else timestamp,
        )
        self._done.append(op)
        for listener in self._listeners:
            hook = getattr(listener, "on_response", None)
            if hook is not None:
                hook(op)
        return op

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
        pruned_values: set[tuple[RegisterId, Value | ValueDigest]] = set()
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
                pruned_values.add((register, write.value))
            count, last = self._base.get(register, (0, float("-inf")))
            self._base[register] = (
                count + len(drop),
                max(last, drop[-1].responded_at),
            )
        if pruned_values:
            for op in self._done:
                if op.is_read and (op.register, op.value) in pruned_values:
                    pruned_ids.add(op.op_id)
        if pruned_ids:
            self._done = [op for op in self._done if op.op_id not in pruned_ids]
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
        return History([*self._done, *self._pending.values()], base=self._base)

    @property
    def completed_count(self) -> int:
        return len(self._done)

    @property
    def pending_count(self) -> int:
        return len(self._pending)
