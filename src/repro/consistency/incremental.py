"""Streaming incremental checkers: O(delta) periodic audits.

The offline checkers (:mod:`repro.consistency.linearizability`,
:mod:`repro.consistency.causal`) re-examine the *entire* history on every
call, so a workload that audits itself every T time units pays
O(history) per audit — quadratic over a run, and the dominant cost of
long audited workloads (the macro inefficiency the throughput pipeline
removes).  The checkers here consume the operation stream *as it is
recorded* and maintain just enough state to decide the same conditions,
so each audit costs O(operations appended since the last audit) and a
verdict read is O(1).

Both checkers implement the :class:`~repro.history.recorder.
HistoryRecorder` listener protocol (``on_invoke`` / ``on_response``) —
attach them with ``recorder.add_listener(checker)`` (or use
:class:`~repro.workloads.runner.IncrementalAuditor`, which wires and
polls them) — and agree with their offline counterparts on every history
recorded from a live execution:

* :class:`IncrementalLinearizabilityChecker` decides Definition 2 with
  the same three SWMR rules as :func:`~repro.consistency.
  linearizability.check_linearizability` (value-from-the-future, stale
  read, new/old inversion).  Per completed read the work is O(1) plus an
  amortized-O(log reads) staircase update for the inversion rule.
* :class:`IncrementalCausalChecker` decides Definition 3 with the
  writes-into characterisation of :func:`~repro.consistency.causal.
  check_causal_consistency`, maintained as per-client vector clocks
  (operation counts for cycle detection, per-writer write counts for the
  causally-overwritten rule) — O(clients) per operation.

Both process writes at *invocation* (the offline checkers keep
incomplete writes: they may have been read) and reads at *response*
(incomplete reads are dropped, exactly as ``completed_for_checking``
does), so an audit mid-run equals the offline verdict on the same
prefix.  A read returning a value no invoked write produced is reported
as a violation — the offline verdict on that prefix — and re-examined if
the write appears later (impossible in histories recorded from real
executions, where a value cannot be known before its write is invoked;
it matters only when replaying synthetic histories).

``tests/test_consistency_incremental.py`` pins the agreement with the
offline checkers on randomized protocol runs, Byzantine runs and
handcrafted violations.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field

from repro.common.types import BOTTOM, OpKind, Value, ValueDigest
from repro.history.events import Operation
from repro.history.history import History
from repro.consistency.report import CheckResult, ok, violated


class IncrementalChecker:
    """Shared machinery: sticky verdicts and stream statistics.

    Subclasses implement ``on_invoke``/``on_response`` and record the
    first violation through :meth:`_violate`; :meth:`result` then renders
    the current verdict without touching the history again.
    """

    condition = "incremental"

    def __init__(self) -> None:
        self._violation: CheckResult | None = None
        #: Reads whose value matched no invoked write yet, keyed by
        #: ``(register, value bytes)`` — a violation while unresolved.
        self._orphans: dict[tuple, list[Operation]] = {}
        self.ops_processed = 0

    # -- stream hooks (the HistoryRecorder listener protocol) ----------- #

    def on_invoke(self, op: Operation) -> None:
        """Observe one invocation (writes take effect here)."""
        raise NotImplementedError  # pragma: no cover - abstract

    def on_response(self, op: Operation) -> None:
        """Observe one response (reads take effect here)."""
        raise NotImplementedError  # pragma: no cover - abstract

    # -- verdicts -------------------------------------------------------- #

    def _violate(self, description: str, witness=None) -> None:
        if self._violation is None:
            self._violation = violated(self.condition, description, witness=witness)

    @property
    def ok(self) -> bool:
        """Is the stream consistent so far? (O(1))."""
        return self._violation is None and not self._orphans

    def result(self) -> CheckResult:
        """The verdict over everything streamed so far (O(1))."""
        if self._violation is not None:
            return self._violation
        if self._orphans:
            reads = next(iter(self._orphans.values()))
            return violated(
                self.condition,
                f"{reads[0].describe()} returned a value that was never "
                f"written",
                witness=reads[0],
            )
        return ok(self.condition)


@dataclass
class _RegisterState:
    """Per-register linearizability state.

    ``writes`` holds the register's writes in writer program order (SWMR:
    one sequential writer totally orders them); index ``k`` (1-based)
    denotes the k-th write, index 0 the initial BOTTOM.  ``staircase``
    is the new/old-inversion structure: ``(responded_at, write_index)``
    pairs kept sorted by response time with strictly increasing indexes,
    so "the newest write observed by any read that completed before t"
    is one bisection away.
    """

    writes: list[Operation] = field(default_factory=list)
    index_of_value: dict[Value | ValueDigest, int] = field(default_factory=dict)
    staircase: list[tuple[float, int]] = field(default_factory=list)
    #: Checkpoint base: writes pruned behind the co-signed cut.  Indexes
    #: stay absolute (write k of the execution is still index k); the
    #: ``writes`` list holds entries ``base + 1 ..``.
    base: int = 0
    base_time: float = float("-inf")


class IncrementalLinearizabilityChecker(IncrementalChecker):
    """Streaming Definition 2 (atomicity) for SWMR register histories."""

    condition = "linearizability"

    def __init__(self) -> None:
        super().__init__()
        self._registers: dict[int, _RegisterState] = {}

    def _register(self, register: int) -> _RegisterState:
        state = self._registers.get(register)
        if state is None:
            state = self._registers[register] = _RegisterState()
        return state

    # -- stream hooks ---------------------------------------------------- #

    def on_invoke(self, op: Operation) -> None:
        """Record a write at invocation (reads wait for their response)."""
        if not op.is_write:
            return
        self.ops_processed += 1
        state = self._register(op.register)
        key = op.value
        if key in state.index_of_value:
            self._violate(
                f"writes of register {op.register} repeat the value "
                f"{op.value!r}; unique values are assumed",
                witness=op,
            )
            return
        state.writes.append(op)
        index = state.base + len(state.writes)
        state.index_of_value[key] = index
        orphans = self._orphans.pop((op.register, key), None)
        if orphans:
            for read in orphans:
                self._check_read(read, index, state)

    def on_response(self, op: Operation) -> None:
        """Process a completed read; record a write's response time."""
        if op.is_write:
            # Find it in its register's write list: it is the last one
            # (SWMR program order — the writer cannot have moved on).
            state = self._register(op.register)
            if state.writes and state.writes[-1].op_id == op.op_id:
                state.writes[-1] = op
            return
        self.ops_processed += 1
        state = self._register(op.register)
        if op.value is BOTTOM:
            self._check_read(op, 0, state)
        elif op.value is None:
            self._violate(f"read {op.op_id} has no recorded return value", op)
        else:
            index = state.index_of_value.get(op.value)
            if index is None:
                self._orphans.setdefault(
                    (op.register, op.value), []
                ).append(op)
            else:
                self._check_read(op, index, state)

    def seed_base(self, base: dict[int, tuple[int, float]]) -> None:
        """Adopt a compacted history's checkpoint base before a replay."""
        for register, (count, last) in base.items():
            state = self._register(register)
            state.base = count
            state.base_time = last

    def on_compact(self, cut: tuple[int, ...], keep_tail: int) -> None:
        """Prune checker state behind a co-signed checkpoint cut.

        Mirrors :meth:`~repro.history.recorder.HistoryRecorder.compact`:
        per register, writes with ``timestamp <= cut[register]`` are
        dropped except the newest ``keep_tail``; their values leave the
        index so a later (Byzantine) read of a pruned value surfaces as
        an orphan, exactly as the offline checker reports "never
        written" on the compacted history.
        """
        for register, state in self._registers.items():
            if register >= len(cut):
                continue
            writes = state.writes
            eligible = 0
            while eligible < len(writes):
                timestamp = writes[eligible].timestamp
                if timestamp is None or timestamp > cut[register]:
                    break
                eligible += 1
            prune = eligible - keep_tail
            if prune <= 0:
                continue
            dropped = writes[:prune]
            del writes[:prune]
            for write in dropped:
                state.index_of_value.pop(write.value, None)
            state.base += prune
            last = dropped[-1].responded_at
            if last is not None and last > state.base_time:
                state.base_time = last
            state.staircase = [
                entry for entry in state.staircase if entry[1] > state.base
            ]

    # -- the three SWMR rules, incrementally ----------------------------- #

    def _check_read(self, read: Operation, index: int, state: _RegisterState) -> None:
        # Rule 1 — value from the future: the read completed before the
        # write it returns was invoked.  Indexes are absolute; mapped
        # values always point at retained writes (index > base).
        if index >= 1:
            write = state.writes[index - 1 - state.base]
            if read.responded_at < write.invoked_at:
                self._violate(
                    f"{read.describe()} completed before {write.describe()} "
                    f"was invoked (value from the future)",
                    witness=(read, write),
                )
                return
        elif state.base and read.invoked_at > state.base_time:
            # BOTTOM behind a checkpoint base: a pruned write completed
            # before this read was invoked.  Reads overlapping the pruned
            # era may legitimately see BOTTOM.
            self._violate(
                f"{read.describe()} is stale: {state.base} checkpointed "
                f"write(s) of register {read.register} completed before "
                f"the read was invoked, yet it returned BOTTOM",
                witness=read,
            )
            return
        # Rule 2 — stale read: a later write completed before the read was
        # invoked.  Writes respond in index order (program order), so the
        # earliest-responding later write is the very next one.
        position = max(index - state.base, 0)
        if position < len(state.writes):
            later = state.writes[position]
            if later.responded_at is not None and later.responded_at < read.invoked_at:
                self._violate(
                    f"{read.describe()} is stale: {later.describe()} "
                    f"completed before the read was invoked",
                    witness=(read, later),
                )
                return
        # Rule 3 — new/old inversion: some read that completed before this
        # one was invoked observed a strictly newer write.
        position = bisect_left(state.staircase, (read.invoked_at, -1))
        if position and state.staircase[position - 1][1] > index:
            self._violate(
                f"new/old inversion: a read preceding {read.describe()} "
                f"observed write #{state.staircase[position - 1][1]} of "
                f"register {read.register}, newer than write #{index}",
                witness=read,
            )
            return
        self._staircase_insert(state, read.responded_at, index)

    @staticmethod
    def _staircase_insert(state: _RegisterState, responded_at: float, index: int) -> None:
        # Keep only Pareto-optimal (earliest response, newest write)
        # pairs: response times ascending, indexes strictly ascending.
        stairs = state.staircase
        position = bisect_left(stairs, (responded_at, -1))
        if position and stairs[position - 1][1] >= index:
            return  # dominated: an earlier read already saw a newer write
        insort(stairs, (responded_at, index))
        position = bisect_left(stairs, (responded_at, index)) + 1
        # Drop now-dominated later entries (amortized O(1): each entry is
        # removed at most once over the checker's lifetime).
        while position < len(stairs) and stairs[position][1] <= index:
            del stairs[position]


@dataclass
class _ClientState:
    """Per-client causal state: program-order position and vector clocks.

    ``ops[j]`` counts operations of client ``j`` in this client's causal
    past (cycle detection); ``writes[j]`` counts *writes* of client ``j``
    in it — and because SWMR writes of a register are totally ordered by
    writer program order, ``writes[j]`` IS the index of the newest write
    of register ``j`` causally preceding this client's next operation.
    """

    position: int = 0
    ops: dict[int, int] = field(default_factory=dict)
    writes: dict[int, int] = field(default_factory=dict)


def _merge(into: dict[int, int], other: dict[int, int]) -> None:
    for key, value in other.items():
        if value > into.get(key, 0):
            into[key] = value


class IncrementalCausalChecker(IncrementalChecker):
    """Streaming Definition 3 (causal consistency) for SWMR histories."""

    condition = "causal-consistency"

    def __init__(self) -> None:
        super().__init__()
        self._clients: dict[int, _ClientState] = {}
        #: Per register: the vector-clock snapshots of each write, in
        #: writer program order (1-based index = write index).  After
        #: checkpoint compaction the list holds writes ``base + 1 ..``
        #: (indexes stay absolute; ``_reg_base`` is the offset).
        self._write_clocks: dict[int, list[tuple[dict, dict]]] = {}
        #: Protocol timestamps parallel to ``_write_clocks`` — the prune
        #: rule is phrased over them.
        self._write_ts: dict[int, list[int | None]] = {}
        self._reg_base: dict[int, int] = {}
        self._index_of_value: dict[int, dict[Value | ValueDigest, int]] = {}

    def _client(self, client: int) -> _ClientState:
        state = self._clients.get(client)
        if state is None:
            state = self._clients[client] = _ClientState()
        return state

    # -- stream hooks ---------------------------------------------------- #

    def on_invoke(self, op: Operation) -> None:
        """Fold a write into its writer's causal past at invocation."""
        if not op.is_write:
            return
        self.ops_processed += 1
        values = self._index_of_value.setdefault(op.register, {})
        key = op.value
        if key in values:
            # Check BEFORE mutating any clock state: a duplicate must not
            # desynchronize the write index from ``_write_clocks`` (later
            # reads index into it), only leave the sticky verdict.
            self._violate(
                f"writes of register {op.register} repeat the value "
                f"{op.value!r}; unique values are assumed",
                witness=op,
            )
            return
        state = self._client(op.client)
        state.position += 1
        state.ops[op.client] = state.position
        state.writes[op.register] = state.writes.get(op.register, 0) + 1
        values[key] = state.writes[op.register]
        self._write_clocks.setdefault(op.register, []).append(
            (dict(state.ops), dict(state.writes))
        )
        self._write_ts.setdefault(op.register, []).append(op.timestamp)
        orphans = self._orphans.pop((op.register, key), None)
        if orphans:
            for read in orphans:
                self._absorb_read(read, values[key])

    def on_response(self, op: Operation) -> None:
        """Fold a completed read into its reader's causal past."""
        if op.is_write:
            return
        self.ops_processed += 1
        if op.value is BOTTOM:
            state = self._client(op.client)
            state.position += 1
            state.ops[op.client] = state.position
            if state.writes.get(op.register, 0) > 0:
                self._violate(
                    f"{op.describe()} is causally overwritten: a write of "
                    f"register {op.register} causally precedes the read "
                    f"yet it returned BOTTOM",
                    witness=op,
                )
            return
        if op.value is None:
            self._violate(f"read {op.op_id} has no recorded return value", op)
            return
        index = self._index_of_value.get(op.register, {}).get(op.value)
        if index is None:
            self._orphans.setdefault(
                (op.register, op.value), []
            ).append(op)
            # The read still advances its client's program order.
            state = self._client(op.client)
            state.position += 1
            state.ops[op.client] = state.position
            return
        state = self._client(op.client)
        state.position += 1
        state.ops[op.client] = state.position
        self._absorb_read(op, index)

    def seed_base(self, base: dict[int, tuple[int, float]]) -> None:
        """Adopt a compacted history's checkpoint base before a replay.

        SWMR: the writer of register ``j`` is client ``j``, so the
        writer's cumulative write count starts at the pruned count —
        that keeps the value index absolute across the replay.
        """
        for register, (count, _last) in base.items():
            self._reg_base[register] = count
            writer = self._client(register)
            writer.writes[register] = max(
                writer.writes.get(register, 0), count
            )

    def on_compact(self, cut: tuple[int, ...], keep_tail: int) -> None:
        """Prune write-clock prefixes behind a co-signed checkpoint cut.

        The reader-side cumulative clocks are untouched (the BOTTOM and
        causally-overwritten rules compare absolute counts); only the
        per-write snapshots and the value index shed the pruned prefix,
        by the same rule as the recorder.
        """
        for register, clocks in self._write_clocks.items():
            if register >= len(cut):
                continue
            ts_list = self._write_ts[register]
            eligible = 0
            while eligible < len(ts_list):
                timestamp = ts_list[eligible]
                if timestamp is None or timestamp > cut[register]:
                    break
                eligible += 1
            prune = eligible - keep_tail
            if prune <= 0:
                continue
            del clocks[:prune]
            del ts_list[:prune]
            base = self._reg_base.get(register, 0) + prune
            self._reg_base[register] = base
            values = self._index_of_value.get(register, {})
            for key in [k for k, idx in values.items() if idx <= base]:
                del values[key]

    # -- the writes-into rules, as clock arithmetic ---------------------- #

    def _absorb_read(self, read: Operation, index: int) -> None:
        state = self._client(read.client)
        base = self._reg_base.get(read.register, 0)
        write_ops, write_writes = self._write_clocks[read.register][index - 1 - base]
        # Cycle: the write already counts this client up to (or past) the
        # read itself — the read would causally precede its own source.
        if write_ops.get(read.client, 0) >= state.ops.get(read.client, 0):
            self._violate(
                f"potential causality contains a cycle: the write read by "
                f"{read.describe()} causally depends on the read",
                witness=read,
            )
            return
        # Causally overwritten: a strictly newer write of the register is
        # already in the reader's causal past.
        if state.writes.get(read.register, 0) > index:
            self._violate(
                f"{read.describe()} is causally overwritten: write "
                f"#{state.writes[read.register]} of register "
                f"{read.register} causally precedes the read",
                witness=read,
            )
            return
        _merge(state.ops, write_ops)
        _merge(state.writes, write_writes)


def attach_incremental_checkers(
    recorder, checks: tuple[str, ...] = ("linearizability", "causal")
) -> dict[str, IncrementalChecker]:
    """Create and subscribe streaming checkers on a live recorder.

    ``checks`` names any of ``"linearizability"`` / ``"causal"``; the
    returned dict maps each name to its attached checker.  Operations the
    recorder has already seen are replayed into each checker first, so
    attaching mid-run is sound — without the catch-up, a read returning a
    pre-attach value would be misreported as fabricated.
    """
    made: dict[str, IncrementalChecker] = {}
    past = recorder.history() if (recorder.completed_count or recorder.pending_count) else None
    for name in checks:
        if name == "linearizability":
            made[name] = IncrementalLinearizabilityChecker()
        elif name == "causal":
            made[name] = IncrementalCausalChecker()
        else:
            raise ValueError(
                f"unknown incremental check {name!r}; choose from "
                f"('linearizability', 'causal')"
            )
        if past is not None:
            if past.base:
                made[name].seed_base(past.base)
            replay_history(made[name], past)
        recorder.add_listener(made[name])
    return made


def replay_history(checker: IncrementalChecker, history: History) -> CheckResult:
    """Stream a recorded :class:`History` through ``checker`` and return
    the final verdict.

    Events are replayed in execution order — invocations by invocation
    time, responses by response time.  At a time tie, responses are
    processed first: a client whose next operation is invoked at the
    exact virtual instant the previous one responded (a zero think-time
    driver) must have that response folded in before the invocation, as
    a live recorder would.  A zero-duration operation keeps its own
    invoke-then-respond order.
    """
    RESPOND, INVOKE, BOTH = 0, 1, 1  # BOTH rides the invocation phase
    events: list[tuple[float, int, int, int, Operation]] = []
    for sequence, op in enumerate(history):
        if op.complete and op.responded_at == op.invoked_at:
            events.append((op.invoked_at, BOTH, sequence, 2, op))
            continue
        events.append((op.invoked_at, INVOKE, sequence, 0, op))
        if op.complete:
            events.append((op.responded_at, RESPOND, sequence, 1, op))
    events.sort(key=lambda event: (event[0], event[1], event[2]))
    for _time, _phase, _sequence, action, op in events:
        if action == 0:
            checker.on_invoke(op)
        elif action == 1:
            checker.on_response(op)
        else:
            checker.on_invoke(op)
            checker.on_response(op)
    return checker.result()
