"""Per-client sessions: future-based operations over any backend.

A :class:`Session` binds one client of a running system and exposes the
paper's service interface uniformly across protocols:

* ``write()``/``read()`` return :class:`~repro.api.handles.OpHandle`
  futures immediately, so applications can pipeline several operations —
  the handles settle in submission order.  Clients whose protocol layer
  queues internally (FAUST) receive every submission at once; clients
  that require one operation at a time (USTOR, the baselines) are fed
  from a session-side backlog as each operation completes.
* ``write_sync()``/``read_sync()`` are the blocking convenience forms.
* ``barrier()`` drives the simulation until every handle issued by this
  session has settled.
* ``wait_for_stability()``/``stability_cut`` surface the fail-aware
  guarantees where the backend provides them (:class:`CapabilityError`
  otherwise).

When the deployment was opened with a batching policy
(``SystemConfig(batching=...)``), submissions are *buffered* and handed
to the protocol layer in batches: a flush happens when the buffer
reaches ``max_batch`` operations, when ``max_delay`` virtual time has
passed since the first buffered operation (a real scheduler timer), on
``flush()``, and before any blocking wait (``result``, ``barrier``).
Batching changes *when* the bookkeeping happens, never the protocol:
each operation still runs the full per-op SUBMIT/REPLY/COMMIT exchange
in submission order.

A session is bound to one :class:`~repro.workloads.runner.StorageSystem`
— usually through ``system.session(i)``, which caches one per client —
and reads its wait budget, batching policy and span log from there.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.api.errors import CapabilityError, OperationFailed, OperationTimeout
from repro.api.handles import OpHandle, OpResult
from repro.common.errors import ProtocolError
from repro.common.types import Bottom, OpKind, RegisterId, Value, register_name
from repro.obs.registry import COUNT_BUCKETS, get_registry
from repro.obs.tracing import make_trace_id


class Session:
    """Operations of one client, as futures."""

    def __init__(self, system, client_id: int, timeout: float | None = None) -> None:
        self._system = system
        self._client = system.clients[client_id]
        self._client_id = client_id
        self._timeout = system.default_timeout if timeout is None else timeout
        self._inflight: OpHandle | None = None
        self._backlog: deque[tuple[OpKind, RegisterId, Value | None, OpHandle]] = (
            deque()
        )
        #: Handles issued but not yet settled, in submission order.  A
        #: deque: handles settle in submission order, so the overwhelmingly
        #: common settle is an O(1) popleft of the head rather than an
        #: O(outstanding) list removal — pipelined sessions stay linear.
        self._unsettled: deque[OpHandle] = deque()
        #: Auto-flush batching (None = unbatched): buffered submissions
        #: and the pending flush timer, per the system's BatchingPolicy.
        self._batching = system.batching
        self._batch_buffer: deque[tuple[OpKind, RegisterId, Value | None, OpHandle]] = (
            deque()
        )
        self._flush_timer = None
        # Observability: registry handles captured once (no-ops when
        # metrics are off) plus the system-wide span log, if any.
        registry = get_registry()
        self._obs_enabled = registry.enabled
        self._obs_issued = registry.counter("session.ops_issued")
        self._obs_settled = registry.counter("session.ops_settled")
        self._obs_flushes = registry.counter("session.flushes")
        self._obs_batch_size = registry.histogram(
            "session.flush_batch_ops", COUNT_BUCKETS
        )
        self._obs_latency = registry.histogram("session.op_latency")
        self._span_log = system.span_log
        if hasattr(self._client, "add_failure_listener"):
            self._client.add_failure_listener(self._on_client_failure)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def client(self):
        """The protocol-layer client object this session drives."""
        return self._client

    @property
    def client_id(self) -> int:
        """The bound client's id."""
        return self._client_id

    @property
    def system(self):
        """The deployment this session operates against."""
        return self._system

    @property
    def timeout(self) -> float:
        """Default time budget (virtual time units) for blocking calls."""
        return self._timeout

    @property
    def failed(self) -> bool:
        """Has this client output ``fail`` (at any protocol layer)?"""
        return self._client.failed

    @property
    def outstanding(self) -> int:
        """Operations issued through this session and not yet settled."""
        return len(self._unsettled)

    @property
    def buffered(self) -> int:
        """Operations batched but not yet handed to the protocol layer."""
        return len(self._batch_buffer)

    @property
    def batching(self):
        """The session's :class:`~repro.api.config.BatchingPolicy`
        (``None`` when the deployment runs unbatched)."""
        return self._batching

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #

    def write(self, value: Value) -> OpHandle:
        """Write the client's own register; the handle's result carries
        the operation timestamp ``t``."""
        return self._submit(OpKind.WRITE, self._client_id, value)

    def read(self, register: RegisterId) -> OpHandle:
        """Read any register; the handle's result carries ``(value, t)``."""
        return self._submit(OpKind.READ, register, None)

    def write_sync(self, value: Value, timeout: float | None = None) -> int:
        """Blocking write; returns the timestamp ``t``."""
        return self.write(value).result(timeout).timestamp

    def read_sync(
        self, register: RegisterId, timeout: float | None = None
    ) -> tuple[Value | Bottom, int]:
        """Blocking read; returns ``(value, timestamp)``."""
        result = self.read(register).result(timeout)
        return result.value, result.timestamp

    def flush(self) -> None:
        """Hand every buffered operation to the protocol layer now.

        A no-op on unbatched sessions (nothing ever buffers).  The flush
        preserves submission order; clients that pipeline receive the
        whole batch at once, one-at-a-time clients are fed from the
        session backlog as before.
        """
        self._cancel_flush_timer()
        if self._batch_buffer:
            self._obs_flushes.inc()
            self._obs_batch_size.observe(len(self._batch_buffer))
        while self._batch_buffer:
            kind, register, value, handle = self._batch_buffer.popleft()
            try:
                self._dispatch(kind, register, value, handle)
            except ProtocolError as exc:
                # The client died while the batch was parked; fail this
                # handle and keep draining so nothing waits forever.
                try:
                    self._unsettled.remove(handle)
                except ValueError:
                    pass
                handle._reject(OperationFailed(str(exc)))

    def barrier(self, timeout: float | None = None) -> None:
        """Drive the simulation until every issued handle has settled.

        On a batching session the buffer is flushed first: the barrier is
        the batching policy's ordering point.

        Raises the first failure among the operations waited on, or
        :class:`OperationTimeout` if some are still pending after the
        time budget.
        """
        self.flush()
        waited = self._issued_unsettled()
        self._drive(self._all_issued_settled, timeout, flush=False)
        self._reject_if_dead()
        still_pending = [h for h in waited if not h.done()]
        if still_pending:
            raise OperationTimeout(
                f"barrier: {len(still_pending)} operation(s) still in flight "
                f"after {self._limit(timeout)} time units (a Byzantine server "
                f"may be withholding the REPLY)"
            )
        for handle in waited:
            if handle._exception is not None:
                raise handle._exception

    # ------------------------------------------------------------------ #
    # Fail-aware surface
    # ------------------------------------------------------------------ #

    @property
    def stability_cut(self) -> tuple[int, ...]:
        """The latest ``W`` vector (all zeros before any notification)."""
        return self._tracker().stability_cut()

    def wait_for_stability(self, timestamp: int, timeout: float | None = None) -> bool:
        """Block until the operation with ``timestamp`` is stable w.r.t.
        every client (or failure / timeout).  Returns True on stability."""
        tracker = self._tracker()
        if self._batch_buffer:
            # A blocking wait issues what it waits on: the awaited write
            # may still be parked in the batch buffer.
            self.flush()

        def reached() -> bool:
            return self.failed or tracker.stable_timestamp_for_all() >= timestamp

        self._system.run_until(reached, timeout=self._limit(timeout))
        return not self.failed and tracker.stable_timestamp_for_all() >= timestamp

    def _tracker(self):
        tracker = getattr(self._client, "tracker", None)
        if tracker is None:
            raise CapabilityError(
                f"the {type(self._client).__name__} backend does not provide "
                f"stability notifications"
            )
        return tracker

    # ------------------------------------------------------------------ #
    # Submission plumbing
    # ------------------------------------------------------------------ #

    def _submit(self, kind: OpKind, register: RegisterId, value) -> OpHandle:
        self._raise_if_dead()
        handle = OpHandle(self, kind, register)
        self._obs_issued.inc()
        if self._obs_enabled or self._span_log is not None:
            handle._obs_issued_at = self._system.scheduler.now
        self._unsettled.append(handle)
        policy = self._batching
        if policy is None:
            self._dispatch(kind, register, value, handle)
            return handle
        # Batched: park the operation; flush on size, timer, or barrier.
        self._batch_buffer.append((kind, register, value, handle))
        if len(self._batch_buffer) >= policy.max_batch:
            self.flush()
        elif policy.max_delay is not None and self._flush_timer is None:
            self._flush_timer = self._system.scheduler.schedule(
                policy.max_delay, self._timer_flush
            )
        return handle

    def _dispatch(self, kind: OpKind, register: RegisterId, value, handle) -> None:
        """Hand one operation to the protocol layer (or the backlog)."""
        if getattr(self._client, "pipelines_operations", False):
            # The protocol layer queues internally; hand everything over.
            self._issue(kind, register, value, handle)
        elif self._inflight is None:
            self._inflight = handle
            self._issue(kind, register, value, handle)
        else:
            self._backlog.append((kind, register, value, handle))

    def _issued_unsettled(self) -> list[OpHandle]:
        """Unsettled handles that have been issued (parked ones excluded).

        Shared by this session's :meth:`barrier` and the cluster barrier,
        so the parked-handle exclusion logic lives in exactly one place.
        """
        if not self._batch_buffer:
            return list(self._unsettled)
        parked = {id(entry[3]) for entry in self._batch_buffer}
        return [h for h in self._unsettled if id(h) not in parked]

    def _all_issued_settled(self) -> bool:
        """Every issued handle settled — O(1) when nothing is parked (the
        common case: the barrier just flushed)."""
        if not self._batch_buffer:
            return not self._unsettled
        parked = {id(entry[3]) for entry in self._batch_buffer}
        return all(
            h.done() for h in self._unsettled if id(h) not in parked
        )

    def _timer_flush(self) -> None:
        self._flush_timer = None
        self.flush()

    def _cancel_flush_timer(self) -> None:
        if self._flush_timer is not None:
            self._flush_timer.cancel()
            self._flush_timer = None

    def _issue(self, kind: OpKind, register, value, handle: OpHandle) -> None:
        def completed(outcome, _handle=handle) -> None:
            self._settle(_handle, outcome)

        if kind is OpKind.WRITE:
            self._client.write(value, completed)
        else:
            self._client.read(register, completed)

    def _settle(self, handle: OpHandle, outcome) -> None:
        if self._unsettled and self._unsettled[0] is handle:
            self._unsettled.popleft()  # settle order == submission order
        else:  # pragma: no cover - defensive: out-of-order settle
            try:
                self._unsettled.remove(handle)
            except ValueError:
                pass
        self._obs_settled.inc()
        issued_at = getattr(handle, "_obs_issued_at", None)
        if issued_at is not None:
            now = self._system.scheduler.now
            self._obs_latency.observe(now - issued_at)
            if self._span_log is not None:
                self._span_log.span(
                    f"op:{handle.kind.name.lower()}",
                    ts=issued_at,
                    dur=now - issued_at,
                    trace_id=make_trace_id(self._client_id, outcome.timestamp),
                    proc="client",
                    args={
                        "client": self._client_id,
                        "register": handle.register,
                    },
                )
        handle._resolve(
            OpResult(
                kind=handle.kind,
                register=handle.register,
                value=outcome.value,
                timestamp=outcome.timestamp,
                raw=outcome,
            )
        )
        if self._inflight is handle:
            self._inflight = None
            self._pump_backlog()

    def _pump_backlog(self) -> None:
        while self._inflight is None and self._backlog:
            kind, register, value, handle = self._backlog.popleft()
            self._inflight = handle
            try:
                self._issue(kind, register, value, handle)
            except ProtocolError as exc:
                # The client died between operations; fail this handle and
                # keep draining so nothing waits forever.
                self._inflight = None
                try:
                    self._unsettled.remove(handle)
                except ValueError:
                    pass
                handle._reject(OperationFailed(str(exc)))

    # ------------------------------------------------------------------ #
    # Failure handling
    # ------------------------------------------------------------------ #

    def _on_client_failure(self, reason: str) -> None:
        self._fail_all(OperationFailed(f"{self._client.name} failed: {reason}"))

    def _fail_all(self, exception: OperationFailed) -> None:
        self._inflight = None
        self._backlog.clear()
        self._cancel_flush_timer()
        self._batch_buffer.clear()
        unsettled, self._unsettled = self._unsettled, deque()
        for handle in unsettled:
            handle._reject(exception)

    def _raise_if_dead(self) -> None:
        client = self._client
        if client.halted:
            raise ProtocolError(
                f"{client.name} has failed and halted"
                if client.failed
                else f"{client.name} has crashed"
            )

    def _reject_if_dead(self, handle: OpHandle | None = None) -> None:
        client = self._client
        if client.halted:
            self._fail_all(
                OperationFailed(
                    f"{client.name} failed: {client.halt_reason}"
                    if client.failed
                    else f"{client.name} crashed mid-operation"
                )
            )

    # ------------------------------------------------------------------ #
    # Driving the shared world
    # ------------------------------------------------------------------ #

    def _limit(self, timeout: float | None) -> float:
        return self._timeout if timeout is None else timeout

    def _drive(
        self,
        predicate: Callable[[], bool],
        timeout: float | None,
        flush: bool = True,
    ) -> None:
        if flush and self._batch_buffer:
            # A blocking wait cannot complete while its operation is still
            # parked in the batch buffer: issue everything first.
            self.flush()
        client = self._client
        self._system.run_until(
            lambda: predicate() or client.halted,
            timeout=self._limit(timeout),
        )

