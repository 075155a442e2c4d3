"""Future-style handles for storage operations.

Protocol clients complete operations through callbacks; the unified API
wraps each submission in an :class:`OpHandle` that can be polled
(``done()``), waited on (``result(timeout)`` drives the shared simulation
until the operation settles), or chained (``add_done_callback``).

Inside the discrete-event simulation "waiting" means advancing the whole
world, so ``result()`` on one handle may complete other clients' timers,
probes and operations too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.api.errors import OperationFailed, OperationTimeout
from repro.common.types import (
    Bottom,
    OpKind,
    RegisterId,
    Value,
    client_name,
    register_name,
)


@dataclass(frozen=True)
class OpResult:
    """Backend-normalised outcome of one completed operation.

    ``timestamp`` is the issuing client's operation timestamp ``t``
    (Definition 5, Integrity: monotone per client); ``raw`` carries the
    backend-specific outcome (``OpOutcome``, ``LsOutcome``, ...) for
    callers that need protocol detail such as versions.
    """

    kind: OpKind
    register: RegisterId
    value: Value | Bottom | None
    timestamp: int
    raw: Any


class OpHandle:
    """A pending (or completed) storage operation."""

    def __init__(self, session, kind: OpKind, register: RegisterId) -> None:
        self._session = session
        self.kind = kind
        self.register = register
        self._result: OpResult | None = None
        self._exception: BaseException | None = None
        self._settled = False
        self._done_callbacks: list[Callable[["OpHandle"], None]] = []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "pending"
            if not self._settled
            else ("failed" if self._exception is not None else "done")
        )
        return (
            f"<OpHandle {self.kind} {register_name(self.register)} "
            f"by {client_name(self._session.client_id)}: {state}>"
        )

    # -- settling (called by the session) ------------------------------- #

    def _resolve(self, result: OpResult) -> None:
        if self._settled:
            return
        self._result = result
        self._settled = True
        self._fire_callbacks()

    def _reject(self, exception: BaseException) -> None:
        if self._settled:
            return
        self._exception = exception
        self._settled = True
        self._fire_callbacks()

    def _fire_callbacks(self) -> None:
        callbacks, self._done_callbacks = self._done_callbacks, []
        for callback in callbacks:
            callback(self)

    # -- the future interface ------------------------------------------- #

    def done(self) -> bool:
        """Has the operation settled (completed or failed)?"""
        return self._settled

    def add_done_callback(self, callback: Callable[["OpHandle"], None]) -> None:
        """Invoke ``callback(handle)`` once settled (immediately if already)."""
        if self._settled:
            callback(self)
        else:
            self._done_callbacks.append(callback)

    def wait(self, timeout: float | None = None) -> bool:
        """Drive the simulation until the handle settles; True on settled."""
        self._session._drive(lambda: self._settled, timeout)
        if not self._settled:
            # The client may have died without a failure listener firing.
            self._session._reject_if_dead(self)
        return self._settled

    def result(self, timeout: float | None = None) -> OpResult:
        """The operation's outcome, driving the simulation as needed.

        Raises :class:`OperationFailed` if the client failed or crashed,
        and :class:`OperationTimeout` if the operation is still pending
        after ``timeout`` (default: the session's timeout) time units.
        """
        if not self.wait(timeout):
            raise self._timeout_error(timeout)
        if self._exception is not None:
            raise self._exception
        assert self._result is not None
        return self._result

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """The failure the operation settled with, or None on success."""
        if not self.wait(timeout):
            raise self._timeout_error(timeout)
        return self._exception

    def _timeout_error(self, timeout: float | None) -> OperationTimeout:
        limit = self._session._limit(timeout)
        return OperationTimeout(
            f"{str(self.kind).lower()} of {register_name(self.register)} by "
            f"{client_name(self._session.client_id)} did not complete within "
            f"{limit} time units (a Byzantine server may be withholding the "
            f"REPLY)"
        )
