"""Errors raised by the unified storage API.

:class:`OperationFailed` is the application-facing face of a ``fail_i``
notification or client crash: the operation cannot complete because the
client has halted.  :class:`OperationTimeout` specialises it for the case
where nothing failed *yet* but the operation did not complete within the
caller's time budget — under an untrusted provider the two are genuinely
indistinguishable (a crashed server looks exactly like a slow one), so
the timeout error deliberately remains a :class:`SimulationError` too for
callers that treat "simulation did not converge" uniformly.
"""

from __future__ import annotations

from repro.common.errors import ProtocolError, SimulationError


class CapabilityError(ProtocolError):
    """A guarantee was requested that the chosen backend does not provide
    (e.g. stability cuts from the ``ustor`` backend)."""


class OperationFailed(ProtocolError):
    """The operation did not complete (client failed, crashed, or timed out)."""


class OperationTimeout(OperationFailed, SimulationError):
    """The operation did not complete within the caller's time budget.

    Carries the pending operation's kind and register so the caller knows
    exactly what was in flight when the budget ran out.
    """
