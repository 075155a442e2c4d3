"""Operations as invocation/response event pairs (Section 2 of the paper).

The paper represents an operation by two events at a client.  We collapse
the pair into one :class:`Operation` record carrying both times, which is
equivalent for well-formed executions (each client alternates invocations
and responses) and far more convenient for checkers.  ``responded_at is
None`` encodes an incomplete operation — an invocation whose response never
occurred, e.g. because the client crashed mid-operation or a Byzantine
server never replied.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.common.errors import HistoryError
from repro.common.types import (
    BOTTOM,
    Bottom,
    ClientId,
    OpKind,
    RegisterId,
    Value,
    ValueDigest,
    client_name,
    register_name,
)


@dataclass(frozen=True, slots=True)
class Operation:
    """One read or write operation on the SWMR register functionality.

    ``value`` is the written value for a WRITE and the *returned* value for
    a READ (``BOTTOM`` when the register was never written).  A recorded
    value of :data:`~repro.common.types.DIGEST_FORM_MIN_BYTES` or more is
    its :class:`~repro.common.types.ValueDigest` ``H(x)``: under unique
    writes it names the value as well as the bytes do.  For an
    incomplete READ the return value is unknown and ``value`` is ``None``.
    ``timestamp`` carries the FAUST timestamp when the operation ran under
    the fail-aware layer (Definition 5 extends responses with it).
    """

    op_id: int
    client: ClientId
    kind: OpKind
    register: RegisterId
    value: Value | Bottom | ValueDigest | None
    invoked_at: float
    responded_at: float | None
    timestamp: int | None = None

    def __post_init__(self) -> None:
        if self.kind is OpKind.WRITE and self.client != self.register:
            raise HistoryError(
                f"{client_name(self.client)} may only write its own register, "
                f"not {register_name(self.register)} (SWMR)"
            )
        if self.responded_at is not None and self.responded_at < self.invoked_at:
            raise HistoryError(
                f"operation {self.op_id} responds before it is invoked"
            )
        if self.kind is OpKind.WRITE and self.value is None:
            raise HistoryError(f"write operation {self.op_id} must carry a value")

    @property
    def complete(self) -> bool:
        return self.responded_at is not None

    @property
    def is_read(self) -> bool:
        return self.kind is OpKind.READ

    @property
    def is_write(self) -> bool:
        return self.kind is OpKind.WRITE

    def precedes(self, other: "Operation") -> bool:
        """Real-time order ``o <_sigma o'``: o completes before o' is invoked."""
        if self.responded_at is None:
            return False
        return self.responded_at < other.invoked_at

    def concurrent_with(self, other: "Operation") -> bool:
        return not self.precedes(other) and not other.precedes(self)

    def completed_copy(self, responded_at: float, value: Any = None) -> "Operation":
        """A completed version of an incomplete operation (Definition 1's
        "extended by appending responses")."""
        if self.complete:
            return self
        new_value = self.value if self.is_write else value
        return replace(self, responded_at=responded_at, value=new_value)

    def describe(self) -> str:
        """Human-readable rendering in the paper's notation."""
        who = client_name(self.client)
        reg = register_name(self.register)
        if self.is_write:
            return f"write_{who}({reg}, {_show_value(self.value)})"
        shown = "?" if self.value is None else _show_value(self.value)
        return f"read_{who}({reg}) -> {shown}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()


def _show_value(value: Value | Bottom | ValueDigest | None) -> str:
    if value is BOTTOM:
        return "BOTTOM"
    if value is None:
        return "?"
    if isinstance(value, bytes):
        try:
            text = value.decode("utf-8")
        except UnicodeDecodeError:
            return value.hex()[:16]
        return repr(text)
    return repr(value)
