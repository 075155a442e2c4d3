"""The naive baseline: an unchecked remote store (no signatures, no checks).

This is what using an untrusted provider *without* the paper's machinery
looks like: a plain key-value server the clients believe blindly.  A
Byzantine server can return arbitrary values, serve stale data, or fork
clients — and nothing ever notices.  The adversarial experiments run the
same attacks against this baseline and against USTOR/FAUST to demonstrate
the detection gap (E7/E8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.errors import ProtocolError
from repro.common.types import (
    BOTTOM,
    Bottom,
    ClientId,
    OpKind,
    RegisterId,
    Value,
    client_name,
)
from repro.history.recorder import HistoryRecorder
from repro.sim.process import Node
from repro.ustor.messages import INT_BYTES, MARKER_BYTES


@dataclass(frozen=True)
class PlainRequest:
    client: ClientId
    op: OpKind
    register: RegisterId
    value: Value | None = None

    kind = "PLAIN-REQ"

    def wire_size(self) -> int:
        value = len(self.value) if self.value is not None else MARKER_BYTES
        return MARKER_BYTES + 2 * INT_BYTES + value


@dataclass(frozen=True)
class PlainResponse:
    op: OpKind
    register: RegisterId
    value: Value | Bottom | None

    kind = "PLAIN-RESP"

    def wire_size(self) -> int:
        if self.value is None or self.value is BOTTOM:
            return MARKER_BYTES + INT_BYTES + MARKER_BYTES
        return MARKER_BYTES + INT_BYTES + len(self.value)


@dataclass(frozen=True)
class PlainOutcome:
    kind: OpKind
    register: RegisterId
    value: Value | Bottom | None
    timestamp: int


class UncheckedClient(Node):
    """Trusts every byte the server sends."""

    def __init__(
        self,
        client_id: ClientId,
        num_clients: int,
        server_name: str = "S",
        recorder: HistoryRecorder | None = None,
    ) -> None:
        super().__init__(name=client_name(client_id))
        self._id = client_id
        self._n = num_clients
        self._server = server_name
        self._recorder = recorder
        self._t = 0
        self._pending: tuple[OpKind, RegisterId, Value | None, int | None, Callable] | None = None
        self.completed_operations = 0
        self.failed = False  # present for interface parity; never set

    @property
    def busy(self) -> bool:
        return self._pending is not None

    @property
    def halted(self) -> bool:
        """Has this client stopped taking steps?  Only by crashing: it
        checks nothing, so it never outputs ``fail``."""
        return self._crashed

    @property
    def halt_reason(self) -> str | None:
        """``"crashed"`` once :attr:`halted`, else ``None``."""
        return "crashed" if self._crashed else None

    def write(self, value: Value, callback=None) -> None:
        if not isinstance(value, bytes):
            raise ProtocolError("register values are bytes")
        self._invoke(OpKind.WRITE, self._id, value, callback)

    def read(self, register: RegisterId, callback=None) -> None:
        self._invoke(OpKind.READ, register, None, callback)

    def _invoke(self, kind, register, value, callback) -> None:
        if self._crashed:
            raise ProtocolError(f"{self.name} has crashed")
        if self._pending is not None:
            raise ProtocolError(f"{self.name} already has an operation in flight")
        self._t += 1
        op_id = None
        if self._recorder is not None:
            op_id = self._recorder.begin(
                client=self._id,
                kind=kind,
                register=register,
                invoked_at=self.now,
                value=value,
                timestamp=self._t,
            )
        self._pending = (kind, register, value, op_id, callback)
        self.send(
            self._server,
            PlainRequest(client=self._id, op=kind, register=register, value=value),
        )

    def on_message(self, src: str, message) -> None:
        if not isinstance(message, PlainResponse) or self._pending is None:
            return
        kind, register, value, op_id, callback = self._pending
        self._pending = None
        self.completed_operations += 1
        returned = value if kind is OpKind.WRITE else message.value
        if self._recorder is not None and op_id is not None:
            self._recorder.end(op_id, responded_at=self.now, value=returned, timestamp=self._t)
        if callback is not None:
            callback(
                PlainOutcome(kind=kind, register=register, value=returned, timestamp=self._t)
            )


class UncheckedServer(Node):
    """An honest plain store (subclass to attack it)."""

    def __init__(self, num_clients: int, name: str = "S") -> None:
        super().__init__(name=name)
        self._n = num_clients
        self.values: list[Value | Bottom] = [BOTTOM] * num_clients

    def on_message(self, src: str, message) -> None:
        if not isinstance(message, PlainRequest):
            return
        if message.op is OpKind.WRITE and message.value is not None:
            self.values[message.client] = message.value
            self.send(src, PlainResponse(op=message.op, register=message.register, value=None))
        else:
            self.send(
                src,
                PlainResponse(
                    op=message.op,
                    register=message.register,
                    value=self.values[message.register],
                ),
            )


class LyingUncheckedServer(UncheckedServer):
    """Returns fabricated values for reads of ``target_register`` —
    and, the point of the baseline, gets away with it."""

    def __init__(self, num_clients: int, target_register: RegisterId, name: str = "S"):
        super().__init__(num_clients, name)
        self._target = target_register
        self.lies_told = 0

    def on_message(self, src: str, message) -> None:
        if (
            isinstance(message, PlainRequest)
            and message.op is OpKind.READ
            and message.register == self._target
        ):
            self.lies_told += 1
            self.send(
                src,
                PlainResponse(
                    op=message.op,
                    register=message.register,
                    value=b"FABRICATED|%d" % self.lies_told,
                ),
            )
            return
        super().on_message(src, message)


def unchecked_protocol():
    """The unchecked protocol for the one wiring loop: clients that
    neither sign nor verify, :class:`UncheckedServer` by default."""
    from repro.workloads.runner import ProtocolSpec

    return ProtocolSpec(
        UncheckedClient,
        server_factory=lambda n, name: UncheckedServer(n, name=name),
        signs=False,
        ustor_stack=False,
    )
