"""Shared primitive types used across the FAUST reproduction.

The paper (Section 2) fixes the functionality ``F`` as ``n`` single-writer
multi-reader (SWMR) registers ``X_1 .. X_n`` over a value domain ``X`` with a
distinguished initial value ``BOTTOM`` that is *not* in ``X``.  Client and
register identifiers are 1-based in the paper; we keep 0-based indices
internally and render 1-based names (``C1``, ``X1``) only in human-readable
output, mirroring how the paper's ``C_i`` writes register ``X_i``.
"""

from __future__ import annotations

import enum
from functools import cache
from typing import Final

# Identifier of a client process; also the index of the one register the
# client may write (C_i writes X_i).  0-based.
ClientId = int

# Index of a register, 0-based.  RegisterId == ClientId of its writer.
RegisterId = int

# Register values. The paper assumes uniquely-valued writes from an abstract
# domain; we use bytes so values can be hashed and signed directly.
Value = bytes


class Bottom:
    """The initial register value ``BOTTOM``, outside the value domain.

    A singleton: ``Bottom()`` always returns the same object, so identity and
    equality checks agree everywhere (including after pickling dataclasses
    that embed it in recorded histories).
    """

    _instance: "Bottom | None" = None

    def __new__(cls) -> "Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "BOTTOM"

    def __reduce__(self):
        return (Bottom, ())


#: The initial value held by every register (paper: the special value
#: outside the domain X).
BOTTOM: Final[Bottom] = Bottom()


class OpKind(enum.Enum):
    """The two operation kinds of the register functionality.

    The paper's invocation tuples carry an opcode from
    ``{READ, WRITE, BOTTOM}``; we never materialise the BOTTOM opcode because
    it only pads the type in the pseudocode.
    """

    READ = "READ"
    WRITE = "WRITE"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@cache
def client_name(client: ClientId) -> str:
    """Render a 0-based client id the way the paper writes it (``C1`` ..).

    One string per client id, shared by every caller: node names, routes
    and the trace records that name the client all hold the same object.
    The cache holds one entry per id a process ever named.
    """
    return f"C{client + 1}"


def register_name(register: RegisterId) -> str:
    """Render a 0-based register id the way the paper writes it (``X1`` ..)."""
    return f"X{register + 1}"


def parse_client_name(name: str) -> ClientId | None:
    """Inverse of :func:`client_name`; ``None`` if the name is not a client's."""
    if name.startswith("C") and name[1:].isdigit():
        index = int(name[1:]) - 1
        if index >= 0:
            return index
    return None
