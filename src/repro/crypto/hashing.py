"""Collision-resistant hashing (the paper's function ``H``).

The paper assumes a collision-resistant hash ``H`` known to all parties and
uses it in two places: hashing register values before DATA-signing them
(Algorithm 1, line 13) and chaining operation digests
``D(omega_1..omega_m) = H(D(omega_1..omega_{m-1}) || i_m)`` (Section 5).

We instantiate ``H`` with SHA-256 over the canonical encoding of
:mod:`repro.common.encoding`, with a domain-separation label so that value
hashes and digest-chain hashes can never collide structurally.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.common.encoding import encode, encoded_length
from repro.common.types import BOTTOM, DIGEST_FORM_MIN_BYTES, Bottom, Value, ValueDigest

#: Size of a hash output in bytes; also used by the wire-size model.
HASH_BYTES = 32

#: The single point instantiating ``H``.  Every fast path that pre-seeds
#: an incremental hash state (here and in :mod:`repro.ustor.digests`)
#: must construct it through this name, so swapping the hash function
#: can never desynchronise the fast paths from the reference paths.
HASH = hashlib.sha256


def hash_bytes(payload: bytes) -> bytes:
    """Raw ``H`` (SHA-256) of a byte string."""
    return HASH(payload).digest()


def hash_values(*values: Any) -> bytes:
    """Hash a structured payload via the canonical encoding."""
    return hash_bytes(encode(*values))


#: ``H(BOTTOM)`` is needed at every client bootstrap and on every read of
#: a never-written register; it is a constant, computed once at import.
_BOTTOM_HASH = hash_values("VALUE", None)

# The canonical encoding of ("VALUE", x) for bytes x is a constant prefix
# (sequence header + label + bytes tag) followed by len(x) and x; hashing
# from a pre-seeded state skips re-encoding the prefix per value.
_VALUE_PREFIX = encode("VALUE", b"")[: -len(encoded_length(0))]
_VALUE_STATE = HASH(_VALUE_PREFIX)


def hash_register_value(value: Value | Bottom) -> bytes:
    """Hash a register value for DATA signatures (Algorithm 1, line 13).

    ``BOTTOM`` (the initial value, never actually written) hashes to a
    distinguished constant so that ``checkData`` can verify reads of
    never-written registers uniformly.  Byte-identical to
    ``hash_values("VALUE", value)`` (the incremental-prefix fast path is
    covered by the equivalence tests).
    """
    if value is BOTTOM:
        return _BOTTOM_HASH
    if isinstance(value, bytes):
        state = _VALUE_STATE.copy()
        state.update(encoded_length(len(value)))
        state.update(value)
        return state.digest()
    return hash_values("VALUE", value)


def digest_form(
    value: Value | Bottom | ValueDigest | None, value_hash: bytes | None = None
) -> Value | Bottom | ValueDigest | None:
    """``ValueDigest(H(x))`` for a value ``x`` of at least
    :data:`DIGEST_FORM_MIN_BYTES`; anything else as it is.  ``value_hash``
    is ``H(x)`` when the caller already has it; otherwise ``x`` is hashed."""
    if type(value) is not bytes or len(value) < DIGEST_FORM_MIN_BYTES:
        return value
    if value_hash is None:
        value_hash = hash_register_value(value)
    return ValueDigest(value_hash)
