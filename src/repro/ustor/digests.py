"""Operation-sequence digests (Section 5).

The protocol represents a client's expectation of another client's view
history compactly as a hash chain over the *indices of the executing
clients*:

    D(omega_1 .. omega_m) = BOTTOM                         if m = 0
    D(omega_1 .. omega_m) = H(D(omega_1 .. omega_{m-1}) || i_m)  otherwise

Collision resistance of ``H`` makes the digest a unique representation of
the sequence: no two distinct sequences occurring in an execution share a
digest.  ``BOTTOM`` is represented as ``None``.

Fast path vs. reference
-----------------------

Digest-chain extension is the protocol's per-operation hashing hot spot:
``updateVersion`` (Algorithm 1, lines 44-47) extends the chain once per
concurrent operation, and every client folding the *same* REPLY pending
list recomputes the *same* extensions.  :func:`extend_digest` therefore
applies two optimizations, both proven byte-identical to the
specification (:func:`extend_digest_reference`) by
``tests/test_perf_equivalence.py``:

* **Incremental hashing** — the canonical encoding of
  ``("DIGEST", d, i)`` starts with a constant prefix (the sequence header
  and the ``"DIGEST"`` label), so a pre-seeded SHA-256 state is copied
  and only the variable suffix is fed in, skipping the full TLV encode +
  one-shot hash of the reference path.
* **Chain-prefix memoization** — a bounded cache keyed by
  ``(digest, client)`` returns previously computed links outright.  In a
  run with ``n`` clients each link is needed up to ``n`` times (once per
  client that observes it), so the protocol-shaped hit rate approaches
  ``(n-1)/n``.

``benchmarks/test_bench_perf.py`` measures the resulting speedup and
asserts a floor on it (PERFORMANCE.md).
"""

from __future__ import annotations

from typing import Iterable

from repro.common.encoding import encode, encoded_int, encoded_length
from repro.common.types import ClientId
from repro.crypto.hashing import HASH, hash_values

#: The digest of the empty sequence (the paper's BOTTOM).
EMPTY_DIGEST = None

# The canonical encoding of ("DIGEST", d, i) is
#   SEQ || len=3 || STR("DIGEST") || <encoding of d> || <encoding of i>
# and the part before <encoding of d> is constant.  _BASE_STATE is a
# SHA-256 state pre-fed with that constant prefix; extend_digest copies it
# (cheap) instead of re-hashing the prefix every time.
_CHAIN_PREFIX = encode("DIGEST", None, 0)[: -(1 + len(encoded_int(0)))]
_BASE_STATE = HASH(_CHAIN_PREFIX)
#: ``TAG_BYTES || len=32`` — the header of a 32-byte digest payload.
_BYTES32_HEADER = b"\x03" + encoded_length(32)

#: Bounded memo of chain links: (digest, client) -> extended digest.
_CHAIN_MEMO: dict[tuple[bytes | None, ClientId], bytes] = {}
_CHAIN_MEMO_LIMIT = 1 << 16
_stats = {"hits": 0, "misses": 0}


def chain_cache_stats() -> dict[str, int]:
    """Hit/miss counters of the chain-link memo (for profiling)."""
    return dict(_stats)


def reset_chain_cache() -> None:
    """Drop memoized chain links and zero the counters (test isolation)."""
    _CHAIN_MEMO.clear()
    _stats["hits"] = 0
    _stats["misses"] = 0


def extend_digest(digest: bytes | None, client: ClientId) -> bytes:
    """``H(d || i)`` — append one operation by ``client`` to the chain.

    Byte-identical to :func:`extend_digest_reference`; see the module
    docstring for the memoization and incremental-hashing scheme.
    """
    key = (digest, client)
    memo = _CHAIN_MEMO.get(key)
    if memo is not None:
        _stats["hits"] += 1
        return memo
    _stats["misses"] += 1
    out = chain_link(digest, client)
    if len(_CHAIN_MEMO) >= _CHAIN_MEMO_LIMIT:  # pragma: no cover - bound guard
        _CHAIN_MEMO.clear()
    _CHAIN_MEMO[key] = out
    return out


def chain_link(digest: bytes | None, client: ClientId) -> bytes:
    """:func:`extend_digest` without the memo: the incremental hash alone.

    The server folds every REPLY it sends (``ServerState.expected``); added
    to the memo, those links grew a server process's memo by each of them,
    which cost more over TCP than its hits saved (PERFORMANCE.md, "The
    COMMIT carries what the server cannot compute").
    """
    state = _BASE_STATE.copy()
    if digest is None:
        state.update(b"\x00")
    elif len(digest) == 32:
        state.update(_BYTES32_HEADER)
        state.update(digest)
    else:
        state.update(b"\x03" + encoded_length(len(digest)) + bytes(digest))
    state.update(encoded_int(client))
    return state.digest()


def extend_digest_reference(digest: bytes | None, client: ClientId) -> bytes:
    """Reference chain link: specification for :func:`extend_digest`."""
    return hash_values("DIGEST", digest, client)


def digest_of_sequence(clients: Iterable[ClientId]) -> bytes | None:
    """``D(omega_1 .. omega_m)`` for a whole sequence of executing clients."""
    digest: bytes | None = EMPTY_DIGEST
    for client in clients:
        digest = extend_digest(digest, client)
    return digest
