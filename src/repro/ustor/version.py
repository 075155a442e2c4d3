"""Versions ``(V_i, M_i)`` and the order on them (Definition 7).

A version pairs a timestamp vector ``V`` (entry ``k`` counts the
operations of ``C_k`` in the owner's view history) with a digest vector
``M`` (entry ``k`` is the digest of the view-history prefix ending at
``C_k``'s last operation).  The order:

    (V_i, M_i) <= (V_j, M_j)  iff  V_i <= V_j componentwise, and
                                   M_i[k] = M_j[k] wherever V_i[k] = V_j[k]

captures "my view history is a prefix of yours": equal counts for some
client force equal digests of the prefixes up to that client's last
operation.  The order is transitive on versions committed by the protocol
(proved in the full paper; exercised by property tests here), and two
*incomparable* versions are exactly FAUST's proof of server misbehaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.common.errors import ProtocolError
from repro.common.types import ClientId
from repro.ustor.digests import extend_digest


@dataclass(frozen=True)
class Version:
    """An immutable ``(V, M)`` pair."""

    vector: tuple[int, ...]
    digests: tuple[bytes | None, ...]

    def __post_init__(self) -> None:
        if len(self.vector) != len(self.digests):
            raise ProtocolError(
                f"version vector ({len(self.vector)}) and digest vector "
                f"({len(self.digests)}) lengths differ"
            )
        if any(t < 0 for t in self.vector):
            raise ProtocolError("timestamp vector entries must be non-negative")

    @classmethod
    def zero(cls, num_clients: int) -> "Version":
        """``(0^n, BOTTOM^n)`` — the initial version."""
        return cls(vector=(0,) * num_clients, digests=(None,) * num_clients)

    @property
    def num_clients(self) -> int:
        return len(self.vector)

    @property
    def is_zero(self) -> bool:
        return all(t == 0 for t in self.vector)

    def timestamp_of(self, client: ClientId) -> int:
        return self.vector[client]

    # ------------------------------------------------------------------ #
    # Definition 7
    # ------------------------------------------------------------------ #

    def le(self, other: "Version") -> bool:
        """``self`` smaller-or-equal ``other`` per Definition 7."""
        vector, theirs = self.vector, other.vector
        if len(vector) != len(theirs):
            raise ProtocolError("cannot compare versions of different populations")
        for t, u, d, e in zip(vector, theirs, self.digests, other.digests):
            if t > u or (t == u and d != e):
                return False
        return True

    def lt(self, other: "Version") -> bool:
        return self != other and self.le(other)

    def comparable(self, other: "Version") -> bool:
        """Comparability — what FAUST checks on every received version."""
        return self.le(other) or other.le(self)

    def dominates_vector(self, other: "Version") -> bool:
        """``V > V^c`` as the server tests it (Algorithm 2, line 119):
        componentwise >= and not equal."""
        if self.num_clients != other.num_clients:
            raise ProtocolError("cannot compare versions of different populations")
        ge = all(m >= t for m, t in zip(self.vector, other.vector))
        return ge and self.vector != other.vector

    def total_operations(self) -> int:
        """Number of operations in the view history this version describes."""
        return sum(self.vector)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        digests = ",".join(
            "-" if d is None else d.hex()[:6] for d in self.digests
        )
        return f"V={list(self.vector)} M=[{digests}]"


def max_version(*versions: Version) -> Version:
    """The maximum of pairwise-comparable versions.

    Raises :class:`ProtocolError` on incomparable inputs: callers (FAUST)
    must treat incomparability as failure evidence *before* maximising.
    """
    if not versions:
        raise ProtocolError("max_version needs at least one version")
    best = versions[0]
    for candidate in versions[1:]:
        if best.le(candidate):
            best = candidate
        elif candidate.le(best):
            continue
        else:
            raise ProtocolError("incomparable versions have no maximum")
    return best


def fold_version(
    base: Version,
    commit_index: ClientId,
    pending: Iterable,
    own: ClientId,
    check: Callable[[object, list, list], bool] | None = None,
    link: Callable[[bytes | None, ClientId], bytes] | None = None,
) -> Version | None:
    """Lines 37-47 of Algorithm 1: the version an operation of ``own``
    commits, given the REPLY's ``SVER[c]`` version (``base``), ``c``
    (``commit_index``) and ``L`` (``pending``).

    Start from ``(V^c, M^c)`` and the digest ``M^c[c]``; for each entry of
    ``L`` count its operation and extend the digest chain with its client;
    then append ``own``'s operation the same way.  The client runs its
    signature checks (lines 41 and 43) inside the fold: ``check(entry,
    vector, digests)`` sees each entry before it is folded in and returns
    ``False`` to stop, and the fold then returns ``None``.  The server
    folds the REPLY it sent with no check — the same arithmetic, so an
    honest server derives exactly the version its client commits — and
    with ``link=chain_link`` (:func:`~repro.ustor.digests.chain_link`), so
    its links stay out of the chain memo; by default a link is
    :func:`~repro.ustor.digests.extend_digest`, looked up when called.
    """
    if link is None:
        link = extend_digest
    vector = list(base.vector)  # line 37
    digests = list(base.digests)
    digest = digests[commit_index]  # line 38
    for entry in pending:  # lines 39-45
        if check is not None and not check(entry, vector, digests):
            return None
        k = entry.client
        vector[k] += 1  # line 42
        digest = link(digest, k)  # lines 44-45
        digests[k] = digest
    vector[own] += 1  # lines 46-47
    digests[own] = link(digest, own)
    return Version(tuple(vector), tuple(digests))
