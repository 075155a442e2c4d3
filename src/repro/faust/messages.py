"""FAUST's offline client-to-client messages (Section 6, Figure 4).

Three message types travel over the offline channel:

* PROBE — "I have not heard a fresh version from you in more than DELTA
  time units; what is the maximal version you know?"
* VERSION — the reply (also sent spontaneously): the sender's maximal
  known version ``VER_j[max_j]``.  Note the paper's remark: this version
  was not necessarily *committed* by the sender.
* FAILURE — the sender has proof of server misbehaviour; everyone should
  output ``fail`` and stop using the server.

The bounded-state extension (:mod:`repro.faust.checkpoint`) adds two:

* CHECKPOINT-SHARE — a co-signature over a proposed link of the chain
  (sequence number, stable cut, member set, parent digest); one share
  from every member installs the link, whether it folds stable history
  or changes the member set.  Unlike the others it carries an explicit
  signature: an installed fold's certificate is forwarded to the
  *untrusted* server, so its authenticity cannot ride on the channel
  alone.
* REJOIN — a lagging client's way back onto the chain: sent with no
  links it asks a peer for the links after its installed one, and the
  answer carries them (at most the archive, or just the last installed
  link).  An evictee asks at every membership check, and the member it
  asks sponsors a link that adds it back.

The offline channel is authenticated (it connects mutually trusting
clients), so messages without explicit signatures ride on the channel
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.types import ClientId
from repro.crypto.hashing import HASH_BYTES
from repro.crypto.signatures import SIGNATURE_BYTES
from repro.ustor.messages import INT_BYTES, MARKER_BYTES, version_wire_size
from repro.ustor.version import Version


@dataclass(frozen=True)
class ProbeMessage:
    """Request for the recipient's maximal version."""

    sender: ClientId

    kind = "PROBE"

    def wire_size(self) -> int:
        return MARKER_BYTES + INT_BYTES


@dataclass(frozen=True)
class VersionMessage:
    """The sender's maximal known version ``VER_j[max_j]``."""

    sender: ClientId
    version: Version

    kind = "VERSION"

    def wire_size(self) -> int:
        return MARKER_BYTES + INT_BYTES + version_wire_size(self.version)


def _members_size(members: tuple[ClientId, ...]) -> int:
    """A member set rides as a bitmask over client ids: one int per 64."""
    return INT_BYTES * (1 + max(members, default=0) // 64)


@dataclass(frozen=True)
class CheckpointShareMessage:
    """One client's co-signature over a proposed link of the chain.

    ``signature`` is the sender's signature over ``("CHECKPOINT", seq,
    cut, members, parent_digest)``; one valid share from every client in
    ``members`` installs the link (see
    :class:`repro.faust.checkpoint.CheckpointManager`).
    """

    sender: ClientId
    seq: int
    cut: tuple[int, ...]
    members: tuple[ClientId, ...]
    parent_digest: bytes
    signature: bytes

    kind = "CHECKPOINT-SHARE"

    def wire_size(self) -> int:
        return (
            MARKER_BYTES
            + INT_BYTES  # sender
            + INT_BYTES  # seq
            + INT_BYTES * len(self.cut)
            + _members_size(self.members)
            + HASH_BYTES
            + SIGNATURE_BYTES
        )


@dataclass(frozen=True)
class RejoinMessage:
    """A lagging client's request for the chain's suffix, or the answer.

    ``seq`` is the sender's installed sequence number.  A request carries
    no ``links``; an answer carries the links from the requester's
    ``seq`` on as ``(seq, cut, members, parent_digest)`` (digests are
    recomputed by the receiver, so they are not carried).
    """

    sender: ClientId
    seq: int
    links: tuple[
        tuple[int, tuple[int, ...], tuple[ClientId, ...], bytes], ...
    ] = ()

    kind = "REJOIN"

    def wire_size(self) -> int:
        links = sum(
            INT_BYTES + INT_BYTES * len(cut) + _members_size(members) + HASH_BYTES
            for _seq, cut, members, _parent in self.links
        )
        return MARKER_BYTES + INT_BYTES + INT_BYTES + links


@dataclass(frozen=True)
class FailureMessage:
    """Alert: the server has demonstrably violated its specification."""

    sender: ClientId
    reason: str

    kind = "FAILURE"

    def wire_size(self) -> int:
        return MARKER_BYTES + INT_BYTES + len(self.reason.encode("utf-8"))
