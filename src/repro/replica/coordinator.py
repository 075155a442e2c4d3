"""Client-side quorum resolution over a replica group.

Replication strategy (modeled on AWE's metadata quorums, collapsed to
full replication): every SUBMIT and COMMIT a client issues is broadcast
to all ``n`` replicas of its shard, and the REPLYs are resolved
client-side — there is **no** replica-to-replica protocol.  Because the
channels are reliable FIFO and an honest replica is a deterministic
state machine that sends exactly one REPLY per SUBMIT, all honest
replicas fed the same broadcast stream produce *identical* REPLY
streams; replica ``r``'s ``i``-th REPLY necessarily answers the
client's ``i``-th SUBMIT, which is how the coordinator matches REPLYs
into per-operation rounds without any wire-format change.

Resolution per round:

* **write quorum** — ``>= quorum`` equal REPLYs (dataclass ``==`` on
  the decoded messages, not their bytes; each restored first against
  the version the client had committed when it submitted the round —
  a replica sends its versions relative to it — and
  stripped of its counter attestation, which legitimately differs per
  replica, and for a read that asked for ``MEM[j]`` in digest form, with
  ``MEM[j]`` in that form, which a replica may ignore) elect a winner,
  which flows into the unchanged Algorithm 1 checks.
  Deviating minority REPLYs are *masked* — counted, not fatal.
* **read quorum with write-back** — if every live replica answered and
  no value reached quorum (replicas caught mid-propagation or partially
  rolled back), the REPLY carrying the highest register timestamp wins;
  the client's subsequent COMMIT broadcast is the write-back that
  re-converges the group.  The winner still passes the full client-side
  signature/version checks, so a *fabricated* "highest timestamp" is
  detected exactly as on a single server.
* **no quorum on a write** — a write that every live replica answered
  without agreement is a correctness loss the group cannot mask;
  resolution fails and the client raises ``fail_i``.

Counter attestations (:mod:`repro.replica.counter`) are verified per
replica *before* voting; a violator is **convicted** — permanently
excluded from the group and from every future broadcast/quorum — which
is how a rolled-back replica is caught in O(1) operations while the
honest majority keeps serving.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.common.errors import ConfigurationError
from repro.replica.counter import CounterVerifier

#: Resolved rounds remembered for judging stragglers' late REPLYs.
_RESOLVED_WINDOW = 32


def default_quorum(replicas: int) -> int:
    """The paper-style write quorum ``ceil((n + 1) / 2)``: any two quorums
    intersect in at least one replica, so ``floor((n - 1) / 2)`` Byzantine
    replicas are masked."""
    return replicas // 2 + 1


@dataclass
class _Round:
    """One in-flight operation: the votes collected so far."""

    index: int
    is_read: bool
    binding: bytes
    #: The client's committed version when it submitted: what this
    #: round's relative REPLYs are restored against.
    base: object
    #: A read that asked for ``MEM[j]`` in digest form.
    digest_only: bool = False
    #: Normalized (restored, attestation-stripped) REPLY per replica name.
    votes: dict = field(default_factory=dict)


@dataclass(frozen=True)
class _Resolved:
    """A finished round, kept briefly to judge stragglers against."""

    binding: bytes
    base: object
    winner: object | None  # normalized winning REPLY (None: round failed)
    digest_only: bool = False


def _normalized(reply, round_: _Round | _Resolved):
    """``reply`` as the round votes on it: restored against the round's
    base, without its attestation, and — in a digest round — with
    ``MEM[j]`` in digest form, as the replicas that honour the request
    send it (sending the value is no deviation)."""
    reply = reply.restored(round_.base, attested=False)
    mem = reply.mem
    if round_.digest_only and mem is not None:
        digest = mem.digest_form()
        if digest is not mem:
            reply = replace(reply, mem=digest)
    return reply


class QuorumCoordinator:
    """Per-client quorum state over one shard's replica group.

    The owning :class:`~repro.ustor.client.UstorClient` calls
    :meth:`begin_round` when it issues a SUBMIT, routes every incoming
    REPLY through :meth:`absorb`, and broadcasts to :meth:`targets`.
    ``absorb`` returns ``None`` (keep waiting), the winning REPLY (pass
    it to the protocol layer), or a failure-reason string (raise
    ``fail_i``).
    """

    def __init__(
        self,
        replicas: tuple,
        quorum: int | None = None,
        verifier: CounterVerifier | None = None,
        on_convict: Callable[[str, str], None] | None = None,
    ) -> None:
        names = tuple(replicas)
        if len(names) < 2:
            raise ConfigurationError("a replica group needs at least 2 replicas")
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate replica names in {names!r}")
        self._replicas = names
        self._quorum = default_quorum(len(names)) if quorum is None else quorum
        if not 1 <= self._quorum <= len(names):
            raise ConfigurationError(
                f"quorum must be in [1, {len(names)}], got {self._quorum}"
            )
        self._verifier = verifier
        self._on_convict = on_convict
        #: REPLYs seen per replica == the round its next REPLY answers.
        self._replies_seen = {name: 0 for name in names}
        self._rounds_begun = 0
        self._open: _Round | None = None
        self._resolved: OrderedDict[int, _Resolved] = OrderedDict()
        #: Convicted replicas, with the violation that convicted them.
        self.convicted: dict[str, str] = {}
        # -- observability ---------------------------------------------- #
        self.masked_deviations = 0
        self.read_repairs = 0
        self.late_replies = 0
        self.rounds_resolved = 0

    @property
    def quorum(self) -> int:
        """REPLYs that must be equal (dataclass ``==``) to elect a winner."""
        return self._quorum

    @property
    def replicas(self) -> tuple:
        """All replica names, convicted or not."""
        return self._replicas

    def targets(self) -> tuple:
        """Where to broadcast: every not-yet-convicted replica."""
        return tuple(r for r in self._replicas if r not in self.convicted)

    def stats(self) -> dict:
        """Machine-readable resolution counters (for CLI/experiments)."""
        return {
            "rounds_resolved": self.rounds_resolved,
            "masked_deviations": self.masked_deviations,
            "read_repairs": self.read_repairs,
            "late_replies": self.late_replies,
            "convicted": dict(self.convicted),
        }

    # -- the client-facing protocol ------------------------------------- #

    def begin_round(
        self, is_read: bool, binding: bytes, base, digest_only: bool = False
    ) -> None:
        """Open the round for the SUBMIT about to be broadcast.

        ``binding`` is the operation's SUBMIT signature — the value
        counter attestations must be bound to; ``base`` is the client's
        committed :class:`~repro.ustor.messages.SignedVersion`, against
        which the round's relative REPLYs are restored — a straggler's
        too, after the client has committed past it; ``digest_only``
        marks a read that asked for ``MEM[j]`` in digest form.
        """
        if self._open is not None:
            raise ConfigurationError(
                "previous quorum round is still open (operations are "
                "issued one at a time per client)"
            )
        self._open = _Round(
            index=self._rounds_begun,
            is_read=is_read,
            binding=binding,
            base=base,
            digest_only=digest_only,
        )
        self._rounds_begun += 1

    def absorb(self, src: str, reply):
        """Fold one REPLY from replica ``src`` into its round.

        Returns ``None`` while unresolved, the winning (normalized)
        REPLY once this REPLY resolves the open round, or a ``str``
        failure reason when resolution is impossible.
        """
        if src not in self._replies_seen:
            return None  # not a member of this group — not ours to judge
        index = self._replies_seen[src]
        self._replies_seen[src] += 1
        if src in self.convicted:
            return None  # evidence already on file; ignore the convict
        if index >= self._rounds_begun:
            # More REPLYs than SUBMITs we ever broadcast: fabrication.
            return self._convict(src, "unsolicited REPLY (never submitted)")
        round_ = self._round_for(index)
        if round_ is None:
            self.late_replies += 1  # past the window: nothing to judge it by
            return None
        if self._verifier is not None:
            violation = self._verifier.check(src, reply, round_.binding)
            if violation is not None:
                return self._convict(src, violation)
        normalized = _normalized(reply, round_)
        open_round = self._open
        if open_round is not None and index == open_round.index:
            open_round.votes[src] = normalized
            return self._evaluate()
        # A straggler for an already-resolved round: judge it against the
        # recorded winner so slow-but-deviating replicas still show up.
        self.late_replies += 1
        if round_.winner is not None and normalized != round_.winner:
            self.masked_deviations += 1
        return None

    # -- internals ------------------------------------------------------- #

    def _round_for(self, index: int) -> _Round | _Resolved | None:
        """Round ``index``, open or still remembered."""
        if self._open is not None and index == self._open.index:
            return self._open
        return self._resolved.get(index)

    def _convict(self, src: str, violation: str):
        """Permanently exclude ``src``; may resolve or doom the round."""
        self.convicted[src] = violation
        if self._on_convict is not None:
            self._on_convict(src, violation)
        if self._open is not None:
            self._open.votes.pop(src, None)
        if len(self.targets()) < self._quorum:
            if self._open is not None:
                self._finish(None)
            return (
                f"replica {src} convicted ({violation}); "
                f"{len(self.targets())} live replica(s) cannot reach "
                f"quorum {self._quorum}"
            )
        if self._open is not None:
            # One voter fewer may mean "everyone has now answered".
            return self._evaluate()
        return None

    def _evaluate(self):
        """Try to resolve the open round from the votes on hand."""
        open_round = self._open
        targets = self.targets()
        # Group identical normalized REPLYs (list scan: no hash needed).
        groups: list[list] = []
        for vote in open_round.votes.values():
            for group in groups:
                if group[0] == vote:
                    group.append(vote)
                    break
            else:
                groups.append([vote])
        best = max(groups, key=len, default=None)
        if best is not None and len(best) >= self._quorum:
            return self._elect(open_round, best[0])
        if len(open_round.votes) < len(targets):
            return None  # keep waiting for the stragglers
        # Every live replica answered without a quorum.
        if open_round.is_read:
            # Read repair: highest register timestamp wins; the client's
            # COMMIT broadcast that follows is the write-back.
            winner = max(
                open_round.votes.values(),
                key=lambda r: (
                    r.mem.timestamp if r.mem is not None else -1,
                    sum(r.last_version.version.vector) + len(r.pending),
                ),
            )
            self.read_repairs += 1
            return self._elect(open_round, winner)
        self._finish(None)
        return (
            f"write quorum unattainable: {len(groups)} distinct REPLYs "
            f"from {len(targets)} live replica(s), quorum {self._quorum}"
        )

    def _elect(self, open_round: _Round, winner):
        self.masked_deviations += sum(
            1 for vote in open_round.votes.values() if vote != winner
        )
        self._finish(winner)
        return winner

    def _finish(self, winner) -> None:
        open_round = self._open
        self._resolved[open_round.index] = _Resolved(
            binding=open_round.binding,
            base=open_round.base,
            winner=winner,
            digest_only=open_round.digest_only,
        )
        while len(self._resolved) > _RESOLVED_WINDOW:
            self._resolved.popitem(last=False)
        self.rounds_resolved += 1
        self._open = None


def group_stats(protocol_clients) -> dict | None:
    """:meth:`QuorumCoordinator.stats` summed over ``protocol_clients``
    (every client resolves its own rounds), with the group's ``replicas``
    and ``quorum``; ``None`` when no client has a replica group."""
    coordinators = [
        c.quorum_coordinator
        for c in protocol_clients
        if getattr(c, "quorum_coordinator", None) is not None
    ]
    if not coordinators:
        return None
    totals: dict = {
        "replicas": len(coordinators[0].replicas),
        "quorum": coordinators[0].quorum,
        "convicted": {},
    }
    for coordinator in coordinators:
        for key, value in coordinator.stats().items():
            if key == "convicted":
                totals["convicted"].update(value)
            else:
                totals[key] = totals.get(key, 0) + value
    return totals
