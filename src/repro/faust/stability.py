"""Version bookkeeping and stability cuts (Section 6).

Client ``C_i`` maintains ``VER_i`` — the maximal version received from
every client — and derives from it the stability vector ``W_i`` with
``W_i[j] = V_j[i]`` where ``(V_j, M_j) = VER_i[j]``: how many of *my*
operations client ``C_j``'s latest known version covers.  Every update
that raises an entry of ``W_i`` triggers a ``stable_i(W_i)`` notification.

The tracker also implements the failure test FAUST applies to every
received version: comparability (Definition 7) with the maximal version
already known.  Incomparable versions are *proof* of a forking attack —
for honestly produced versions, ``<=`` coincides with the prefix relation
on view histories, and two prefixes of a common history are always
comparable.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from repro.common.types import ClientId
from repro.ustor.version import Version


@dataclass(frozen=True)
class AbsorbOutcome:
    """What happened when a version was fed to the tracker."""

    #: The version contradicts the known maximum — server misbehaviour.
    incomparable: bool
    #: ``VER_i[source]`` grew.
    updated: bool
    #: Some entry of the stability vector ``W_i`` increased.
    stability_advanced: bool


class StabilityTracker:
    """``VER_i``, ``W_i`` and the staleness clock of one FAUST client."""

    def __init__(self, client_id: ClientId, num_clients: int) -> None:
        self._id = client_id
        self._n = num_clients
        self.versions: list[Version] = [Version.zero(num_clients)] * num_clients
        self.last_heard: list[float] = [0.0] * num_clients
        self._max_index: ClientId = client_id
        self._w: list[int] = [0] * num_clients
        # min(W_i), maintained incrementally: wait_for_stability() polls it
        # after every simulation event, so it must not rescan W_i each time.
        self._w_min: int = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def max_index(self) -> ClientId:
        """``max_i`` — whose entry holds the maximal version."""
        return self._max_index

    @property
    def max_version(self) -> Version:
        return self.versions[self._max_index]

    def stability_cut(self) -> tuple[int, ...]:
        """The current vector ``W_i`` (Figure 2's stability cut)."""
        return tuple(self._w)

    def stable_timestamp_for(self, peer: ClientId) -> int:
        """Up to which of my timestamps am I stable w.r.t. ``peer``?"""
        return self._w[peer]

    def stable_vector(
        self, members: tuple[ClientId, ...] | None = None
    ) -> tuple[int, ...]:
        """The all-clients stable cut: one timestamp per client.

        Entry ``j`` is ``min_k VER_i[k].vector[j]`` — how many of client
        ``C_j``'s operations *every* client's latest known version
        already covers.  Operations at or below this cut are stable
        w.r.t. all clients (the prefix the checkpoint protocol folds);
        monotone non-decreasing because ``VER_i`` entries only grow.

        With ``members``, the min runs over those clients' rows only —
        the checkpoint chain's member-scoped cut: stability w.r.t. the
        installed link's signer set, which keeps advancing after an evicted
        client's row froze.  The cut stays full-width ``n`` (evicted
        clients keep their column — their folded operations remain part
        of history), and every entry is ``>=`` the all-rows value, so
        member-scoped cuts still cover everything the full cut covers.
        """
        if members is None:
            rows = [version.vector for version in self.versions]
        else:
            rows = [self.versions[k].vector for k in members]
        return tuple(map(min, zip(*rows)))

    def stable_timestamp_for_all(self) -> int:
        """My operations with timestamps up to this value are *stable*
        (w.r.t. every client), hence on a linearizable prefix.

        O(1): the minimum of ``W_i`` is maintained incrementally by
        :meth:`absorb` — a full rescan only happens when the entry that
        *was* the minimum advances, which is at most a ``1/n`` fraction of
        stability advancements (amortized constant).
        """
        return self._w_min

    # ------------------------------------------------------------------ #
    # Version intake
    # ------------------------------------------------------------------ #

    def absorb(self, source: ClientId, version: Version, now: float) -> AbsorbOutcome:
        """Feed a version received from ``source`` (server or offline path).

        Updates ``VER_i[source]`` and its staleness clock only when the
        version *grew* — the paper stores "the time when the entry was most
        recently updated", and this is load-bearing: a forking server keeps
        serving stale (but valid) versions of the other branch, and only an
        update-based clock keeps probing until the genuinely newer version
        arrives offline and exposes the fork.  Reports incomparability
        instead of updating when the version contradicts the known maximum.
        """
        current_max = self.versions[self._max_index]
        if not version.comparable(current_max):
            return AbsorbOutcome(
                incomparable=True, updated=False, stability_advanced=False
            )
        if not self.versions[source].lt(version):
            return AbsorbOutcome(
                incomparable=False, updated=False, stability_advanced=False
            )
        self.versions[source] = version
        self.last_heard[source] = now
        if current_max.le(version):
            self._max_index = source
        advanced = self._raise_w(source, version.vector[self._id])
        return AbsorbOutcome(
            incomparable=False, updated=True, stability_advanced=advanced
        )

    def _raise_w(self, source: ClientId, new_w: int) -> bool:
        """Raise ``W_i[source]`` to ``new_w`` if that grows it, keeping the
        cached minimum consistent; returns whether the cut advanced."""
        if new_w <= self._w[source]:
            return False
        was_min = self._w[source] == self._w_min
        self._w[source] = new_w
        if was_min:
            self._w_min = min(self._w)
        return True

    # ------------------------------------------------------------------ #
    # Staleness (drives PROBE messages)
    # ------------------------------------------------------------------ #

    def stale_peers(self, now: float, delta: float) -> list[ClientId]:
        """Clients not heard from (directly or via the server) for > delta."""
        return [
            j
            for j in range(self._n)
            if j != self._id and now - self.last_heard[j] > delta
        ]


class StabilityLog(Sequence[tuple[float, tuple[int, ...]]]):
    """``(time, W)`` of every ``stable_i(W)`` notification, packed.

    The times sit in one ``array('d')``, the cuts back to back in one
    ``array('q')`` of stride ``n``; indexing and iteration rebuild the
    ``(time, cut)`` pairs.
    """

    __slots__ = ("_n", "_times", "_cuts")

    def __init__(self, num_clients: int) -> None:
        self._n = num_clients
        self._times = array("d")
        self._cuts = array("q")

    def append(self, time: float, cut: tuple[int, ...]) -> None:
        self._times.append(time)
        self._cuts.extend(cut)

    def keep_last(self, keep: int) -> None:
        """Drop all but the newest ``keep`` (at least one) notifications."""
        if keep < 1:
            raise ValueError(f"keep_last needs keep >= 1, got {keep}")
        drop = len(self._times) - keep
        if drop > 0:
            del self._times[:drop]
            del self._cuts[: drop * self._n]

    def __len__(self) -> int:
        return len(self._times)

    def __getitem__(self, index: int) -> tuple[float, tuple[int, ...]]:
        time = self._times[index]  # raises IndexError, accepts index < 0
        start = (index % len(self._times)) * self._n
        return time, tuple(self._cuts[start : start + self._n])

    def __iter__(self) -> Iterator[tuple[float, tuple[int, ...]]]:
        n, cuts = self._n, self._cuts
        for k, time in enumerate(self._times):
            yield time, tuple(cuts[k * n : k * n + n])
