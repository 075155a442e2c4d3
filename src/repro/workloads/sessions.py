"""Client-lifecycle allocation: many logical sessions, few signer slots.

The fail-aware protocol prices every *signer* — a key in the keystore, a
row in every version vector, an entry in every checkpoint cut — so a
deployment cannot afford one signer per user session when sessions churn
in the tens of thousands.  :class:`SessionPool` separates the two
populations: **logical sessions** (unbounded, monotonically numbered)
lease **signer slots** (the fixed fleet of
:class:`~repro.faust.client.FaustClient` instances) for their lifetime
and hand them back on logout, so the signer count stays ``n`` no matter
how many sessions come and go.

The pool is membership-aware: it listens for installed epochs on every
materialized client (deduplicated by epoch number — a crashed client
never reports) and **quarantines** slots the quorum evicted, ending any
session bound to them; when a later epoch re-admits the slot, it returns
to the free list and ``sessions_recycled`` counts the reuse.  Slots'
backing clients are materialized lazily through the provider callable,
so building a pool costs nothing until sessions actually arrive.

:func:`plan_churn_windows` draws a deterministic churn plan (session
logout/login windows) and rejects plans whose concurrent-offline peak
would exceed the signer-set size — the configuration error behind
``repro scale --churn-windows`` values too large for ``--clients``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.common.errors import ConfigurationError
from repro.sim.faults import Fault, plan_windows


@dataclass(frozen=True)
class SessionLease:
    """One logical session's hold on a signer slot."""

    session_id: int
    slot: int


def plan_churn_windows(
    rng,
    count: int,
    *,
    horizon: float,
    mean_duration: float,
    num_slots: int,
) -> list[Fault]:
    """Plan ``count`` churn windows over ``[0, horizon)``; reject overload.

    Each is an *away* window with no client yet: some session logs out
    at ``start`` — whichever slot the producer picks then — and a fresh
    session takes over the slot ``duration`` later.  Drawn by
    :func:`repro.sim.faults.plan_windows` from ``rng``, so the plan is
    deterministic per seed.  A plan whose windows would take more slots
    offline *concurrently* than the signer set holds cannot be scheduled
    — every offline window needs a distinct slot — and raises
    :class:`~repro.common.errors.ConfigurationError` instead of silently
    dropping windows.
    """
    if count < 0:
        raise ConfigurationError(
            f"churn window count must be non-negative, got {count}"
        )
    windows = sorted(
        plan_windows(rng, "away", count, horizon, mean_duration),
        key=lambda window: (window.start, window.duration),
    )
    peak = _max_concurrent(windows)
    if peak > num_slots:
        raise ConfigurationError(
            f"churn plan needs {peak} sessions offline concurrently but "
            f"the signer set has only {num_slots} slot(s): lower "
            f"--churn-windows (or shorten --churn-mean-duration / raise "
            f"--clients) so concurrent churn fits the fleet"
        )
    return windows


def _max_concurrent(windows: Iterable[Fault]) -> int:
    """The largest number of windows open at any instant."""
    events = sorted(
        point
        for window in windows
        for point in ((window.start, 1), (window.end, -1))
    )
    peak = open_now = 0
    for _, delta in events:
        open_now += delta
        peak = max(peak, open_now)
    return peak


class SessionPool:
    """Allocates signer slots to an unbounded stream of logical sessions.

    ``provider(slot)`` returns (and on first call materializes) the
    client backing a slot; it is invoked lazily, the first time the slot
    is leased.  Clients exposing ``add_epoch_listener`` (fail-aware
    clients with membership on) are subscribed so the pool tracks
    evictions and re-admissions; other clients simply never quarantine.
    """

    def __init__(
        self,
        num_slots: int,
        provider: Callable[[int], object] | None = None,
    ) -> None:
        if num_slots < 1:
            raise ConfigurationError(
                f"a session pool needs at least one slot, got {num_slots}"
            )
        self.num_slots = num_slots
        self._provider = provider
        self._clients: dict[int, object] = {}
        self._free: deque[int] = deque(range(num_slots))
        self._bound: dict[int, SessionLease] = {}
        self._quarantined: set[int] = set()
        self._next_session = 0
        self._last_epoch = 0
        # Instrumentation.
        self.sessions_created = 0
        self.sessions_recycled = 0
        self.sessions_evicted = 0
        self.peak_in_use = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def in_use(self) -> int:
        """Slots currently leased to a session."""
        return len(self._bound)

    @property
    def available(self) -> int:
        """Slots free to lease right now (quarantined ones excluded)."""
        return len(self._free)

    @property
    def quarantined(self) -> tuple[int, ...]:
        """Slots the membership quorum has evicted (not leasable)."""
        return tuple(sorted(self._quarantined))

    def lease_for(self, slot: int) -> SessionLease | None:
        """The lease currently holding ``slot``, if any."""
        return self._bound.get(slot)

    def client(self, slot: int):
        """The client backing ``slot`` (materialized on first use)."""
        if slot not in self._clients:
            if self._provider is None:
                raise ConfigurationError(
                    f"slot {slot} has no materialized client and the pool "
                    f"was built without a provider"
                )
            built = self._provider(slot)
            self._clients[slot] = built
            subscribe = getattr(built, "add_epoch_listener", None)
            if subscribe is not None:
                subscribe(self._on_epoch)
        return self._clients[slot]

    # ------------------------------------------------------------------ #
    # The session lifecycle
    # ------------------------------------------------------------------ #

    def acquire(self) -> SessionLease:
        """Lease a slot to a new logical session (raises when exhausted)."""
        lease = self.try_acquire()
        if lease is None:
            raise ConfigurationError(
                f"all {self.num_slots} signer slot(s) are leased or "
                f"quarantined; release a session first"
            )
        return lease

    def try_acquire(self) -> SessionLease | None:
        """Lease a slot, or ``None`` when every slot is busy/quarantined."""
        while self._free:
            slot = self._free.popleft()
            if slot in self._quarantined:
                continue  # evicted while sitting in the free list
            return self._lease(slot)
        return None

    def try_acquire_slot(self, slot: int) -> SessionLease | None:
        """Lease one *specific* slot — the reconnect path, where a user
        returns on the signer slot their device already holds keys for.
        ``None`` when the slot is leased, quarantined or unknown."""
        if not 0 <= slot < self.num_slots:
            return None
        if slot in self._quarantined or slot in self._bound:
            return None
        try:
            self._free.remove(slot)
        except ValueError:
            return None
        return self._lease(slot)

    def _lease(self, slot: int) -> SessionLease:
        self.client(slot)  # materialize lazily
        lease = SessionLease(session_id=self._next_session, slot=slot)
        self._next_session += 1
        self._bound[slot] = lease
        self.sessions_created += 1
        self.peak_in_use = max(self.peak_in_use, len(self._bound))
        return lease

    def release(self, lease: SessionLease) -> None:
        """End a logical session; its slot becomes leasable again."""
        held = self._bound.get(lease.slot)
        if held is None or held.session_id != lease.session_id:
            return  # already released (or evicted under it)
        del self._bound[lease.slot]
        if lease.slot not in self._quarantined:
            self._free.append(lease.slot)

    # ------------------------------------------------------------------ #
    # Membership events
    # ------------------------------------------------------------------ #

    def _on_epoch(self, epoch) -> None:
        """An epoch installed somewhere in the fleet (deduplicated)."""
        if epoch.epoch <= self._last_epoch:
            return
        self._last_epoch = epoch.epoch
        members = set(epoch.members)
        for slot in range(self.num_slots):
            if slot not in members:
                self._quarantine(slot)
            elif slot in self._quarantined:
                self._readmit(slot)

    def _quarantine(self, slot: int) -> None:
        if slot in self._quarantined:
            return
        self._quarantined.add(slot)
        held = self._bound.pop(slot, None)
        if held is not None:
            self.sessions_evicted += 1
        try:
            self._free.remove(slot)
        except ValueError:
            pass

    def _readmit(self, slot: int) -> None:
        self._quarantined.discard(slot)
        if slot not in self._bound:
            self._free.append(slot)
        self.sessions_recycled += 1
