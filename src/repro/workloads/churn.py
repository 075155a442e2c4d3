"""Churn: the disconnected-operation patterns the paper motivates.

Section 1: *"the clients in our model are not simultaneously present and
may be disconnected temporarily"* — the reason eventual (stability-based)
consistency is the right notion for this setting.  :class:`ChurnSchedule`
turns a plan — explicit or drawn from the run's seeded RNG — into
:class:`~repro.sim.faults.Fault` records on the deployment's one injector
(``system.faults``): *away* windows for clients, crash-recovery windows
for the server (or one shard's).  With a durable engine both obey the
same contract: invisible to failure detection (a recovering server is
not a Byzantine one, a sleeping client is not a faulty server) and only
*delaying* stability — properties the churn tests pin down.
"""

from __future__ import annotations

from repro.common.types import ClientId
from repro.sim.faults import Fault, plan_windows


class ChurnSchedule:
    """Plans client and server churn as faults on ``system.faults``."""

    def __init__(self, system) -> None:
        self._system = system
        #: The client away-windows / server outages this schedule added.
        self.windows: list[Fault] = []
        self.server_outages: list[Fault] = []

    def add_window(self, client: ClientId, start: float, duration: float) -> None:
        """Schedule one offline window for ``client`` (traced as
        ``offline``/``online``)."""
        self._add(Fault("away", client, start, duration))

    def add_server_outage(
        self, start: float, duration: float, shard: int | None = None
    ) -> None:
        """Schedule one server crash-recovery window.

        The server crashes at ``start`` and recovers from its storage
        engine at ``start + duration``; requests delivered in between are
        held by the reliable channels and served after recovery.  On a
        cluster deployment, ``shard`` crashes one shard's server only
        (the others keep serving); ``None`` takes the whole cluster down.
        """
        self._add(Fault("down", (shard, None), start, duration))

    def random_windows(
        self, count: int, horizon: float, mean_duration: float
    ) -> None:
        """Draw up to ``count`` random client windows over ``[0, horizon]``."""
        clients = range(len(self._system.clients))
        self._random(
            "away", count, horizon, mean_duration, lambda rng: rng.choice(clients)
        )

    def random_server_outages(
        self, count: int, horizon: float, mean_duration: float
    ) -> None:
        """Draw up to ``count`` random whole-service outages."""
        self._random("down", count, horizon, mean_duration, None)

    def random_shard_outages(
        self, count: int, horizon: float, mean_duration: float
    ) -> None:
        """Cluster churn: draw up to ``count`` random windows, each
        hitting one random shard."""
        num_shards = self._system.num_shards
        self._random(
            "down",
            count,
            horizon,
            mean_duration,
            lambda rng: (rng.randrange(num_shards), None),
        )

    def _random(self, kind, count, horizon, mean_duration, draw_target) -> None:
        """A draw that overlaps a window already on its target is skipped."""
        rng = self._system.scheduler.rng
        for fault in plan_windows(
            rng, kind, count, horizon, mean_duration, draw_target
        ):
            if self._system.faults.conflict(fault) is None:
                self._add(fault)

    def _add(self, fault: Fault) -> None:
        away = fault.kind == "away"
        self._system.faults.add(fault, notes=("offline", "online") if away else None)
        (self.windows if away else self.server_outages).append(fault)
