"""One fault schedule: every crash, outage and away-window of a deployment.

The paper's fault model is three lines (Section 2): the server is correct
or Byzantine, clients crash-stop, and a correct client may be
disconnected for a while and catch up over the offline channel.  The
storage-engine work adds one mode: a server that *crashes and recovers
from disk*.  This module is the one place any of them is written down
and performed.  A :class:`Fault` says what happens to whom over which
window, and reaches a run in one of two ways: declared on
``SystemConfig.server_outages`` (server windows, refused before anything
opens) or added with ``system.faults.add(fault)``.  The deployment's
:class:`FaultInjector` (``system.faults``) refuses a window that overlaps
another on the same process, schedules the transitions, and performs
them — crash/restart of a server or a client, and *away*/*back* (pause
plus offline-mailbox deferral; :meth:`FaultInjector.away` / ``back`` act
*now*) — each with the one trace note :data:`_KINDS` names and its
"already down / already halted: skip" guard.

Recovery semantics live elsewhere by design: *what* a server comes back
with is its :class:`~repro.store.engine.StorageEngine`'s recovery (see
``UstorServer.on_restart``), and *deliberately wrong* recovery is the
rollback adversary (:class:`~repro.ustor.byzantine.RollbackServer`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.common.errors import ConfigurationError, SimulationError

#: kind -> its start and end transition: the :class:`FaultInjector`
#: method performing it and the trace note it leaves.
_KINDS = {
    "down": (
        ("_crash_server", "server-crash"),
        ("_restart_server", "server-restart"),
    ),
    "crash-forever": (("_crash_client", "client-crash"), (None, None)),
    "crash-restart": (
        ("_crash_client", "client-crash"),
        ("_restart_client", "client-restart"),
    ),
    "away": (("_away", "client-away"), ("_back", "client-return")),
}
#: The notes :meth:`FaultInjector.away` / ``back`` leave: the away kind's.
_AWAY_NOTE, _BACK_NOTE = (note for _method, note in _KINDS["away"])

#: ``down`` is a server crash-recovery window; the rest happen to a client.
FAULT_KINDS = tuple(_KINDS)

#: The client kinds as ``repro scale --client-faults`` spells them
#: (``lease-expiry`` is ``away``: long enough away, the lease expires).
CLIENT_FAULT_KINDS = ("crash-forever", "crash-restart", "lease-expiry")


@dataclass(frozen=True)
class Fault:
    """One process out of action over ``[start, start + duration)``.

    * ``down`` — servers crash at ``start`` and recover from their
      storage engine at the end.  ``target`` is ``(shard, replica)``,
      ``None`` in either place meaning *every*: ``(None, None)`` (or
      plain ``None``) is the whole service, ``(1, None)`` shard 1 of a
      cluster, ``(None, 2)`` replica 2 of every group.  An unsharded
      deployment is shard 0.
    * ``crash-forever`` — client ``target`` crash-stops (no duration).
    * ``crash-restart`` — client ``target`` crashes, then restarts with
      its recovered state.
    * ``away`` — client ``target`` pauses and its offline mailbox
      defers (asleep, partitioned, a long GC pause), then returns.  The
      client stays correct throughout: away is not halted.
    """

    kind: str
    target: object
    start: float
    duration: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.kind == "down":
            if self.target is None:
                object.__setattr__(self, "target", (None, None))
            if not (
                isinstance(self.target, tuple)
                and len(self.target) == 2
                and all(_index_or_none(part) for part in self.target)
            ):
                raise ConfigurationError(
                    f"a down fault targets None or a (shard, replica) pair, "
                    f"each a non-negative int or None; got {self.target!r}"
                )
        if not 0 <= self.start < math.inf:  # NaN fails too
            raise ConfigurationError("faults need a finite, non-negative start")
        if self.kind == "crash-forever":
            if self.duration is not None:
                raise ConfigurationError(
                    "crash-forever has no duration (the client never returns)"
                )
        elif self.duration is None or not self.duration > 0:
            raise ConfigurationError(
                f"{'an' if self.kind == 'away' else 'a'} {self.kind} window needs a "
                f"positive duration"
            )

    @property
    def end(self) -> float:
        """When the process is back (never, for ``crash-forever``)."""
        return math.inf if self.duration is None else self.start + self.duration

    @classmethod
    def parse(cls, spec: str) -> "Fault":
        """Parse one ``kind:client@start[+duration]`` client fault, e.g.
        ``crash-forever:1@200``, ``crash-restart:2@100+300``,
        ``lease-expiry:0@150+400`` (the ``--client-faults`` syntax)."""
        try:
            kind, rest = spec.split(":", 1)
            target, timing = rest.split("@", 1)
            start, _, duration = timing.partition("+")
            kind = kind.strip()
            if kind not in CLIENT_FAULT_KINDS:
                raise ValueError(f"unknown client fault kind {kind!r}")
            return cls(
                "away" if kind == "lease-expiry" else kind,
                int(target),
                float(start),
                float(duration) if duration else None,
            )
        except ValueError as exc:
            raise SimulationError(
                f"malformed client fault spec {spec!r} ({exc}): expected "
                f"kind:client@start[+duration], e.g. crash-forever:1@200 "
                f"or lease-expiry:0@150+400"
            ) from exc


def _index_or_none(part) -> bool:
    return part is None or (
        isinstance(part, int) and not isinstance(part, bool) and part >= 0
    )


def overlap(windows) -> tuple | None:
    """The first two of ``windows`` — ``(start, duration)`` pairs, a
    ``None`` duration never ending — that share time, or ``None``.

    The one overlap rule: a window is half-open, so one may start exactly
    where another ends.  An overlap would end the longer window at the
    shorter one's return; every caller refuses it rather than quietly
    shortening an outage.
    """
    ordered = sorted(
        windows, key=lambda w: (w[0], math.inf if w[1] is None else w[1])
    )
    for first, second in zip(ordered, ordered[1:]):
        if first[1] is None or second[0] < first[0] + first[1]:
            return first, second
    return None


def plan_windows(
    rng, kind: str, count: int, horizon: float, mean_duration: float
) -> list[Fault]:
    """The one random planner: ``count`` seeded ``kind`` windows with no
    target yet (the caller picks it), each a uniform start over
    ``[0, horizon]`` then an exponential duration floored at one time
    unit.  The mean duration must be positive and finite (NaN fails too):
    anything else would be floored to one unit or divide by zero."""
    if not 0 < mean_duration < math.inf:
        raise ConfigurationError(
            f"random fault windows need a positive, finite mean duration, "
            f"got {mean_duration}"
        )
    windows = []
    for _ in range(count):
        start = rng.uniform(0.0, horizon)
        duration = max(rng.expovariate(1.0 / mean_duration), 1.0)
        windows.append(Fault(kind, None, start, duration))
    return windows


class FaultInjector:
    """Schedules and performs every fault of one deployment.

    ``system`` is any :class:`~repro.workloads.runner.Deployment`.  A
    ``down`` fault's windows are kept by the injector of the deployment
    in ``system.shards`` that runs the server (``[system]`` when
    unsharded), so a server's windows are kept in exactly one place.
    """

    def __init__(self, system) -> None:
        self._system = system
        #: The windows claimed on each process, by its name.
        self._windows: dict[str, list[Fault]] = {}
        self._listeners: list[Callable[[int, bool], None]] = []

    def add_listener(self, listener: Callable[[int, bool], None]) -> None:
        """Invoke ``listener(client_id, away)`` whenever a client actually
        goes away (``True``) or comes back (``False``)."""
        self._listeners.append(listener)

    def add(self, fault: Fault) -> Fault:
        """Schedule ``fault``; refuses a window overlapping another on the
        same process."""
        (begin, begin_note), (end, end_note) = _KINDS[fault.kind]
        for owner, _name, who in self._claim(fault):
            at = owner._system.scheduler.schedule_at
            at(fault.start, getattr(owner, begin), who, begin_note)
            if end is not None:
                at(fault.end, getattr(owner, end), who, end_note)
        return fault

    def away(self, client_id: int, duration: float | None = None) -> None:
        """Take a client away *now*.  With a ``duration`` the window is
        claimed like a scheduled one and the return is scheduled too;
        without, the caller brings the client :meth:`back`."""
        if duration is not None:
            fault = Fault("away", client_id, self._system.now, duration)
            self._claim(fault)
            self._system.scheduler.schedule_at(
                fault.end, self._back, client_id, _BACK_NOTE
            )
        self._away(client_id, _AWAY_NOTE)

    def back(self, client_id: int) -> None:
        """Bring a client back *now*."""
        self._back(client_id, _BACK_NOTE)

    def conflict(self, fault: Fault) -> Fault | None:
        """The already-claimed window ``fault`` would overlap on one of
        its processes, if any (also validates the target)."""
        mine = (fault.start, fault.duration)
        for owner, name, _who in self._processes(fault):
            for held in owner._windows.get(name, ()):
                if overlap([(held.start, held.duration), mine]):
                    return held
        return None

    def _claim(self, fault: Fault) -> list[tuple]:
        held = self.conflict(fault)
        if held is not None:
            raise ConfigurationError(
                f"fault windows on one process must not overlap: "
                f"{fault} and {held}"
            )
        processes = self._processes(fault)
        for owner, name, _who in processes:
            owner._windows.setdefault(name, []).append(fault)
        return processes

    def _processes(self, fault: Fault) -> list[tuple]:
        """``(owner, name, handle)`` of each process ``fault`` hits: the
        injector keeping its windows, its name, and what the transitions
        take — the server node for ``down``, else the client id."""
        system = self._system
        if fault.kind != "down":
            if not isinstance(fault.target, int) or not (
                0 <= fault.target < len(system.clients)
            ):
                raise SimulationError(
                    f"client fault names client {fault.target!r} but the "
                    f"fleet has {len(system.clients)} client(s)"
                )
            return [(self, system.clients[fault.target].name, fault.target)]
        shard, replica = fault.target
        shards = system.shards
        if shard is not None:
            if not shard < len(shards):
                raise ConfigurationError(
                    f"shard {shard} out of range for {len(shards)} shard(s)"
                )
            shards = [shards[shard]]
        processes = []
        for deployment in shards:
            group = deployment.replica_servers
            if not group:
                raise ConfigurationError(
                    "no co-located server to crash: this deployment's servers "
                    "are separate processes"
                )
            if replica is not None:
                if not replica < len(group):
                    raise ConfigurationError(
                        f"replica {replica} out of range: the group has "
                        f"{len(group)} replica(s)"
                    )
                group = [group[replica]]
            processes += [(deployment.faults, server.name, server) for server in group]
        return processes

    # -- the transitions: guard, act, note ------------------------------ #

    def _note(self, name: str, label: str) -> None:
        self._system.trace.note(self._system.now, name, label)

    def _crash_server(self, server, note: str) -> None:
        if not server.crashed:
            server.crash()
            self._note(server.name, note)

    def _restart_server(self, server, note: str) -> None:
        if server.crashed:
            server.restart()
            self._note(server.name, note)

    def _crash_client(self, client_id: int, note: str) -> None:
        client = self._system.clients[client_id]
        if not client.halted:
            client.crash()
            self._note(client.name, note)

    def _restart_client(self, client_id: int, note: str) -> None:
        client = self._system.clients[client_id]
        if client.crashed and not client.failed:
            client.restart()
            self._note(client.name, note)

    def _away(self, client_id: int, note: str) -> None:
        client = self._system.clients[client_id]
        if client.halted:
            return
        client.pause()
        self._system.offline.set_online(client.name, False)
        self._note(client.name, note)
        for listener in self._listeners:
            listener(client_id, True)

    def _back(self, client_id: int, note: str) -> None:
        client = self._system.clients[client_id]
        if client.halted:
            return
        self._system.offline.set_online(client.name, True)
        client.resume()
        self._note(client.name, note)
        for listener in self._listeners:
            listener(client_id, False)
