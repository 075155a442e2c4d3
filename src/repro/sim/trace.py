"""Recording of everything observable about a simulation run.

Two things are kept:

* per message kind, one running ``(count, bytes)`` tally of the messages
  handed to a channel, with the wire size reported by the message object.
  The experiment harness derives the paper's communication-complexity
  numbers (E3, E4) from these, and they stay O(kinds) however long the
  run.  A :class:`MessageRecord` — send and delivery times, endpoints,
  kind and size — is built only while a tap is attached
  (:meth:`SimTrace.tap`); nothing keeps it unless the tap does.
* :class:`NoteRecord` — timestamped events nothing else records: fault
  transitions (crashes, restarts, away windows), convicted replicas,
  malformed frames.  A client's ``stable_i`` and ``fail_i`` outputs are
  not notes: the deployment's :class:`~repro.api.events.NotificationHub`
  fans them out.  Nor are installed checkpoint links, which a client's
  checkpoint manager holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True, slots=True)
class MessageRecord:
    """One message as seen by a channel."""

    sent_at: float
    delivered_at: float | None  # None while in flight / dropped at a crash
    src: str
    dst: str
    kind: str
    size: int


@dataclass(frozen=True, slots=True)
class NoteRecord:
    """One protocol-level event (a fault transition, a checkpoint, ...)."""

    time: float
    source: str
    kind: str
    payload: Any = None


Tap = Callable[[MessageRecord], None]


class SimTrace:
    """Per-kind message tallies and the run's notes; taps see each record."""

    def __init__(self) -> None:
        self.notes: list[NoteRecord] = []
        #: kind -> ``[count, bytes]``.
        self._tallies: dict[str, list[int]] = {}
        self._taps: list[Tap] = []

    def record_message(
        self,
        sent_at: float,
        delivered_at: float | None,
        src: str,
        dst: str,
        kind: str,
        size: int,
    ) -> None:
        tally = self._tallies.get(kind)
        if tally is None:
            self._tallies[kind] = [1, size]
        else:
            tally[0] += 1
            tally[1] += size
        if self._taps:
            record = MessageRecord(sent_at, delivered_at, src, dst, kind, size)
            for tap in self._taps:
                tap(record)

    def tap(self, callback: Tap) -> Callable[[], None]:
        """Hand every message recorded from now on to ``callback`` as a
        :class:`MessageRecord`; returns the untap."""
        self._taps.append(callback)
        return lambda: self._taps.remove(callback)

    def note(self, time: float, source: str, kind: str, payload: Any = None) -> None:
        self.notes.append(NoteRecord(time, source, kind, payload))

    # ------------------------------------------------------------------ #
    # Aggregation helpers used by metrics and the experiment harness.
    # ------------------------------------------------------------------ #

    def tallies(self) -> dict[str, tuple[int, int]]:
        """kind -> ``(count, bytes)`` of every kind recorded so far."""
        return {kind: (count, size) for kind, (count, size) in self._tallies.items()}

    def message_count(self, kind: str | None = None) -> int:
        if kind is None:
            return sum(count for count, _ in self._tallies.values())
        tally = self._tallies.get(kind)
        return tally[0] if tally is not None else 0

    def total_bytes(self, kind: str | None = None) -> int:
        if kind is None:
            return sum(size for _, size in self._tallies.values())
        tally = self._tallies.get(kind)
        return tally[1] if tally is not None else 0

    def notes_of_kind(self, kind: str) -> list[NoteRecord]:
        return [n for n in self.notes if n.kind == kind]

    def first_note(self, kind: str, source: str | None = None) -> NoteRecord | None:
        for n in self.notes:
            if n.kind == kind and (source is None or n.source == source):
                return n
        return None
