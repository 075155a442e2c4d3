"""Recording of everything observable about a simulation run.

Two kinds of records are kept:

* :class:`MessageRecord` — one per message handed to a channel, with send
  and delivery times plus the wire size reported by the message object.
  The experiment harness derives the paper's communication-complexity
  numbers (E3, E4) from these.
* :class:`NoteRecord` — timestamped events nothing else records: fault
  transitions (crashes, restarts, away windows), installed checkpoints and
  epochs, convicted replicas, malformed frames.  A client's ``stable_i``
  and ``fail_i`` outputs are not notes: the deployment's
  :class:`~repro.api.events.NotificationHub` is their one record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator


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


@dataclass
class SimTrace:
    """Append-only log of a run; cheap to filter and aggregate."""

    messages: list[MessageRecord] = field(default_factory=list)
    notes: list[NoteRecord] = field(default_factory=list)

    def record_message(
        self,
        sent_at: float,
        delivered_at: float | None,
        src: str,
        dst: str,
        kind: str,
        size: int,
    ) -> None:
        self.messages.append(
            MessageRecord(sent_at, delivered_at, src, dst, kind, size)
        )

    def note(self, time: float, source: str, kind: str, payload: Any = None) -> None:
        self.notes.append(NoteRecord(time, source, kind, payload))

    # ------------------------------------------------------------------ #
    # Aggregation helpers used by metrics and the experiment harness.
    # ------------------------------------------------------------------ #

    def messages_of_kind(self, kind: str) -> Iterator[MessageRecord]:
        return (m for m in self.messages if m.kind == kind)

    def message_count(self, kind: str | None = None) -> int:
        if kind is None:
            return len(self.messages)
        return sum(1 for _ in self.messages_of_kind(kind))

    def total_bytes(self, kind: str | None = None) -> int:
        if kind is None:
            return sum(m.size for m in self.messages)
        return sum(m.size for m in self.messages_of_kind(kind))

    def notes_of_kind(self, kind: str) -> list[NoteRecord]:
        return [n for n in self.notes if n.kind == kind]

    def first_note(self, kind: str, source: str | None = None) -> NoteRecord | None:
        for n in self.notes:
            if n.kind == kind and (source is None or n.source == source):
                return n
        return None
