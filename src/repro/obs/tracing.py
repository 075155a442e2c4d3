"""Deterministic per-operation trace ids and the span log.

A trace id is never carried on the wire.  It is a pure function of two
values every SUBMIT already holds — the submitting client's index (which
the server checks against the connection) and the operation's protocol
timestamp ``t`` (strictly increasing per client, Algorithm 1):

    ``trace_id = (client_id << 40) | t``

40 bits of timestamp cover ~10^12 operations per client.  Whoever reads
an operation derives its id from the pair, so one operation is followed
through a span log, a wire trace and its replay without any id
allocation protocol or extra bytes.

:class:`SpanLog` collects span records — ``ph="X"`` complete spans with
a duration and ``ph="i"`` instants — and exports them as JSONL (one
record per line, grep-friendly) or as a Chrome trace-event file that
``chrome://tracing`` / Perfetto loads directly, with one trace-viewer
process per reporting component and one row per client.

:meth:`SpanLog.attach` fills a log from the run's own records and
nothing else: each shard's history recorder (``submit:<kind>`` at every
invocation, ``op:<kind>`` over every completed operation's interval) and
the deployment's notification hub (``fail`` at every ``fail_i``).  The
log is therefore the same on every backend and transport.
"""

from __future__ import annotations

import json

from repro.common.errors import ConfigurationError

#: Bits reserved for the protocol timestamp in a trace id.
TIMESTAMP_BITS = 40
_TIMESTAMP_MASK = (1 << TIMESTAMP_BITS) - 1


def make_trace_id(client_id: int, timestamp: int) -> int:
    """The deterministic trace id of client ``client_id``'s op ``timestamp``."""
    if client_id < 0 or timestamp < 0:
        raise ConfigurationError(
            f"trace ids need non-negative client/timestamp, got "
            f"({client_id}, {timestamp})"
        )
    return (client_id << TIMESTAMP_BITS) | (timestamp & _TIMESTAMP_MASK)


def trace_client(trace_id: int) -> int:
    """The client index encoded in ``trace_id``."""
    return trace_id >> TIMESTAMP_BITS


def trace_timestamp(trace_id: int) -> int:
    """The protocol timestamp encoded in ``trace_id``."""
    return trace_id & _TIMESTAMP_MASK


class SpanLog:
    """An append-only list of span records with JSONL and Chrome export.

    Records are plain dicts::

        {"ph": "X", "name": "op:write", "proc": "client", "ts": 3.0,
         "dur": 1.5, "trace_id": 17, "args": {...}}

    ``ts``/``dur`` are on the deployment's clock (virtual time on the
    simulator, UNIX seconds over TCP); the Chrome export scales them to
    microseconds, which the viewers expect.  ``proc`` names the reporting
    component and becomes a trace-viewer process; the client encoded in
    ``trace_id`` becomes the thread row.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []

    @classmethod
    def attach(cls, system) -> "SpanLog":
        """A log fed by ``system``'s records from now on.

        Every shard's recorder gives a ``submit:<kind>`` instant per
        invocation and an ``op:<kind>`` span over ``[invoked_at,
        responded_at]`` per response — FAUST's dummy reads included, as
        they are history operations.  Every
        :class:`~repro.api.events.FailureNotification` gives a ``fail``
        instant carrying the trace id of the client's in-flight operation
        on that shard (``None`` when it was idle).
        """
        from repro.api.events import FailureNotification

        log = cls()
        shards = []
        for shard in system.shards:
            spans = _OperationSpans(log)
            shard.recorder.add_listener(spans)
            shards.append(spans)

        def on_fail(event) -> None:
            log.instant(
                "fail",
                ts=event.time,
                trace_id=shards[event.shard].inflight.get(event.client),
                args={"client": event.client, "reason": event.reason},
            )

        system.notifications.subscribe(on_fail, kinds=FailureNotification)
        return log

    def __len__(self) -> int:
        return len(self.records)

    def span(
        self,
        name: str,
        *,
        ts: float,
        dur: float,
        trace_id: int | None = None,
        proc: str = "client",
        args: dict | None = None,
    ) -> dict:
        """Record a complete span (``ph="X"``) and return the record."""
        record = {
            "ph": "X",
            "name": name,
            "proc": proc,
            "ts": ts,
            "dur": dur,
            "trace_id": trace_id,
            "args": args or {},
        }
        self.records.append(record)
        return record

    def instant(
        self,
        name: str,
        *,
        ts: float,
        trace_id: int | None = None,
        proc: str = "client",
        args: dict | None = None,
    ) -> dict:
        """Record a zero-duration instant event (``ph="i"``)."""
        record = {
            "ph": "i",
            "name": name,
            "proc": proc,
            "ts": ts,
            "trace_id": trace_id,
            "args": args or {},
        }
        self.records.append(record)
        return record

    def for_trace(self, trace_id: int) -> list[dict]:
        """Every record carrying ``trace_id``, in emission order."""
        return [r for r in self.records if r.get("trace_id") == trace_id]

    def write_jsonl(self, path) -> int:
        """Write one JSON record per line to ``path``; returns the count."""
        with open(path, "w") as fh:
            for record in self.records:
                fh.write(json.dumps(record) + "\n")
        return len(self.records)

    def chrome_events(self) -> list[dict]:
        """The records as Chrome trace-event dicts (timestamps in µs).

        Each distinct ``proc`` becomes a numbered pid with a
        ``process_name`` metadata event; the trace id's client index is
        the tid, so each client gets its own row within the process.
        """
        pids: dict[str, int] = {}
        events: list[dict] = []
        for record in self.records:
            proc = record["proc"]
            pid = pids.get(proc)
            if pid is None:
                pid = pids[proc] = len(pids) + 1
                events.append(
                    {
                        "ph": "M",
                        "name": "process_name",
                        "pid": pid,
                        "tid": 0,
                        "args": {"name": proc},
                    }
                )
            trace_id = record.get("trace_id")
            tid = trace_client(trace_id) if trace_id is not None else 0
            event = {
                "ph": record["ph"],
                "name": record["name"],
                "pid": pid,
                "tid": tid,
                "ts": record["ts"] * 1_000_000.0,
                "args": dict(record["args"], trace_id=trace_id),
            }
            if record["ph"] == "X":
                event["dur"] = record["dur"] * 1_000_000.0
            else:
                event["s"] = "t"  # instant scope: thread
            events.append(event)
        return events

    def write_chrome(self, path) -> int:
        """Write the Chrome trace-event JSON file; returns the event count."""
        events = self.chrome_events()
        with open(path, "w") as fh:
            json.dump({"traceEvents": events}, fh)
        return len(events)


class _OperationSpans:
    """Recorder listener turning one shard's history into span records,
    and remembering each client's in-flight operation."""

    def __init__(self, log: SpanLog) -> None:
        self._log = log
        #: client -> trace id of its invoked, not yet responded operation.
        self.inflight: dict[int, int] = {}

    def on_invoke(self, op) -> None:
        trace_id = self.inflight[op.client] = make_trace_id(op.client, op.timestamp)
        self._log.instant(
            f"submit:{op.kind.name.lower()}",
            ts=op.invoked_at,
            trace_id=trace_id,
            args={"client": op.client, "register": op.register},
        )

    def on_response(self, op) -> None:
        self.inflight.pop(op.client, None)
        self._log.span(
            f"op:{op.kind.name.lower()}",
            ts=op.invoked_at,
            dur=op.responded_at - op.invoked_at,
            trace_id=make_trace_id(op.client, op.timestamp),
            args={"client": op.client, "register": op.register},
        )
