"""Timing wrappers the traced pass installs around each layer's public functions.

Nothing under ``src/`` knows about this file: :func:`install` imports
every ``repro.*`` module, wraps the entry points named in :data:`TARGETS`
and rebinds each module attribute that *is* the original (modules import
these names by value).  Methods are wrapped on the class and on every
loaded subclass that overrides them.

A span has a name, a start, an end and a parent; spans run on one thread,
so a stack of open spans gives each one its parent and lets a span's
*self time* be its duration minus the time its children covered.
Aggregates (calls, self ns, total ns) are kept per name for the whole
pass; full spans are kept only for every :data:`SAMPLE_EVERY`-th
operation of each client and written as JSONL when the pass ends.

Spans carry the operation ``(client, op index)`` they worked for.  A
USTOR client has exactly one operation outstanding, so the client's
``write``/``read`` start operation ``index + 1`` and ``on_message`` on
either side attributes by client (the server counts SUBMITs per source).
Callbacks the harness does not wrap (protocol timers, asyncio plumbing)
are charged to the enclosing span — ``sim.scheduler`` on the simulator,
nothing (the unattributed remainder) over TCP.

The clock is the caller's choice.  The simulator never waits, so wall
time is busy time there.  Over TCP a ``send`` wakes the peer process and
the kernel often runs it on the sender's core, so wall time inside a
span includes the other process's work; TCP passes therefore time spans
with the thread's CPU clock.  Sampled spans always carry wall stamps
(``CLOCK_MONOTONIC``, comparable across the two processes).
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import time

SAMPLE_EVERY = 100

#: span name -> entry points, as ``module:function`` or ``module:Class.method``.
TARGETS = {
    "common.encoding.encode": (
        "repro.common.encoding:encode",
        "repro.common.encoding:encode_sequence",
    ),
    "common.encoding.decode": ("repro.common.encoding:decode",),
    "crypto.sign": ("repro.crypto.keystore:ClientSigner.sign",),
    # ClientSigner.verify only delegates to the shared PublicVerifier;
    # wrapping both would count every verification twice.
    "crypto.verify": ("repro.crypto.keystore:PublicVerifier.verify",),
    "crypto.hash_values": ("repro.crypto.hashing:hash_values",),
    "crypto.hash_bytes": ("repro.crypto.hashing:hash_bytes",),
    "crypto.hash_register_value": ("repro.crypto.hashing:hash_register_value",),
    "ustor.digests.extend": ("repro.ustor.digests:extend_digest",),
    "ustor.client.invoke": (
        "repro.ustor.client:UstorClient.write",
        "repro.ustor.client:UstorClient.read",
    ),
    "ustor.client.on_message": ("repro.ustor.client:UstorClient.on_message",),
    "ustor.server.on_message": ("repro.ustor.server:UstorServer.on_message",),
    "store.log": (
        "repro.store.engine:StorageEngine.log_submit",
        "repro.store.engine:StorageEngine.log_commit",
        "repro.store.engine:StorageEngine.log_records",
        "repro.store.engine:StorageEngine.log_checkpoint",
    ),
    "store.snapshot": ("repro.store.engine:StorageEngine.checkpoint",),
    "net.frame": ("repro.net.framing:encode_frame",),
    "net.read_frame": ("repro.net.framing:read_frame",),
    "net.wire_codec": (
        "repro.net.wire:message_to_payload",
        "repro.net.wire:payload_to_message",
        "repro.net.wire:decode_payload",
    ),
    "sim.scheduler": (
        "repro.sim.scheduler:Scheduler.run",
        "repro.sim.scheduler:Scheduler.run_until",
        "repro.sim.scheduler:Scheduler.step",
    ),
    "sim.network": (
        "repro.sim.network:Network.send",
        "repro.sim.network:Network.send_multi",
    ),
    "sim.offline": ("repro.sim.offline:OfflineChannel.send",),
    "faust.client": (
        "repro.faust.client:FaustClient.write",
        "repro.faust.client:FaustClient.read",
        "repro.faust.client:FaustClient.on_message",
    ),
    "faust.stability": ("repro.faust.stability:StabilityTracker.absorb",),
    "faust.checkpoint": (
        "repro.faust.checkpoint:CheckpointManager.on_stability",
        "repro.faust.checkpoint:CheckpointManager.on_share",
    ),
    "faust.membership": (
        "repro.faust.membership:MembershipManager.on_tick",
        "repro.faust.membership:MembershipManager.on_share",
        "repro.faust.membership:MembershipManager.on_announce",
        "repro.faust.membership:MembershipManager.note_checkpoint_share",
        "repro.faust.membership:MembershipManager.note_install",
        "repro.faust.membership:MembershipManager.note_contact",
    ),
    "consistency.audit": (
        "repro.consistency.incremental:IncrementalChecker.on_invoke",
        "repro.consistency.incremental:IncrementalChecker.on_response",
        "repro.consistency.incremental:IncrementalChecker.on_compact",
    ),
    "history.recorder": (
        "repro.history.recorder:HistoryRecorder.begin",
        "repro.history.recorder:HistoryRecorder.end",
        "repro.history.recorder:HistoryRecorder.compact",
    ),
    "replica.coordinator.begin_round": (
        "repro.replica.coordinator:QuorumCoordinator.begin_round",
    ),
    "replica.coordinator.absorb": (
        "repro.replica.coordinator:QuorumCoordinator.absorb",
    ),
    "replica.counter": (
        "repro.replica.counter:MonotonicCounter.attest",
        "repro.replica.counter:CounterVerifier.check",
    ),
    "cluster.session": (
        "repro.cluster.session:ClusterSession.write",
        "repro.cluster.session:ClusterSession.read",
        "repro.cluster.session:ClusterSession.flush",
        "repro.cluster.session:ClusterSession.barrier",
    ),
    "api.session": (
        "repro.api.session:Session.write",
        "repro.api.session:Session.read",
        "repro.api.session:Session.flush",
        "repro.api.session:Session.barrier",
    ),
}


def _client_of(name: str) -> int:
    """``"C3"`` -> 2 (the inverse of ``repro.common.types.client_name``)."""
    return int(name[1:]) - 1


class Tracer:
    """Span aggregates plus a sample of full spans, for one process."""

    def __init__(self, proc: str, clock=time.perf_counter_ns) -> None:
        self.proc = proc
        self.clock = clock
        #: name -> [calls, self ns, total ns]
        self.agg: dict[str, list[int]] = {}
        #: name -> payload bytes seen (``net.frame`` / ``net.read_frame``)
        self.bytes: dict[str, int] = {}
        self.spans: list[dict] = []
        #: Open spans, innermost last: [child ns, span id].
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._op: tuple[int, int] | None = None
        self._sampled = False
        self._op_index: dict[int, int] = {}

    # -- operation attribution ----------------------------------------- #

    def _set_op(self, client: int, starts_op: bool) -> None:
        index = self._op_index.get(client, 0)
        if starts_op:
            index += 1
            self._op_index[client] = index
        self._op = (client, index)
        self._sampled = index % SAMPLE_EVERY == 0

    def _attribute(self, name: str, args: tuple) -> None:
        if name == "ustor.client.invoke":
            self._set_op(args[0].client_id, True)
        elif name == "ustor.client.on_message":
            self._set_op(args[0].client_id, False)
        elif name == "ustor.server.on_message":
            self._set_op(
                _client_of(args[1]), type(args[2]).__name__ == "SubmitMessage"
            )

    # -- wrappers ------------------------------------------------------ #

    def wrap(self, name: str, fn):
        """``fn`` timed as a span called ``name``."""
        agg = self.agg.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = self.clock
        wall = time.perf_counter_ns
        attributed = name in (
            "ustor.client.invoke",
            "ustor.client.on_message",
            "ustor.server.on_message",
        )
        counts_bytes = name == "net.frame"
        if counts_bytes:
            self.bytes.setdefault(name, 0)

        def traced(*args, **kwargs):
            outer = (self._op, self._sampled)
            if attributed:
                self._attribute(name, args)
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][1] if stack else None
            frame = [0, span_id]
            stack.append(frame)
            wall_start = wall() if self._sampled else 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                agg[0] += 1
                agg[1] += duration - frame[0]
                agg[2] += duration
                if stack:
                    stack[-1][0] += duration
                if counts_bytes:
                    self.bytes[name] += len(args[0])
                if self._sampled:
                    self.spans.append(
                        {
                            "proc": self.proc,
                            "name": name,
                            "id": span_id,
                            "parent": parent,
                            "op": self._op,
                            "start_ns": wall_start,
                            "end_ns": wall(),
                            "self_ns": duration - frame[0],
                        }
                    )
                if attributed:
                    self._op, self._sampled = outer

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap_read_frame(self, name: str, fn):
        """``read_frame`` counted, not timed: its await is waiting, not work."""
        agg = self.agg.setdefault(name, [0, 0, 0])
        self.bytes.setdefault(name, 0)

        async def counted(*args, **kwargs):
            payload = await fn(*args, **kwargs)
            if payload is not None:
                agg[0] += 1
                self.bytes[name] += len(payload)
            return payload

        counted.__wrapped__ = fn
        return counted

    # -- installation -------------------------------------------------- #

    def install(self) -> None:
        """Wrap every target and rebind every by-value import of it."""
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name.startswith("repro.") and module is not None
        ]
        for span_name, targets in TARGETS.items():
            for target in targets:
                module_name, _, path = target.partition(":")
                module = sys.modules[module_name]
                if "." in path:
                    class_name, _, method = path.partition(".")
                    self._wrap_method(span_name, getattr(module, class_name), method)
                    continue
                original = getattr(module, path)
                if span_name == "net.read_frame":
                    wrapped = self.wrap_read_frame(span_name, original)
                else:
                    wrapped = self.wrap(span_name, original)
                for candidate in modules:
                    for attr, value in list(vars(candidate).items()):
                        if value is original:
                            setattr(candidate, attr, wrapped)

    def _wrap_method(self, span_name: str, cls: type, method: str) -> None:
        if method in vars(cls):
            setattr(cls, method, self.wrap(span_name, vars(cls)[method]))
        for subclass in cls.__subclasses__():
            self._wrap_method(span_name, subclass, method)

    # -- reading ------------------------------------------------------- #

    def snapshot(self) -> dict:
        """Aggregates so far, JSON-ready (subtract two to get a phase)."""
        return {
            "spans": {name: list(values) for name, values in self.agg.items()},
            "bytes": dict(self.bytes),
        }

    def write_spans(self, path: str) -> None:
        """Append the sampled spans to ``path`` as JSONL."""
        with open(path, "a", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def phase_delta(after: dict, before: dict) -> dict:
    """Span aggregates accumulated between two :meth:`Tracer.snapshot` calls."""
    spans = {}
    for name, values in after["spans"].items():
        base = before["spans"].get(name, [0, 0, 0])
        spans[name] = [a - b for a, b in zip(values, base)]
    totals = {
        name: value - before["bytes"].get(name, 0)
        for name, value in after["bytes"].items()
    }
    return {"spans": spans, "bytes": totals}

