"""Causal trace ids and the span log (``repro.obs.tracing``).

Trace ids must be pure functions of protocol state (client index and
protocol timestamp), so no id rides the wire; the span log must export
both grep-friendly JSONL and viewer-ready Chrome trace events; and a log
attached to a deployment must be a reading of the run's own records —
the recorder's operations and the hub's ``fail_i`` outputs — and so the
same on every transport.
"""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from repro.api import FailureNotification, SystemConfig, open_system
from repro.common.errors import ConfigurationError
from repro.obs.tracing import (
    TIMESTAMP_BITS,
    SpanLog,
    make_trace_id,
    trace_client,
    trace_timestamp,
)
from repro.ustor.byzantine import ADVERSARIES, SplitBrainServer
from repro.workloads.generator import (
    Driver,
    WorkloadConfig,
    generate_scripts,
    run_closed_loop,
)


class TestTraceIds:
    def test_id_is_a_pure_function_of_the_pair(self):
        assert make_trace_id(0, 1) == 1
        assert make_trace_id(1, 1) == (1 << TIMESTAMP_BITS) | 1
        assert make_trace_id(2, 7) == make_trace_id(2, 7)

    def test_round_trip(self):
        trace_id = make_trace_id(5, 1234)
        assert trace_client(trace_id) == 5
        assert trace_timestamp(trace_id) == 1234

    def test_negative_operands_rejected(self):
        with pytest.raises(ConfigurationError):
            make_trace_id(-1, 0)
        with pytest.raises(ConfigurationError):
            make_trace_id(0, -1)


class TestSpanLog:
    def test_span_and_instant_records(self):
        log = SpanLog()
        span = log.span("op:write", ts=1.0, dur=0.5, trace_id=7,
                        args={"client": 0})
        instant = log.instant("fail", ts=2.0, trace_id=7, proc="client")
        assert len(log) == 2
        assert span["ph"] == "X" and span["dur"] == 0.5
        assert instant["ph"] == "i" and "dur" not in instant
        assert log.records == [span, instant]

    def test_for_trace_filters_by_id(self):
        log = SpanLog()
        log.instant("a", ts=0.0, trace_id=1)
        log.instant("b", ts=1.0, trace_id=2)
        log.instant("c", ts=2.0, trace_id=1)
        assert [r["name"] for r in log.for_trace(1)] == ["a", "c"]

    def test_jsonl_round_trip(self, tmp_path):
        log = SpanLog()
        log.span("op:read", ts=0.25, dur=1.0, trace_id=3)
        path = tmp_path / "spans.jsonl"
        assert log.write_jsonl(path) == 1
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["trace_id"] == 3

    def test_chrome_events_scale_and_layout(self):
        log = SpanLog()
        log.span("op:write", ts=1.0, dur=0.5,
                 trace_id=make_trace_id(2, 9), proc="client")
        log.instant("audit", ts=1.2,
                    trace_id=make_trace_id(2, 9), proc="server:S")
        events = log.chrome_events()
        metas = [e for e in events if e["ph"] == "M"]
        # One process_name metadata event per distinct proc.
        assert {m["args"]["name"] for m in metas} == {"client", "server:S"}
        span = next(e for e in events if e["ph"] == "X")
        assert span["ts"] == pytest.approx(1_000_000.0)
        assert span["dur"] == pytest.approx(500_000.0)
        assert span["tid"] == 2  # the trace id's client index is the row
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["s"] == "t"
        assert "dur" not in instant
        # The two reporting components land in different viewer processes.
        assert span["pid"] != instant["pid"]

    def test_write_chrome_is_loadable_json(self, tmp_path):
        log = SpanLog()
        log.instant("x", ts=0.0)
        path = tmp_path / "trace.json"
        count = log.write_chrome(path)
        data = json.loads(path.read_text())
        assert len(data["traceEvents"]) == count


def _drive(system, *, ops=4, seed=5, think=1.0, timeout=10_000.0):
    scripts = generate_scripts(
        len(system.clients),
        WorkloadConfig(ops_per_client=ops, read_fraction=0.5, mean_think_time=think),
        random.Random(seed),
    )
    driver = Driver(system)
    driver.attach_all(scripts)
    assert driver.run_to_completion(timeout=timeout)


def _names(log: SpanLog) -> Counter:
    return Counter(record["name"] for record in log.records)


class TestAttach:
    def test_every_completed_operation_has_one_span_at_its_invocation(self):
        system = open_system(SystemConfig(num_clients=3, seed=4), backend="faust")
        log = SpanLog.attach(system)
        _drive(system, ops=5)
        system.run(until=system.now + 50.0)  # let dummy reads land too
        spans = {}
        for record in log.records:
            if record["name"].startswith("op:"):
                assert record["trace_id"] not in spans
                spans[record["trace_id"]] = record
        completed = [op for op in system.history() if op.responded_at is not None]
        assert len(completed) == len(spans)
        for op in completed:
            span = spans[make_trace_id(op.client, op.timestamp)]
            assert span["name"] == f"op:{op.kind.name.lower()}"
            assert span["ts"] == op.invoked_at
            assert span["dur"] == op.responded_at - op.invoked_at
        names = _names(log)
        submits = sum(n for name, n in names.items() if name.startswith("submit:"))
        assert submits == len(system.history())

    def test_one_fail_record_per_failure_notification(self):
        # The run of `repro run --backend faust --clients 4 --server
        # split-brain`: one client is caught mid-operation, three idle.
        system = open_system(
            SystemConfig(
                num_clients=4,
                seed=1,
                server_factory=ADVERSARIES["split-brain"].factory,
            ),
            backend="faust",
        )
        log = SpanLog.attach(system)
        run_closed_loop(
            system,
            WorkloadConfig(ops_per_client=6, read_fraction=0.5),
            random.Random(1),
            until=500.0,
        )
        failures = system.notifications.failure_events()
        fails = [r for r in log.records if r["name"] == "fail"]
        assert failures and len(fails) == len(failures)
        pending = {
            op.client: make_trace_id(op.client, op.timestamp)
            for op in system.history()
            if op.responded_at is None
        }
        for record, event in zip(fails, failures):
            assert record["ts"] == event.time
            assert record["args"] == {"client": event.client, "reason": event.reason}
            # A failed client never completes its in-flight operation.
            assert record["trace_id"] == pending.get(event.client)
        assert any(r["trace_id"] is not None for r in fails)

    @pytest.mark.net
    def test_sim_and_tcp_write_the_same_record_names(self):
        from repro.net.client import NetRuntime
        from repro.net.server import NetServerHost

        sim = open_system(SystemConfig(num_clients=2, seed=1), backend="ustor")
        sim_log = SpanLog.attach(sim)
        _drive(sim)

        runtime = NetRuntime()
        host = NetServerHost(2)
        runtime.run_coroutine(host.start())
        tcp = open_system(
            SystemConfig(
                2, transport="tcp", endpoints=(host.endpoint,), default_timeout=10.0
            ),
            backend="ustor",
            runtime=runtime,
        )
        tcp.hosts.append(host)
        tcp.owns_runtime = True
        with tcp:
            tcp_log = SpanLog.attach(tcp)
            _drive(tcp, think=0.005, timeout=20.0)
        assert _names(sim_log) == _names(tcp_log)
        assert sum(_names(sim_log).values()) == 16  # a submit and an op each

    def test_a_clusters_fail_records_name_the_forked_shards_operations(self):
        system = open_system(
            SystemConfig(
                num_clients=4,
                shards=2,
                seed=2,
                shard_server_factories={
                    1: lambda n, name: SplitBrainServer(
                        n, groups=[{0, 2}, {1, 3}], fork_time=10.0, name=name
                    )
                },
            ),
            backend="cluster",
        )
        log = SpanLog.attach(system)
        _drive(system, ops=6, seed=2)
        system.run(until=system.now + 300.0)
        failures = system.notifications.failure_events()
        assert failures and {e.shard for e in failures} == {1}
        assert all(isinstance(e, FailureNotification) for e in failures)
        # The in-flight operation a fail record names is the client's
        # pending operation on the forked shard, not on its honest one.
        pending = {
            op.client: make_trace_id(op.client, op.timestamp)
            for op in system.shard_histories()[1]
            if op.responded_at is None
        }
        fails = [r for r in log.records if r["name"] == "fail"]
        assert len(fails) == len(failures)
        for record in fails:
            assert record["trace_id"] == pending.get(record["args"]["client"])
