"""One pass of one workload, in a fresh process.

``run.py`` spawns this file once per pass so the process-wide memo
caches (``common.encoding``, ``ustor.digests``, the keystore verdict
cache) start cold every time.  The last line of stdout is one JSON
object: the pass's metrics, its op accounting and the verify verdict.

Two noise controls live here.  The pass pins itself — and with it the
server child, which inherits the mask — to one CPU: left alone, the
kernel flips between co-locating the TCP client and server and spreading
them over both vCPUs, a bimodal 1.6x swing in throughput.  And times and
rates are restated at the reference speed of the in-pass
:class:`metrics.SpeedGauge`; the raw values are kept beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from metrics import at_reference_speed, percentile, windowed_percentile  # noqa: E402


def run_pass(args) -> dict:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    load_1m = os.getloadavg()[0]
    tracer = None
    if args.traced:
        from tracing import Tracer

        # CPU clock over TCP, wall clock on the simulator: see tracing.py.
        over_tcp = args.workload.startswith("tcp_")
        tracer = Tracer(
            "client", time.thread_time_ns if over_tcp else time.perf_counter_ns
        )
        tracer.install()
    from workloads import WORKLOADS, proc_cpu_seconds

    workdir = Path(args.workdir)
    workload = WORKLOADS[args.workload](args.seed, args.scale, workdir, args.traced)
    gauge = workload.gauge
    if tracer:  # its own span, so slices are not charged to a layer
        gauge.slice = tracer.wrap("bench.gauge", gauge.slice)
    workload.open()
    try:
        workload.warm_up()
        setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
        server_pid = workload.server_pid()
        bytes_before = workload.wire_bytes()
        spans_before = tracer.snapshot() if tracer else None
        server_cpu = proc_cpu_seconds(server_pid) if server_pid else 0.0
        cpu = time.process_time()
        started = time.perf_counter()
        workload.measure()
        wall = time.perf_counter() - started - gauge.ns / 1e9
        cpu = time.process_time() - cpu - gauge.ns / 1e9
        if server_pid:
            server_cpu = proc_cpu_seconds(server_pid) - server_cpu
        spans = tracer.snapshot() if tracer else None
        wire_bytes = workload.wire_bytes() - bytes_before
        client_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        counts = workload.counts() if tracer else {}
        problems = workload.verify()
    finally:
        workload.close()
    server_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ops = workload.measured_ops
    latencies = sorted(workload.latencies_ns)
    if not latencies:
        raise SystemExit(f"no measured op completed: {problems}")
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / wall,
        "op_p50_ms": windowed_percentile(workload.latencies_ns, 0.50) / 1e6,
        "op_p90_ms": windowed_percentile(workload.latencies_ns, 0.90) / 1e6,
        "op_p99_ms": percentile(latencies, 0.99) / 1e6,
        "wire_bytes_per_op": wire_bytes / ops,
        "peak_rss_mb": (client_rss + server_rss) / 1024,
        "failed_ops_frac": workload.failed / workload.planned,
        "api.op_p999_ms": percentile(latencies, 0.999) / 1e6,
        "bench.calib_ns_per_iter": gauge.ns_per_iter,
        **workload.extra_metrics(),
    }
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "traced": bool(args.traced),
        "planned": workload.planned,
        "failed": workload.failed,
        "measured_ops": ops,
        "measured_wall_s": wall,
        "load_1m_before": load_1m,
        "verify_problems": problems,
    }
    if tracer:
        from layers import layer_metrics
        from tracing import phase_delta

        server = None
        if server_pid:
            with open(workload.dump_path, encoding="utf-8") as dump:
                server = json.load(dump)
        client_spans = phase_delta(spans, spans_before)
        del client_spans["spans"]["bench.gauge"]
        layers, detail = layer_metrics(
            client=client_spans,
            server=server,
            counts=counts,
            ops=ops,
            served_ops=workload.planned,
            wall=wall,
            client_cpu=cpu,
            server_cpu=server_cpu,
            wire_bytes=wire_bytes,
        )
        metrics.update(layers)
        result["trace_detail"] = detail
        if args.spans_out:
            tracer.write_spans(args.spans_out)
            if server:
                with open(args.spans_out, "a", encoding="utf-8") as out:
                    for span in server["sampled_spans"]:
                        out.write(json.dumps(span) + "\n")
    result["metrics_as_measured"] = metrics
    result["metrics"] = at_reference_speed(metrics, gauge.slowdown)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--spawn-ns", type=int, required=True,
                        help="time.monotonic_ns() in the parent at spawn")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out", default=None)
    # Unwind through run_pass's ``finally`` so the server child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result = run_pass(parser.parse_args())
    print(json.dumps(result))
    return 1 if result["verify_problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
