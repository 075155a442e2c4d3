"""Metric names, units and directions, and the harness's own arithmetic.

``BENCHMARK.json`` at the repo root is the contract file; the tables here
are what the harness *emits*.  ``test_e2e_smoke.py`` asserts the two
agree name for name and unit for unit, so neither can drift alone.

Percentiles are exact (nearest rank over the raw samples), never read
from the bucketed ``repro.obs`` histograms.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time

#: Measured seconds of one pass at ``--scale 1`` (seed speed, 2-core box).
PASS_SECONDS = 12.0
#: Fresh-subprocess passes per workload in one run; a metric's reported
#: value is the median over them.
PASSES = 3
#: Leading share of a pass's ops excluded from every timing.
WARMUP_FRACTION = 0.10
#: Ops per window of ``op_p50_ms`` / ``op_p90_ms`` (:func:`windowed_percentile`).
WINDOW_OPS = 100

#: End-to-end metrics: name -> (unit, better, bound).  Measured with
#: tracing and the obs registry off; defined on all four workloads.
#: Sessions an hour apart sat up to 20 % apart on tcp_reads_hmac even at
#: reference speed, so every timing takes the widest bound the contract
#: allows; README.md has the ten-seed quartile spreads.  Bytes per op are
#: exact at one seed, but sim_faust_bounded's differ by 1.4 % of the median
#: between the quartiles of ten seeds, hence 5 %.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("ops/s", "higher", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "op_p90_ms": ("ms", "lower", 0.25),
    "wire_bytes_per_op": ("B/op", "lower", 0.05),
    "peak_rss_mb": ("MiB", "lower", 0.10),
}

#: Metrics that repeat exactly at one seed (virtual time, counts), so
#: ``compare.py`` gates them although ``BENCHMARK.json`` lists them with
#: the per-layer rows: name -> bound.  ``failed_ops_frac`` may not rise.
GATED_EXACT = {
    "faust.op_p99_vt": 0.02,
    "faust.stable_lag_p50_vt": 0.02,
    "faust.stable_lag_p99_vt": 0.02,
    "failed_ops_frac": 0.0,
}

#: Per-layer metrics: name -> (unit, better).  Layers are this repo's
#: modules; ``*_self_us_per_op`` is span self time summed over the traced
#: pass divided by measured ops.  ``op_p99_ms`` (whole-pass p99) is here,
#: ungated, because on a shared host it measures the host: 10 % of CPU
#: stolen in 3 ms stalls doubled it while ``op_p90_ms`` moved 4 %.
PER_LAYER = {
    "failed_ops_frac": ("fraction", "lower"),
    "op_p99_ms": ("ms", "lower"),
    "faust.op_p99_vt": ("vt", "lower"),
    "faust.stable_lag_p50_vt": ("vt", "lower"),
    "faust.stable_lag_p99_vt": ("vt", "lower"),
    "common.encoding.encode_calls_per_op": ("count/op", "lower"),
    "common.encoding.encode_self_us_per_op": ("us/op", "lower"),
    "common.encoding.decode_calls_per_op": ("count/op", "lower"),
    "common.encoding.decode_self_us_per_op": ("us/op", "lower"),
    "crypto.sign_calls_per_op": ("count/op", "lower"),
    "crypto.sign_self_us_per_op": ("us/op", "lower"),
    "crypto.verify_calls_per_op": ("count/op", "lower"),
    "crypto.verify_self_us_per_op": ("us/op", "lower"),
    "crypto.verify_cache_hit_ratio": ("ratio", "higher"),
    "crypto.hash_calls_per_op": ("count/op", "lower"),
    "crypto.hash_self_us_per_op": ("us/op", "lower"),
    "ustor.digests.extend_calls_per_op": ("count/op", "lower"),
    "ustor.digests.extend_self_us_per_op": ("us/op", "lower"),
    "ustor.digests.chain_cache_hit_ratio": ("ratio", "higher"),
    "ustor.client.invoke_self_us_per_op": ("us/op", "lower"),
    "ustor.client.on_message_self_us_per_op": ("us/op", "lower"),
    "ustor.server.on_message_self_us_per_op": ("us/op", "lower"),
    "ustor.server.max_pending_len": ("count", "lower"),
    "ustor.server.group_commit_records_mean": ("count", "higher"),
    "store.log_self_us_per_op": ("us/op", "lower"),
    "store.wal_appends_per_op": ("count/op", "lower"),
    "store.wal_bytes_per_op": ("B/op", "lower"),
    "store.snapshot_self_us_per_op": ("us/op", "lower"),
    "store.snapshots_per_kop": ("count/kop", "lower"),
    "net.frames_per_op": ("count/op", "lower"),
    "net.frame_self_us_per_op": ("us/op", "lower"),
    "net.wire_codec_self_us_per_op": ("us/op", "lower"),
    "net.client_cpu_us_per_op": ("us/op", "lower"),
    "net.server_cpu_us_per_op": ("us/op", "lower"),
    "net.client_idle_frac": ("fraction", "lower"),
    "net.retransmissions": ("count", "lower"),
    "net.reconnects": ("count", "lower"),
    "sim.events_per_op": ("count/op", "lower"),
    "sim.scheduler_self_us_per_op": ("us/op", "lower"),
    "sim.network_self_us_per_op": ("us/op", "lower"),
    "sim.messages_coalesced_per_op": ("count/op", "higher"),
    "faust.client_self_us_per_op": ("us/op", "lower"),
    "faust.stability_self_us_per_op": ("us/op", "lower"),
    "faust.checkpoint_self_us_per_op": ("us/op", "lower"),
    "faust.membership_self_us_per_op": ("us/op", "lower"),
    "faust.offline_msgs_per_op": ("count/op", "lower"),
    "faust.dummy_reads_per_op": ("count/op", "lower"),
    "faust.checkpoints_installed": ("count", "higher"),
    "faust.resident_growth_ratio": ("ratio", "lower"),
    "faust.detect_lag_vt": ("vt", "lower"),
    "consistency.audit_self_us_per_op": ("us/op", "lower"),
    "history.recorder_self_us_per_op": ("us/op", "lower"),
    "replica.coordinator_self_us_per_op": ("us/op", "lower"),
    "replica.counter_self_us_per_op": ("us/op", "lower"),
    "replica.replies_per_round": ("count", "lower"),
    "replica.wire_bytes_per_user_byte": ("ratio", "lower"),
    "cluster.session_self_us_per_op": ("us/op", "lower"),
    "api.session_self_us_per_op": ("us/op", "lower"),
    "api.op_p999_ms": ("ms", "lower"),
    "trace.coverage_frac": ("fraction", "higher"),
    "trace.overhead_frac": ("fraction", "lower"),
    "bench.calib_ns_per_iter": ("ns", "lower"),
}


def unit_of(name: str) -> str:
    """The unit ``name`` is reported in."""
    return (END_TO_END.get(name) or PER_LAYER[name])[0]


def better_of(name: str) -> str:
    """``"lower"`` or ``"higher"``."""
    return (END_TO_END.get(name) or PER_LAYER[name])[1]


def percentile(sorted_samples: list, q: float):
    """Exact nearest-rank percentile of an ascending sample list."""
    rank = max(1, math.ceil(q * len(sorted_samples)))
    return sorted_samples[rank - 1]


def windowed_percentile(samples: list, q: float):
    """First quartile, over consecutive equal windows of about WINDOW_OPS
    samples (in the order given: completion order), of each window's
    exact percentile.

    The host stalls a pass for about a millisecond at a time, tens of
    times a second, and each stall delays the ops in flight; that only
    ever adds latency.  A stall spoils only the window it falls in, so the
    quieter quarter of the windows reports the program's tail, where the
    whole pass's percentile reports how often the host stalled.
    """
    count = max(1, len(samples) // WINDOW_OPS)
    size = len(samples) // count
    return percentile(
        sorted(
            percentile(sorted(samples[i * size:(i + 1) * size]), q)
            for i in range(count)
        ),
        0.25,
    )


def summarize(values: list[float]) -> dict:
    """Median, extremes, quartiles and count of one metric's samples."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _q2, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered),
        "min": ordered[0],
        "max": ordered[-1],
        "q1": q1,
        "q3": q3,
        "n": len(ordered),
    }


#: ns per iteration of the gauge loop that counts as speed 1.0 (about
#: what the 2-core sandbox delivers when its host is quiet).
REFERENCE_NS_PER_ITER = 600.0


class SpeedGauge:
    """How fast the sandbox is *while* a pass measures.

    The host's speed drifts by up to 1.6x over minutes and by 30 % between
    passes seconds apart, for reasons no code in this repo controls.  The
    load generators therefore run a fixed hashlib + bytes loop in short
    slices between operations of the measured phase.  Slice time is
    excluded from the phase's wall time, and every time and rate the pass
    reports is scaled by ``slowdown`` — restated at the reference speed —
    which halves the run-to-run spread.  The loop touches nothing under
    ``src/``, so a change to the program cannot move it.
    """

    def __init__(self) -> None:
        self.iterations = 0
        self.ns = 0
        self._block = bytes(range(64))

    def slice(self, iterations: int = 200) -> None:
        """One short burst of the fixed loop (~0.1 ms)."""
        block = self._block
        sha256 = hashlib.sha256
        started = time.perf_counter_ns()
        for _ in range(iterations):
            block = sha256(block + b"\x00").digest() + block[:32]
        self.ns += time.perf_counter_ns() - started
        self.iterations += iterations
        self._block = block

    @property
    def ns_per_iter(self) -> float:
        return self.ns / self.iterations

    @property
    def slowdown(self) -> float:
        """> 1 when the sandbox ran slower than the reference speed."""
        return self.ns_per_iter / REFERENCE_NS_PER_ITER


def at_reference_speed(metrics: dict, slowdown: float) -> dict:
    """Restate every time and rate measured during the pass at speed 1.0."""
    scaled = {}
    for name, value in metrics.items():
        unit = unit_of(name)
        if unit in ("ms", "us/op"):
            value = value / slowdown
        elif unit == "ops/s":
            value = value * slowdown
        scaled[name] = value
    return scaled
