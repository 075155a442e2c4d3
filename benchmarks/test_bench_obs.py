"""Overhead benchmarks for the ``repro.obs`` metrics registry.

The observability instrumentation sits on the protocol hot seams —
session op issue/settle, batching flushes, server group commits — and
its contract is that the *default* (disabled) registry is a near-no-op:
at most 5% on top of the digest-chain and TLV-encode hot paths that
dominate those seams.  Each registry-off test times a protocol-shaped
loop twice:

* **bare** — the digest/encode work alone, shaped exactly like
  ``test_bench_perf.py``'s workloads;
* **instrumented** — the same work plus the registry calls a hot seam
  makes per operation (counter bumps and one histogram observation, the
  density of ``Session._submit``/``_settle`` and the flush seam).

With the default ``NullRegistry`` the instrumented/bare ratio must stay
under :data:`OVERHEAD_BUDGET`; timings are best-of-``k`` minima and the
ratio gets a bounded retry so one noisy scheduler tick cannot fail the
gate.  The instrumented loops are also timed by pytest-benchmark under
a live :class:`~repro.obs.registry.Registry`: real bucket arithmetic is
a cost we report but do not gate on.
"""

from __future__ import annotations

import gc

from repro.common.encoding import encode
from repro.common.types import OpKind
from repro.obs.registry import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    Registry,
    get_registry,
    use_registry,
)
from repro.ustor.digests import extend_digest

#: Ceiling on instrumented/bare wall-clock with the registry disabled.
OVERHEAD_BUDGET = 1.05

#: Interleaved sampling rounds bounding the noise-floor search.
MEASURE_ATTEMPTS = 16


def _measure_overhead(best_seconds, bare, instrumented) -> float:
    """The instrumented/bare ratio of the two loops' noise floors.

    A single back-to-back timing pair swings by ±10% on a busy machine —
    far more than the ~2% effect under measurement — so the ratio is
    taken over the *global minima* of interleaved best-of-k samples:
    minima converge on each loop's true floor, where the instrumented
    loop's strictly-greater work shows up as a ratio just above 1.
    Sampling stops once the floors have separated cleanly (ratio between
    1 and the budget) or at the attempt bound, so one preempted run can
    neither flake the gate nor end the measurement early.
    """
    bare()  # warm caches (digest memo / encoding) outside the timings
    instrumented()
    best_bare = best_instrumented = float("inf")
    ratio = float("inf")
    was_collecting = gc.isenabled()
    gc.disable()  # a collection pause dwarfs the effect being measured
    try:
        for attempt in range(MEASURE_ATTEMPTS):
            best_bare = min(best_bare, best_seconds(bare))
            best_instrumented = min(
                best_instrumented, best_seconds(instrumented)
            )
            ratio = best_instrumented / best_bare
            if attempt >= 1 and 1.0 <= ratio <= OVERHEAD_BUDGET:
                break
    finally:
        if was_collecting:
            gc.enable()
    return ratio


# --------------------------------------------------------------------- #
# Digest-chain ops under the session issue/settle seam
# --------------------------------------------------------------------- #

DIGEST_OPS, CHAIN_LENGTH, CLIENTS = 32, 64, 8


def _bare_digest_ops(ops: int, length: int, clients: int):
    for _ in range(ops):
        digest = None
        for k in range(length):
            digest = extend_digest(digest, k % clients)


def _instrumented_digest_ops(ops, length, clients, issued, settled, latency):
    # One op = one updateVersion-sized chain fold; the seam bumps the
    # issued/settled counters and observes one latency per op — exactly
    # Session._submit/_settle's density.
    for _ in range(ops):
        issued.inc()
        digest = None
        for k in range(length):
            digest = extend_digest(digest, k % clients)
        settled.inc()
        latency.observe(float(length))


def test_digest_seam_overhead_with_registry_off(best_seconds):
    registry = get_registry()
    assert not registry.enabled, "benchmarks assume the default NullRegistry"
    issued = registry.counter("bench.obs.issued")
    settled = registry.counter("bench.obs.settled")
    latency = registry.histogram("bench.obs.latency", LATENCY_BUCKETS)

    ratio = _measure_overhead(
        best_seconds,
        lambda: _bare_digest_ops(DIGEST_OPS, CHAIN_LENGTH, CLIENTS),
        lambda: _instrumented_digest_ops(
            DIGEST_OPS, CHAIN_LENGTH, CLIENTS, issued, settled, latency
        ),
    )
    assert ratio <= OVERHEAD_BUDGET, (
        f"disabled-registry instrumentation costs {100 * (ratio - 1):.1f}% "
        f"on the digest hot path (budget {100 * (OVERHEAD_BUDGET - 1):.0f}%)"
    )


def test_digest_seam_cost_with_registry_on(benchmark):
    with use_registry(Registry()) as registry:
        issued = registry.counter("bench.obs.issued")
        settled = registry.counter("bench.obs.settled")
        latency = registry.histogram("bench.obs.latency", LATENCY_BUCKETS)
        benchmark(
            _instrumented_digest_ops,
            DIGEST_OPS, CHAIN_LENGTH, CLIENTS, issued, settled, latency,
        )
        # Live recording really happened (not optimised away).
        assert issued.value > 0
        assert latency.count > 0


# --------------------------------------------------------------------- #
# TLV-encode batches under the flush / group-commit seam
# --------------------------------------------------------------------- #

ENCODE_ROUNDS = 200


def _protocol_payloads(n: int = 8) -> list[tuple]:
    digest = b"\xaa" * 32
    vector = tuple(range(n))
    digests = tuple(digest for _ in range(n))
    return [
        ("SUBMIT", OpKind.WRITE, 3, 17),
        ("SUBMIT", OpKind.READ, 5, 42),
        ("DATA", 17, digest),
        ("COMMIT", vector, digests),
        ("PROOF", digest),
        ("VALUE", b"v" * 64),
    ]


def _bare_encode_batches(rounds: int, payloads: list[tuple]):
    for _ in range(rounds):
        for payload in payloads:
            encode(*payload)


def _instrumented_encode_batches(rounds, payloads, flushes, batch_ops):
    # One round = one flushed batch / group commit: a counter bump and
    # one batch-size observation per batch, not per frame — the density
    # of Session.flush and the server's group-commit seam.
    size = float(len(payloads))
    for _ in range(rounds):
        for payload in payloads:
            encode(*payload)
        flushes.inc()
        batch_ops.observe(size)


def test_encode_seam_overhead_with_registry_off(best_seconds):
    registry = get_registry()
    assert not registry.enabled, "benchmarks assume the default NullRegistry"
    flushes = registry.counter("bench.obs.flushes")
    batch_ops = registry.histogram("bench.obs.batch_ops", COUNT_BUCKETS)
    payloads = _protocol_payloads()

    ratio = _measure_overhead(
        best_seconds,
        lambda: _bare_encode_batches(ENCODE_ROUNDS, payloads),
        lambda: _instrumented_encode_batches(
            ENCODE_ROUNDS, payloads, flushes, batch_ops
        ),
    )
    assert ratio <= OVERHEAD_BUDGET, (
        f"disabled-registry instrumentation costs {100 * (ratio - 1):.1f}% "
        f"on the encode hot path (budget {100 * (OVERHEAD_BUDGET - 1):.0f}%)"
    )


def test_encode_seam_cost_with_registry_on(benchmark):
    payloads = _protocol_payloads()
    with use_registry(Registry()) as registry:
        flushes = registry.counter("bench.obs.flushes")
        batch_ops = registry.histogram("bench.obs.batch_ops", COUNT_BUCKETS)
        benchmark(
            _instrumented_encode_batches, ENCODE_ROUNDS, payloads, flushes, batch_ops
        )
        assert flushes.value > 0
        assert batch_ops.count > 0
