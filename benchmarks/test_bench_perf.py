"""Before/after benchmarks of the optimized protocol hot paths.

Each test times a protocol-shaped workload twice — once through the
*reference* implementation (the executable specification kept alongside
each fast path) and once through the *optimized* one — and asserts a
speedup floor on the ratio.  Both timings are taken in the same process
on the same machine, so the floor holds across hardware in a way a raw
duration would not.  The stability-cut poll has no reference to race
and is timed by pytest-benchmark alone.

Workload shapes mirror the protocol:

* the digest chain is extended link by link and *re-observed* by every
  client that processes a REPLY naming it (``n`` observers per link);
* encode payloads are the SUBMIT/COMMIT/DATA signature payloads of
  Algorithm 1 with realistic vector sizes;
* decode payloads are store-codec-sized state blobs;
* signature verification repeats across observers exactly as COMMIT and
  PROOF signatures do.
"""

from __future__ import annotations

from repro.common.encoding import (
    decode,
    decode_reference,
    encode,
    encode_reference,
    reset_encoding_caches,
)
from repro.common.types import OpKind
from repro.crypto.keystore import KeyStore
from repro.crypto.signatures import make_scheme
from repro.faust.stability import StabilityTracker
from repro.perf.profile import reset_hot_path_caches
from repro.ustor.digests import (
    extend_digest,
    extend_digest_reference,
    reset_chain_cache,
)
from repro.ustor.version import Version

#: Floor on the reference/optimized ratio of the headline hot paths
#: (digest chain, TLV encode/decode, verification dedup).
REQUIRED_SPEEDUP = 1.5


# --------------------------------------------------------------------- #
# Digest chain updates (Algorithm 1 lines 44-47)
# --------------------------------------------------------------------- #


def _chain_workload(extend, observers: int, length: int, clients: int):
    """``observers`` clients each folding the same ``length``-link chain —
    the shape of updateVersion over a busy pending list."""
    final = None
    for _ in range(observers):
        digest = None
        for k in range(length):
            digest = extend(digest, k % clients)
        final = digest
    return final


def test_digest_chain_speedup(best_seconds):
    observers, length, clients = 8, 128, 8

    reference_final = _chain_workload(
        extend_digest_reference, observers, length, clients
    )
    optimized_final = _chain_workload(extend_digest, observers, length, clients)
    assert optimized_final == reference_final  # byte-identical fast path

    reference_seconds = best_seconds(
        lambda: _chain_workload(extend_digest_reference, observers, length, clients)
    )

    def optimized():
        reset_chain_cache()  # cold start: misses included in the timing
        _chain_workload(extend_digest, observers, length, clients)

    optimized_seconds = best_seconds(optimized)
    speedup = reference_seconds / optimized_seconds
    assert speedup >= REQUIRED_SPEEDUP


# --------------------------------------------------------------------- #
# TLV encode / decode (under every signature, hash and WAL record)
# --------------------------------------------------------------------- #


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


def test_tlv_encode_speedup(best_seconds):
    payloads = _protocol_payloads()
    rounds = 300

    for payload in payloads:  # byte-identical fast path
        assert encode(*payload) == encode_reference(*payload)

    def run(encoder):
        for _ in range(rounds):
            for payload in payloads:
                encoder(*payload)

    reference_seconds = best_seconds(lambda: run(encode_reference))

    def optimized():
        reset_encoding_caches()  # cold start: misses included in the timing
        run(encode)

    optimized_seconds = best_seconds(optimized)
    speedup = reference_seconds / optimized_seconds
    assert speedup >= REQUIRED_SPEEDUP


def test_tlv_decode_speedup(best_seconds):
    # A store-codec-shaped blob: nested sequences of ints, bytes, strings,
    # enum members and Nones, as persisted server state looks on disk.
    state_like = tuple(
        (
            i,
            OpKind.WRITE if i % 2 else OpKind.READ,
            b"\xcd" * 32,
            f"C{i}",
            None,
            tuple(range(8)),
            (True, False, -i * 1_000_003),
        )
        for i in range(16)
    )
    blob = encode(state_like)
    assert decode(blob, enums=(OpKind,)) == decode_reference(blob, enums=(OpKind,))
    rounds = 120

    def run(decoder):
        for _ in range(rounds):
            decoder(blob, enums=(OpKind,))

    reference_seconds = best_seconds(lambda: run(decode_reference))
    optimized_seconds = best_seconds(lambda: run(decode))
    speedup = reference_seconds / optimized_seconds
    assert speedup >= REQUIRED_SPEEDUP


# --------------------------------------------------------------------- #
# Deduplicated signature verification (Algorithm 1 lines 35/41/49)
# --------------------------------------------------------------------- #


def test_verification_dedup_speedup(best_seconds):
    """COMMIT/PROOF signatures are re-verified by every observing client;
    the shared per-keystore cache does the public-key work once.

    Ed25519 — the paper-faithful scheme — is where dedup matters: one
    verification costs tens of microseconds of curve arithmetic.  Both
    paths pay the canonical encode; the reference path re-runs the scheme
    per observer (a fresh keystore's cold cache), the optimized path hits
    the shared verdict cache.
    """
    n = 8
    digest = b"\xee" * 32
    vector = tuple(range(n))
    digests = tuple(digest for _ in range(n))
    payload = ("COMMIT", vector, digests)

    scheme = make_scheme("ed25519", n)
    store = KeyStore(n, scheme=scheme)
    signature = store.signer(0).sign(*payload)
    observers = [store.signer(i) for i in range(n)]
    rounds = 20

    def reference():
        # What every observer did before the shared cache: canonical
        # encode + a full scheme verification, per observation.
        for _ in range(rounds):
            for _observer in observers:
                assert scheme.verify(0, signature, encode(*payload))

    def optimized():
        for _ in range(rounds):
            for observer in observers:
                assert observer.verify(0, signature, *payload)

    optimized()  # warm the shared cache once: steady-state protocol shape
    reference_seconds = best_seconds(reference, repeats=3)
    optimized_seconds = best_seconds(optimized, repeats=3)
    speedup = reference_seconds / optimized_seconds
    assert speedup >= REQUIRED_SPEEDUP


# --------------------------------------------------------------------- #
# Stability-cut advancement (polled after every simulation event)
# --------------------------------------------------------------------- #


def test_stability_cut_poll(benchmark):
    n = 32
    tracker = StabilityTracker(client_id=0, num_clients=n)
    digest = b"\x11" * 32
    # Drive the tracker through n versions so W_i is populated.
    for j in range(n):
        vector = tuple(1 if k <= j else 0 for k in range(n))
        digests = tuple(digest if k <= j else None for k in range(n))
        tracker.absorb(j, Version(vector, digests), now=float(j))
    w = list(tracker.stability_cut())

    # The semantic guarantee: the O(1) cached minimum equals the rescan.
    assert tracker.stable_timestamp_for_all() == min(w)
    # Its cost is an interpreter property, so it is timed, not floored.
    benchmark(tracker.stable_timestamp_for_all)


def teardown_module(module):
    """Leave process-wide caches fresh for whatever runs next."""
    reset_hot_path_caches()
