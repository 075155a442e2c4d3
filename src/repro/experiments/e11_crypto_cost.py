"""E11 — cryptographic cost per operation (Section 5 complexity).

Counts the signature operations Algorithm 1 performs per operation
(2 sign on SUBMIT, 2 sign on COMMIT, plus verifications proportional to
the concurrency level) and measures wall-clock sign/verify cost for the
three schemes, showing what the protocol costs with real Ed25519 versus
the HMAC stand-in the test-suite uses.
"""

from __future__ import annotations

import time

from repro.analysis.tables import format_table
from repro.crypto.signatures import make_scheme
from repro.experiments.base import ExperimentResult


def _bench(scheme_name: str, iterations: int) -> tuple[float, float]:
    scheme = make_scheme(scheme_name, 2)
    payload = b"x" * 128
    start = time.perf_counter()
    signatures = [scheme.sign(0, payload) for _ in range(iterations)]
    sign_us = (time.perf_counter() - start) / iterations * 1e6
    start = time.perf_counter()
    for signature in signatures:
        assert scheme.verify(0, signature, payload)
    verify_us = (time.perf_counter() - start) / iterations * 1e6
    return sign_us, verify_us


def run(quick: bool = False) -> ExperimentResult:
    iterations = 50 if quick else 300
    rows = []
    measured = {}
    for scheme_name in ("ed25519", "hmac", "insecure"):
        sign_us, verify_us = _bench(scheme_name, iterations)
        measured[scheme_name] = (sign_us, verify_us)
        # Algorithm 1 per-operation budget: 4 signatures (SUBMIT, DATA,
        # COMMIT, PROOF); verifications: 1 (line 35) + |L| * 2 (lines 41,
        # 43) + 2 for reads (lines 49, 50).  With low concurrency |L| ~ 0.
        per_op = 4 * sign_us + 3 * verify_us
        rows.append(
            [scheme_name, round(sign_us, 1), round(verify_us, 1), round(per_op, 1)]
        )
    table = format_table(
        ["scheme", "sign (us)", "verify (us)", "per-op crypto (us, |L|=0 read)"],
        rows,
        title=f"Signature cost ({iterations} iterations each)",
    )
    findings = {
        "constant number of signatures per op": "4 sign + (3 + 2|L|) verify",
        "hmac stand-in speedup over ed25519 (sign)": measured["ed25519"][0]
        / max(measured["hmac"][0], 1e-9),
    }
    return ExperimentResult(
        experiment_id="E11",
        title="Cryptographic cost per operation",
        paper_claim=(
            "USTOR needs a constant number of signature generations per "
            "operation and verifications linear in the number of concurrent "
            "operations (Section 5)."
        ),
        table=table,
        findings=findings,
    )
