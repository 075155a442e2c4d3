"""Benchmark-suite configuration.

Each experiment benchmark runs the corresponding ``repro.experiments``
module in *quick* mode under pytest-benchmark and asserts the headline
findings, so ``pytest benchmarks/ --benchmark-only`` both times the
harness and re-verifies every reproduced claim.  Timing floors (e.g.
the >= 1.5x hot-path speedups, the <= 5% disabled-registry overhead)
are plain assertions inside the tests, so they gate under
``--benchmark-disable`` too.  Performance *claims* are decided by the
end-to-end benchmark instead (``BENCHMARK.json``, ``benchmarks/e2e``;
see PERFORMANCE.md).

Every benchmark that needs randomness draws it from the ``bench_seed`` /
``bench_rng`` fixtures.  The seed defaults to :data:`BENCH_SEED` and
can be overridden with ``REPRO_BENCH_SEED=<n>``, so a run can always be
replayed bit-for-bit.
"""

from __future__ import annotations

import os
import random
import time

import pytest

#: The suite-wide RNG seed; override with REPRO_BENCH_SEED.
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "20260730"))


@pytest.fixture(scope="session")
def bench_seed() -> int:
    """The pinned (surfaceable) RNG seed of this benchmark run."""
    return BENCH_SEED


@pytest.fixture
def bench_rng(bench_seed) -> random.Random:
    """A fresh, seed-pinned RNG per test (no cross-test coupling)."""
    return random.Random(bench_seed)


@pytest.fixture(scope="session")
def best_seconds():
    """``best_seconds(fn, repeats=5)``: the minimum wall-clock of
    ``repeats`` runs of ``fn`` — the noise floor the in-test speedup and
    overhead floors compare."""

    def measure(fn, repeats: int = 5) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    return measure


@pytest.fixture
def run_experiment(benchmark):
    """Benchmark an experiment module and return its (quick) result."""

    def runner(module):
        return benchmark.pedantic(
            lambda: module.run(quick=True), rounds=1, iterations=1, warmup_rounds=0
        )

    return runner
