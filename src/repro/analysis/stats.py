"""Statistics for the experiment harness.

The headline analytical claims of the paper are *shape* claims ("overhead
is O(n)", "one round per operation", "who blocks and who doesn't"), so the
module focuses on the tools those need: linear regression for complexity
fits, sample summaries (mean / nearest-rank percentiles) and simple trace
reductions, which read the trace's per-kind message tallies
(:meth:`~repro.sim.trace.SimTrace.message_count`,
:meth:`~repro.sim.trace.SimTrace.total_bytes`), not records.  ``numpy`` is deliberately not required: sample counts are
small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.sim.trace import SimTrace


@dataclass(frozen=True)
class LinearFit:
    """Least-squares fit of ``y ~ slope * x + intercept``."""

    slope: float
    intercept: float
    r_squared: float

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Ordinary least squares (no numpy dependency for two sums)."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need two equal-length samples of size >= 2")
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    if sxx == 0:
        raise ValueError("degenerate x sample")
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope=slope, intercept=intercept, r_squared=r_squared)


def bytes_per_operation(trace: SimTrace, operations: int, kinds: Sequence[str]) -> float:
    """Average wire bytes attributable to each completed operation."""
    if operations <= 0:
        raise ValueError("operations must be positive")
    total = sum(trace.total_bytes(kind) for kind in kinds)
    return total / operations


def messages_per_operation(trace: SimTrace, operations: int, kinds: Sequence[str]) -> float:
    if operations <= 0:
        raise ValueError("operations must be positive")
    total = sum(trace.message_count(kind) for kind in kinds)
    return total / operations


def critical_path_rounds(trace: SimTrace, operations: int) -> float:
    """Message rounds on the operation critical path.

    For USTOR the critical path is SUBMIT -> REPLY (one round); COMMIT is
    asynchronous.  Computed as REPLY messages per completed operation —
    exactly one for a correct server.
    """
    if operations <= 0:
        raise ValueError("operations must be positive")
    return trace.message_count("REPLY") / operations


@dataclass
class Summary:
    """Summary statistics of a sample."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    stddev: float

    def format(self, unit: str = "") -> str:
        suffix = f" {unit}" if unit else ""
        return (
            f"n={self.count} mean={self.mean:.3f}{suffix} "
            f"p50={self.p50:.3f}{suffix} p95={self.p95:.3f}{suffix} "
            f"max={self.maximum:.3f}{suffix}"
        )


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile on an already-sorted sample."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def summarize(values: Iterable[float]) -> Summary:
    """Compute a :class:`Summary`; raises ``ValueError`` on empty input."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("cannot summarize an empty sample")
    count = len(data)
    mean = sum(data) / count
    variance = sum((v - mean) ** 2 for v in data) / count
    return Summary(
        count=count,
        mean=mean,
        minimum=data[0],
        maximum=data[-1],
        p50=percentile(data, 0.50),
        p95=percentile(data, 0.95),
        stddev=math.sqrt(variance),
    )
