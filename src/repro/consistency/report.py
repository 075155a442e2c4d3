"""Uniform result type for all consistency checkers, and the one
entrance every exhaustive (exponential) checker prepares its input at."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import CheckerError
from repro.history.history import History


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a consistency check.

    ``ok`` is the verdict; ``condition`` names the checked notion
    ("linearizability", "causal-consistency", ...); ``violation`` describes
    the first failure found; ``witness`` optionally carries evidence — a
    satisfying linearization / views for positive results, the offending
    operations for negative ones.
    """

    ok: bool
    condition: str
    violation: str | None = None
    witness: Any = field(default=None, compare=False)

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.ok:
            return f"{self.condition}: OK"
        return f"{self.condition}: VIOLATED ({self.violation})"


def ok(condition: str, witness: Any = None) -> CheckResult:
    """A passing :class:`CheckResult` for ``condition``."""
    return CheckResult(ok=True, condition=condition, witness=witness)


def violated(condition: str, violation: str, witness: Any = None) -> CheckResult:
    """A failing :class:`CheckResult` describing the first violation."""
    return CheckResult(ok=False, condition=condition, violation=violation, witness=witness)


def prepare_exhaustive(history: History, max_ops: int, checker: str) -> History:
    """Completion-extend ``history`` for an exhaustive search, or raise.

    The searches start every register at BOTTOM and are exponential, so a
    compacted history (non-empty checkpoint ``base``: the witness write of
    a correct read may be pruned) or one longer than ``max_ops`` raises
    :class:`CheckerError` rather than yield a false or never-arriving verdict.
    """
    prepared = history.completed_for_checking()
    prepared.assert_unique_write_values()
    if prepared.base:
        raise CheckerError(
            f"exhaustive {checker} checker starts from the initial values; a "
            "history compacted behind a checkpoint base is for the polynomial "
            "check_linearizability / check_causal_consistency"
        )
    if len(prepared) > max_ops:
        raise CheckerError(
            f"exhaustive {checker} checker limited to {max_ops} ops, got {len(prepared)}"
        )
    return prepared
