"""Common scaffolding for the experiment harness.

Every experiment module exposes ``run(quick: bool = False) ->
ExperimentResult``; the result carries the regenerated table (the
rows/series the paper reports, or the executable form of an analytical
claim) plus machine-checkable findings that the benchmark suite asserts.

``quick`` shrinks sweeps for use under pytest-benchmark; the full-size run
is what EXPERIMENTS.md records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class ExperimentResult:
    """Outcome of one experiment."""

    experiment_id: str
    title: str
    paper_claim: str
    table: str
    findings: dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            f"## {self.experiment_id} — {self.title}",
            "",
            f"**Paper claim.** {self.paper_claim}",
            "",
            "```",
            self.table,
            "```",
            "",
        ]
        if self.findings:
            lines.append("**Measured findings.**")
            lines.append("")
            for key, value in self.findings.items():
                lines.append(f"- {key}: {_fmt(value)}")
            lines.append("")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)
