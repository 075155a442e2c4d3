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
from typing import Any, Callable

from repro.api import FaustParams, SystemConfig, get_backend
from repro.sim.network import LatencyModel
from repro.workloads.runner import StorageSystem


def build_system(
    backend: str = "faust",
    *,
    num_clients: int,
    seed: int = 0,
    scheme: str = "hmac",
    latency: LatencyModel | None = None,
    offline_latency: LatencyModel | None = None,
    server_factory: Callable | None = None,
    commit_piggyback: bool = False,
    default_timeout: float = 1_000.0,
    **faust_overrides,
) -> StorageSystem:
    """Open a deployment on a named backend (``faust`` / ``ustor`` /
    ``lockstep`` / ``unchecked``) through :mod:`repro.api`.

    Experiments are parameterized over *guarantees* rather than wired to a
    protocol: remaining keyword arguments (``delta``, ``dummy_read_period``,
    ...) tune the fail-aware layer and are only meaningful with the
    ``faust`` backend.
    """
    config = SystemConfig(
        num_clients=num_clients,
        seed=seed,
        scheme=scheme,
        latency=latency,
        offline_latency=offline_latency,
        server_factory=server_factory,
        commit_piggyback=commit_piggyback,
        default_timeout=default_timeout,
        faust=FaustParams(**faust_overrides),
    )
    return get_backend(backend).open_system(config)


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
