"""Run every experiment and regenerate the EXPERIMENTS.md body.

Usage::

    python -m repro.experiments            # full runs, print to stdout
    python -m repro.experiments --quick    # shrunk sweeps
    python -m repro.experiments --write    # rewrite EXPERIMENTS.md in-place
    python -m repro.experiments --only E4  # one section (E04 works too)
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from pathlib import Path

from repro.experiments import EXPERIMENTS

EXPERIMENTS_MD = Path(__file__).resolve().parents[3] / "EXPERIMENTS.md"

HEADER = """# EXPERIMENTS — paper vs. measured

Reproduction record for *Fail-Aware Untrusted Storage* (Cachin, Keidar,
Shraer; DSN 2009).  The paper's evaluation is analytical — four figures
and a set of complexity/liveness claims, no numeric tables — so each
experiment below regenerates a figure scenario or renders a claim as a
measured table.  Regenerate this file with:

    python -m repro.experiments --write

Benchmarks asserting the same shapes run under pytest:

    pytest benchmarks/ --benchmark-only

Figures 1 and 4 (architecture diagrams) map to the package layout rather
than to an experiment: Figure 1's clients/server/offline-channel topology
is `repro.sim` + `repro.workloads.runner`, Figure 4's FAUST-over-USTOR
stack is `repro.faust.client` wrapping `repro.ustor.client`.

"""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="shrink sweeps")
    parser.add_argument(
        "--write", action="store_true", help="rewrite EXPERIMENTS.md at the repo root"
    )
    parser.add_argument(
        "--only", default=None, help="run a single experiment id (e.g. E4)"
    )
    args = parser.parse_args(argv)

    selected = list(EXPERIMENTS.values())
    if args.only is not None:
        if args.write:
            print(
                "--only renders one section but --write replaces all of "
                "EXPERIMENTS.md; run --write without --only",
                file=sys.stderr,
            )
            return 2
        # ``e01`` / ``E01`` / ``e1`` all name E1.
        wanted = re.sub(r"^[eE]0*(?=\d)", "E", args.only)
        if wanted not in EXPERIMENTS:
            print(
                f"unknown experiment {args.only!r}; known ids: "
                f"{', '.join(EXPERIMENTS)}",
                file=sys.stderr,
            )
            return 2
        selected = [EXPERIMENTS[wanted]]

    sections = [HEADER]
    for module in selected:
        started = time.perf_counter()
        result = module.run(quick=args.quick)
        elapsed = time.perf_counter() - started
        print(f"[{result.experiment_id}] {result.title} ({elapsed:.1f}s)", file=sys.stderr)
        sections.append(result.render())

    body = "\n".join(sections)
    if args.write:
        EXPERIMENTS_MD.write_text(body)
        print(f"wrote {EXPERIMENTS_MD}", file=sys.stderr)
    else:
        print(body)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
