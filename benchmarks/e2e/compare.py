"""Compare two results of ``run.py``: ``compare.py A.json B.json``.

``A`` is the base (the parent commit, or the first of two runs of the
same code), ``B`` the candidate.  For every workload and every gated
metric the passes of all of a file's runs are pooled (``--repeat K``
gives ``3 K`` samples); each side is shown as its median and quartiles,
then the ratio ``B / A`` with its base, then a verdict:

* ``within bound`` — B's median is no worse than A's by more than the
  metric's bound;
* ``worse`` — it is;
* ``unresolved`` — either side's quartile spread (as a share of its
  median) is wider than the bound, so the run cannot tell.

One row per workload and metric; never a combined score.  Exit status is
non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import END_TO_END, GATED_EXACT, better_of, summarize, unit_of  # noqa: E402

BOUNDS = {**{name: spec[2] for name, spec in END_TO_END.items()}, **GATED_EXACT}


def pooled(result: dict, workload: str, metric: str) -> list[float]:
    """``metric``'s per-pass values over every run in one result file."""
    return [
        one["metrics"][metric]
        for run in result["runs"]
        if workload in run["workloads"]
        for one in run["workloads"][workload]["passes"]
        if metric in one["metrics"]
    ]


def verdict(base: dict, candidate: dict, metric: str) -> str:
    bound = BOUNDS[metric]
    if base["median"] == 0:
        return "worse" if candidate["median"] > 0 else "within bound"
    spread = max(
        (s["q3"] - s["q1"]) / s["median"] for s in (base, candidate) if s["median"]
    )
    if spread > bound:
        return "unresolved"
    change = (candidate["median"] - base["median"]) / base["median"]
    if better_of(metric) == "higher":
        change = -change
    return "worse" if change > bound else "within bound"


def compare(base: dict, candidate: dict) -> list[dict]:
    rows = []
    workloads = [w for w in base["runs"][0]["workloads"]
                 if w in candidate["runs"][0]["workloads"]]
    for workload in workloads:
        for metric in BOUNDS:
            a = pooled(base, workload, metric)
            b = pooled(candidate, workload, metric)
            if not a or not b:
                continue  # the metric does not apply to this workload
            a, b = summarize(a), summarize(b)
            rows.append({
                "workload": workload, "metric": metric, "base": a, "candidate": b,
                "ratio": b["median"] / a["median"] if a["median"] else None,
                "bound": BOUNDS[metric], "verdict": verdict(a, b, metric),
            })
    return rows


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, candidate = (
        json.loads(Path(path).read_text(encoding="utf-8")) for path in sys.argv[1:]
    )
    rows = compare(base, candidate)
    cell = lambda s: f"{s['median']:.4f} [{s['q1']:.4f}, {s['q3']:.4f}] n={s['n']}"  # noqa: E731
    for row in rows:
        ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.4f}"
        print(
            f"{row['workload']:24s} {row['metric']:24s} {unit_of(row['metric']):8s} "
            f"A {cell(row['base'])}  B {cell(row['candidate'])}  "
            f"B/A {ratio} (base {row['base']['median']:.4f})  "
            f"bound {row['bound']:.0%} {better_of(row['metric'])}-is-better  "
            f"-> {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
