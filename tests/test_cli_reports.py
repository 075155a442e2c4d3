"""Six ``repro run`` reports, pinned byte for byte.

The report is the CLI's whole output: the run summary, audit verdicts,
per-shard checker labels, client status, message counts and the
``--metrics`` exposition.  ``tests/data/cli_reports.json`` holds the SHA-256
and line count of each report below, so a change to how a deployment is
opened, wired or read off shows up as a changed digest even when every
behavioural test still passes.

Two more runs check that ``--span-log`` only adds its own ``# span
log:`` line: tracing observes the workload, it does not change how the
workload is driven.

Each report runs in a fresh interpreter: ``--metrics`` prints the
process-wide hot-path cache counters, which an earlier run in the same
process would inflate.  The ``--span-log`` path is replaced by a fixed
marker before hashing.

Regenerate with ``PYTHONPATH=src python tests/test_cli_reports.py`` only
when a report is *meant* to change.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

CORPUS = Path(__file__).parent / "data" / "cli_reports.json"
SRC = Path(__file__).resolve().parent.parent / "src"
SPAN_LOG = "{span_log}"

INVOCATIONS = {
    "default-checked": "--clients 3 --ops 6 --check --history --timeline",
    "faust-log-outage": (
        "--backend faust --storage log --outage 25 20 --clients 3 --ops 6 "
        "--check --metrics"
    ),
    "faust-rollback-metrics": (
        "--backend faust --server rollback --metrics --audit-every 50"
    ),
    "cluster-audited": (
        "--backend cluster --clients 6 --shards 3 --ops 3 --check "
        "--audit-every 50 --metrics --history"
    ),
    "cluster-replicated-tampering": (
        "--backend cluster --clients 4 --shards 2 --replicas 3 --counter "
        "durable --batch 4 --server tampering --server-replica 1 --metrics"
    ),
    "cluster-split-brain-spans": (
        "--backend cluster --clients 6 --shards 2 --server split-brain "
        f"--server-shard 1 --metrics --span-log {SPAN_LOG}"
    ),
}


#: Runs whose report must not depend on ``--span-log``: spans observe
#: the workload, they do not change how it is driven.
SPAN_LOG_INVARIANT = {
    "default-history": "--clients 3 --ops 6 --history",
    "cluster-split-brain-metrics": (
        "--backend cluster --clients 6 --shards 2 --server split-brain "
        "--server-shard 1 --metrics"
    ),
}


def report(name: str) -> str:
    """The stdout of one pinned invocation, run in a fresh interpreter."""
    return run(INVOCATIONS[name])


def run(invocation: str) -> str:
    """The stdout of ``repro run <invocation>`` in a fresh interpreter."""
    with tempfile.TemporaryDirectory() as tmp:
        span_log = os.path.join(tmp, "spans.jsonl")
        args = invocation.replace(SPAN_LOG, span_log).split()
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-m", "repro", "run", *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout.replace(span_log, SPAN_LOG)


def fingerprint(text: str) -> dict:
    """What the corpus keeps of a report: its digest and its length."""
    return {
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "lines": text.count("\n"),
    }


def capture() -> dict:
    """Every pinned report's fingerprint, two interpreters at a time."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        reports = dict(zip(INVOCATIONS, pool.map(report, INVOCATIONS)))
    return {name: fingerprint(text) for name, text in reports.items()}


@pytest.fixture(scope="module")
def captured() -> dict:
    return capture()


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_report_is_pinned(name, captured):
    expected = json.loads(CORPUS.read_text())
    assert set(expected) == set(INVOCATIONS)
    assert captured[name] == expected[name], (
        f"'repro run {INVOCATIONS[name]}' printed a different report"
    )


@pytest.mark.parametrize("name", sorted(SPAN_LOG_INVARIANT))
def test_span_log_does_not_change_the_report(name):
    plain = SPAN_LOG_INVARIANT[name]
    with ThreadPoolExecutor(max_workers=2) as pool:
        without, with_spans = pool.map(run, [plain, f"{plain} --span-log {SPAN_LOG}"])
    lines = with_spans.splitlines(keepends=True)
    assert sum(line.startswith("# span log: ") for line in lines) == 1
    assert "".join(l for l in lines if not l.startswith("# span log: ")) == without


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {CORPUS}")
