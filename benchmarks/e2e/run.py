"""The repo benchmark: one command, every metric by name with its unit.

Two ways in, one measurement underneath (a *pass*: ``worker.py`` in a
fresh subprocess, verify phase included):

* **Full run** — ``python benchmarks/e2e/run.py --seed N [--workload W]
  [--scale F] [--traced] [--repeat K]``: three round-robin passes over
  the workloads (A B C D, A B C D, A B C D) so minute-scale machine
  drift is spread across all of them, each workload's detection canary,
  optionally one traced pass per workload at half the op count, a table
  of every metric, and one JSON result under ``results/``.
* **Contract run** — what ``BENCHMARK.json`` names: ``--workload W
  --seed N --seconds S --trace 0|1``.  Three passes of the one workload,
  sized so they measure about ``S`` seconds in total at seed speed, plus
  that workload's canary.  The last stdout line is the contract's JSON
  object: end-to-end medians with ``--trace 0``; with ``--trace 1`` the
  first pass stays untraced (the base of ``trace.overhead_frac``), the
  other two are traced and every per-layer metric is reported (0 where
  the layer does not run on that workload).

A metric's reported value is the median over passes.  Exit status is
non-zero when any verify phase fails, any canary does not fire, or an
honest workload raises ``fail``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from metrics import (  # noqa: E402
    END_TO_END,
    PASS_SECONDS,
    PASSES,
    PER_LAYER,
    summarize,
    unit_of,
)
from workloads import WORKLOADS  # noqa: E402

WORK = HERE / "_work"
RESULTS = HERE / "results"
#: A pass that takes longer than this is a hung pass, not a slow one.
PASS_TIMEOUT = 170.0

#: The canary that exercises the same stack as each workload.
CANARY = {
    "tcp_mixed_ed25519": ("tcp_tampering", "ed25519"),
    "tcp_reads_hmac": ("tcp_tampering", "hmac"),
    "sim_faust_bounded": ("split_brain", "hmac"),
    "sim_replica3_writes_4k": ("replica_rollback", "hmac"),
}

FLUSH_POLICY = (
    "dir: storage opens, appends and closes the WAL file per frame and never "
    "fsyncs; TCP runs over the loopback interface; latencies are this "
    "sandbox's, not a device's or a network's"
)


def run_child(command: list[str], what: str) -> dict:
    """Run one harness child to its end; the JSON object on its last line.

    Whatever interrupts the wait (timeout, SIGTERM, Ctrl-C), the child is
    asked to stop with SIGTERM first — it owns a server process and tears
    it down in its own ``finally`` — and is always waited for.
    """
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=PASS_TIMEOUT)
    except BaseException:
        child.terminate()
        try:
            child.wait(timeout=15)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        raise
    lines = stdout.strip().splitlines()
    if child.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{what} exited with {child.returncode}")
    return json.loads(lines[-1])


def run_pass(
    workload: str, seed: int, scale: float, traced: bool, spans_out: Path | None = None
) -> dict:
    """One pass in a fresh subprocess; its result dict."""
    workdir = WORK / f"{os.getpid()}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
        "--traced", str(int(traced)), "--workdir", str(workdir),
        "--spawn-ns", str(time.monotonic_ns()),
    ]
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    try:
        result = run_child(command, f"pass of {workload}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result["load_1m_before"] > os.cpu_count():
        print(
            f"warning: 1-min load {result['load_1m_before']:.2f} exceeded "
            f"nproc={os.cpu_count()} before a pass of {workload}",
            file=sys.stderr,
        )
    return result


def run_canary(workload: str, seed: int) -> dict:
    """The detection canary that matches ``workload``'s stack."""
    canary, scheme = CANARY[workload]
    return run_child(
        [sys.executable, str(HERE / "canaries.py"), "--canary", canary,
         "--seed", str(seed), "--scheme", scheme],
        f"canary {canary}",
    )


def medians(passes: list[dict]) -> dict:
    """metric -> summary (median, min, max, quartiles, n) over passes."""
    names = sorted({name for p in passes for name in p["metrics"]})
    return {
        name: summarize([p["metrics"][name] for p in passes if name in p["metrics"]])
        for name in names
    }


def trace_extras(traced: list[dict], untraced: list[dict], canary: dict) -> dict:
    """The per-layer metrics no single traced pass can know:
    ``trace.overhead_frac`` = 1 - traced / untraced throughput (medians
    over their passes), and the canary's detection lag."""
    rate = lambda passes: statistics.median(  # noqa: E731
        p["metrics"]["ops_per_s"] for p in passes
    )
    extras = {"trace.overhead_frac": 1.0 - rate(traced) / rate(untraced)}
    if canary["detail"].get("detect_lag_vt") is not None:
        extras["faust.detect_lag_vt"] = canary["detail"]["detect_lag_vt"]
    return extras


def passes_ok(passes: list[dict]) -> bool:
    return all(not p["verify_problems"] and p["failed"] == 0 for p in passes)


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cryptography": importlib.metadata.version("cryptography"),
        "platform": platform.platform(),
        "git_commit": commit,
        "flush_policy": FLUSH_POLICY,
    }


# ---------------------------------------------------------------------- #
# Contract run (BENCHMARK.json's command)
# ---------------------------------------------------------------------- #


def contract_run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    scale = seconds / (PASSES * PASS_SECONDS)
    passes = [
        run_pass(workload, seed, scale, traced=trace and index > 0)
        for index in range(PASSES)
    ]
    canary = run_canary(workload, seed)
    if trace:
        untraced, traced = passes[:1], passes[1:]
        values = {name: s["median"] for name, s in medians(traced).items()}
        values.update(trace_extras(traced, untraced, canary))
        reported = {name: values.get(name, 0.0) for name in PER_LAYER}
    else:
        values = {name: s["median"] for name, s in medians(passes).items()}
        reported = {name: values[name] for name in END_TO_END}
    correct = passes_ok(passes) and canary["fired"]
    for index, result in enumerate(passes):
        for problem in result["verify_problems"]:
            print(f"pass {index}: verify: {problem}", file=sys.stderr)
    if not canary["fired"]:
        print(f"canary did not fire: {canary}", file=sys.stderr)
    for name, value in reported.items():
        print(f"{name:45s} {value:16.6f} {unit_of(name)}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p["planned"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in reported.items()
        },
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------- #
# Full run
# ---------------------------------------------------------------------- #


def full_run(names: list[str], seed: int, scale: float, traced: bool, stamp: str) -> dict:
    """Round-robin passes, canaries and (optionally) traced passes, once."""
    order = [name for _ in range(PASSES) for name in names]
    passes: dict[str, list[dict]] = {name: [] for name in names}
    for name in order:
        print(f"pass: {name} ...", file=sys.stderr)
        passes[name].append(run_pass(name, seed, scale, traced=False))
    result = {"pass_order": order, "workloads": {}, "ok": True}
    for name in names:
        print(f"canary: {name} ...", file=sys.stderr)
        canary = run_canary(name, seed)
        entry = {
            "why": " ".join(WORKLOADS[name].__doc__.split()),
            "metrics": medians(passes[name]),
            "passes": passes[name],
            "canary": canary,
        }
        ok = passes_ok(passes[name]) and canary["fired"]
        if traced:
            print(f"traced pass: {name} ...", file=sys.stderr)
            RESULTS.mkdir(exist_ok=True)
            spans = RESULTS / f"spans_{stamp}_{name}.jsonl"
            spans.unlink(missing_ok=True)
            trace = run_pass(name, seed, scale / 2, traced=True, spans_out=spans)
            trace["metrics"].update(trace_extras([trace], passes[name], canary))
            trace["spans_file"] = spans.name
            entry["traced"] = trace
            ok = ok and passes_ok([trace])
        entry["ok"] = ok
        result["ok"] = result["ok"] and ok
        result["workloads"][name] = entry
    return result


def print_table(result: dict) -> None:
    for name, entry in result["workloads"].items():
        print(f"\n== {name}  ({'ok' if entry['ok'] else 'FAILED'})")
        print(f"   {'metric':43s} {'median':>14s} {'min':>14s} {'max':>14s}  n  unit")
        for metric, s in entry["metrics"].items():
            print(
                f"   {metric:43s} {s['median']:14.4f} {s['min']:14.4f} "
                f"{s['max']:14.4f} {s['n']:2d}  {unit_of(metric)}"
            )
        canary = entry["canary"]
        print(f"   canary {canary['canary']}: "
              f"{'fired' if canary['fired'] else 'DID NOT FIRE'} {canary['detail']}")
        for index, one in enumerate(entry["passes"]):
            for problem in one["verify_problems"]:
                print(f"   pass {index}: verify: {problem}")
        if "traced" in entry:
            trace = entry["traced"]
            print(f"   -- traced pass ({trace['measured_ops']} measured ops; "
                  f"end-to-end numbers above never come from it)")
            for metric, value in trace["metrics"].items():
                if metric in PER_LAYER:
                    print(f"   {metric:43s} {value:14.4f} {'':14s} {'':14s}  1  "
                          f"{unit_of(metric)}")
            detail = trace["trace_detail"]
            print(f"   client busy {detail['client_busy_s']:.3f} s, unattributed "
                  f"remainder {detail['client_unattributed_s']:.3f} s")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--traced", action="store_true",
                        help="add one traced pass per workload (per-layer metrics)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="full runs to make; compare.py pools their passes")
    parser.add_argument("--out", default=None, help="result file (full run)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="contract run: total measured seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="contract run: report per-layer metrics")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.seconds is not None:
            if args.workload is None:
                parser.error("--seconds needs --workload")
            return contract_run(args.workload, args.seed, args.seconds, bool(args.trace))
        names = [args.workload] if args.workload else list(WORKLOADS)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        runs = []
        for index in range(args.repeat):
            runs.append(full_run(names, args.seed, args.scale, args.traced,
                                 f"{stamp}_r{index}"))
            print_table(runs[-1])
        result = {
            "schema": "e2e-1",
            "seed": args.seed,
            "scale": args.scale,
            "env": environment(),
            "frozen_ops_at_scale_1": {n: w.size() for n, w in WORKLOADS.items()},
            "runs": runs,
            "ok": all(run["ok"] for run in runs),
        }
        RESULTS.mkdir(exist_ok=True)
        out = Path(args.out) if args.out else RESULTS / f"e2e_{stamp}_seed{args.seed}.json"
        out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        print(f"\nresult: {out}")
        return 0 if result["ok"] else 1
    finally:
        try:
            WORK.rmdir()  # each pass removed its own directory
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
