"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Like the rest of ``benchmarks/`` this is collected only when named
explicitly.  It runs the harness at ``--scale 0.02`` and checks the
contract, not the numbers: names and units agree with ``BENCHMARK.json``
in both directions, counts and virtual-time metrics repeat exactly at one
seed, and nothing fails.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCALE = 0.02
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")
#: Units whose metrics are counts or virtual time: exact at one seed on sim_*.
EXACT_UNITS = {"count", "count/op", "count/kop", "vt", "B/op", "ratio"}


def _contract_units(section: str) -> dict:
    return {entry["name"]: entry["unit"] for entry in CONTRACT[section]}


def test_tables_match_benchmark_json():
    end_to_end = _contract_units("end_to_end")
    per_layer = _contract_units("per_layer")
    assert end_to_end == {n: s[0] for n, s in metrics.END_TO_END.items()}
    assert per_layer == {n: s[0] for n, s in metrics.PER_LAYER.items()}
    for entry in CONTRACT["end_to_end"]:
        assert entry["better"] == metrics.END_TO_END[entry["name"]][1]
        assert entry["bound"] == metrics.END_TO_END[entry["name"]][2]
    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOADS)
    assert set(metrics.GATED_EXACT) <= set(per_layer)
    for name in [*end_to_end, *per_layer, *run.WORKLOADS]:
        assert NAME.fullmatch(name), name
    assert CONTRACT["paths"] == ["benchmarks/e2e"]


def test_full_run_reports_only_known_names(tmp_path):
    out = tmp_path / "result.json"
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "11", "--scale", str(SCALE),
         "--traced", "--out", str(out)],
        stdout=subprocess.PIPE, text=True,
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-2000:]
    assert elapsed < 30, f"smoke run took {elapsed:.1f}s"
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["ok"]
    known = {**_contract_units("end_to_end"), **_contract_units("per_layer")}
    seen = set()
    (only_run,) = result["runs"]
    assert set(only_run["workloads"]) == set(run.WORKLOADS)
    for name, entry in only_run["workloads"].items():
        assert entry["canary"]["fired"], name
        assert entry["metrics"]["failed_ops_frac"]["max"] == 0
        reported = set(entry["metrics"]) | set(entry["traced"]["metrics"])
        assert reported <= set(known), reported - set(known)
        seen |= reported
        on_tcp = name.startswith("tcp_")
        assert any(m.startswith("net.") for m in reported) == on_tcp
        assert any(m.startswith("sim.") for m in reported) == (not on_tcp)
        (HERE / "results" / entry["traced"]["spans_file"]).unlink()
    # ...and vice versa: every contract metric is reported by some workload.
    assert seen == set(known), set(known) - seen
    assert all(f"{name} " in done.stdout for name in known)


def _exact(pass_result: dict) -> dict:
    return {
        name: value
        for name, value in pass_result["metrics"].items()
        if metrics.unit_of(name) in EXACT_UNITS or name == "failed_ops_frac"
    }


def test_counts_and_virtual_time_repeat_exactly_on_sim():
    for workload in ("sim_faust_bounded", "sim_replica3_writes_4k"):
        first = _exact(run.run_pass(workload, 21, SCALE, traced=True))
        again = _exact(run.run_pass(workload, 21, SCALE, traced=True))
        assert first == again
        assert len(first) > 10
    other = _exact(run.run_pass("sim_faust_bounded", 22, SCALE, traced=True))
    first = _exact(run.run_pass("sim_faust_bounded", 21, SCALE, traced=False))
    assert {k: other[k] for k in first} != first


def test_contract_run_prints_the_contract_object():
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "sim_replica3_writes_4k",
             "--seed", "5", "--seconds", "0.5", "--trace", trace],
            stdout=subprocess.PIPE, text=True,
        )
        assert done.returncode == 0
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0 < last["attempted"]
        assert {
            name: entry["unit"] for name, entry in last["metrics"].items()
        } == _contract_units(section)
