"""Tests of the benchmark harness itself, on the `smoke` workload only.

Run with `python3 -m pytest perfbench` from the repository root; the real
workloads take minutes and never run here.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from spans import ROOT, check_consistency, layer_metrics
from workloads import WORKLOADS, check_report, render_spec

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))

from exotic4.report import parse_spec, render_json, run  # noqa: E402


def bench(*args, cwd=REPO):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=120,
    )


def declared(kind):
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_smoke_run_reports_every_end_to_end_metric():
    proc = bench("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_traced_run_reports_every_per_layer_metric():
    proc = bench("--workload", "smoke", "--seed", "4", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared("per_layer")
    assert metrics["coset.calls"]["value"] == 1
    assert metrics["coset.max_live"]["value"] == 1500
    assert metrics["coset.completed_share"]["value"] == 0.0
    assert metrics["presentations.tietze_calls"]["value"] == 2


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_seeds_change_the_spec_text_but_not_the_models():
    workload = WORKLOADS["homology-k8"]
    texts = {render_spec(workload, seed) for seed in range(5)}
    assert len(texts) > 1
    parsed = {parse_spec(t) for t in texts}
    assert len(parsed) == 1


def test_known_answer_check_flags_a_wrong_verdict():
    workload = WORKLOADS["smoke"]
    report = json.loads(render_json(run(parse_spec(render_spec(workload, 0)))))
    assert check_report(workload, report) == (2, [])
    report["models"][0]["h1"] = "Z + Z"
    items, failures = check_report(workload, report)
    assert items == 2 and len(failures) == 1 and "h1='Z + Z'" in failures[0]
    report["models"].pop()
    assert len(check_report(workload, report)[1]) == 2


def test_consistency_check_flags_a_span_outside_the_root():
    spans = [
        [ROOT, 0.0, 1.0, -1, None],
        ["sw", 0.25, 0.5, 0, None],
    ]
    assert check_consistency(spans, layer_metrics(spans)) is None
    spans.append(["sw", 2.0, 3.0, -1, None])
    assert "root span" in check_consistency(spans, layer_metrics(spans))


def test_calibration_times_each_loop():
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "calibrate", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loops = json.loads(proc.stdout)["loops_s"]
    assert len(loops) == 2 and all(t > 0 for t in loops)
