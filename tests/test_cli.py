"""Command-line interface: flags, spec files, exit codes, determinism.

Heavy certified runs live in the acceptance suite; here every invocation is
kept fast with infinite-homology parameter choices (no enumeration) or small
coset limits (quick refusals).
"""

import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import Future

import pytest

from exotic4 import manifolds, report
from exotic4.cli import main
from exotic4.report import SpecError, parse_spec


def run_cli(*args, timeout=240):
    return subprocess.run(
        [sys.executable, "-m", "exotic4", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


# ---------------------------------------------------------------- spec parsing


def test_family_line_expands_ranges():
    spec = parse_spec("family k=2 n=1..3 p=1 r=1 m=1..2\n")
    assert len(spec.families) == 6
    assert spec.mode == "family-sweep"


def test_limit_line_and_comments():
    spec = parse_spec("# a comment\nfamily k=2 n=1  # trailing\nlimit 5000\n")
    assert spec.limit == 5000
    assert spec.mode == "single"


def test_duplicate_grid_points_are_merged():
    spec = parse_spec("family k=2 n=1\nfamily k=2 n=1..2\n")
    assert len(spec.families) == 2


def test_custom_block_round_trip():
    spec = parse_spec(
        "custom k=2 name=tweak\n  remove [b1, d2]\n  add [b1, d2]^3\nend\n"
    )
    assert spec.mode == "custom-schedule"
    assert spec.customs[0].name == "tweak"
    assert spec.customs[0].k == 2


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "no run specified"),
        ("family k=2\n", "needs n="),
        ("family k=2 n=0\n", "n >= 1"),
        ("family k=2 n=3..1\n", "empty range"),
        ("family k=2 n=1 q=4\n", "bad family item"),
        ("limit zero\n", "bad limit"),
        ("warp k=2\n", "unknown directive"),
        ("custom k=2\nremove [a,\nend\n", "column"),
        ("custom k=2\nend\n", "no remove/add"),
        ("custom k=2\nremove [b1,d2]\n", "missing end"),
        ("custom name=x\nremove [b1,d2]\nend\n", "needs k="),
    ],
)
def test_spec_diagnostics_name_the_problem(text, fragment):
    with pytest.raises(SpecError) as err:
        parse_spec(text)
    assert fragment in str(err.value)


def test_spec_diagnostics_carry_line_numbers():
    with pytest.raises(SpecError, match="line 3"):
        parse_spec("family k=2 n=1\nlimit 100\nfamily k=2 n=0\n")


# ---------------------------------------------------------------- exit codes


def test_usage_error_without_any_selection():
    proc = run_cli()
    assert proc.returncode == 2
    assert "no run specified" in proc.stderr


def test_constraint_violation_exits_with_usage_code():
    proc = run_cli("--k", "2", "--n", "0")
    assert proc.returncode == 2
    assert "n >= 1" in proc.stderr


def test_bad_range_text_is_a_usage_error():
    proc = run_cli("--k", "2", "--n", "x..y")
    assert proc.returncode == 2
    assert "--n" in proc.stderr


def test_unknown_flag_is_a_usage_error():
    proc = run_cli("--k", "2", "--n", "1", "--warp", "9")
    assert proc.returncode == 2


def test_spec_and_inline_flags_are_exclusive(tmp_path):
    spec = tmp_path / "run.spec"
    spec.write_text("family k=2 n=1\n")
    proc = run_cli("--spec", str(spec), "--k", "2", "--n", "1")
    assert proc.returncode == 2
    assert "mutually exclusive" in proc.stderr


def test_verdict_failure_exits_one():
    # an undersized coset limit cannot certify pi1: verdict fails, exit 1
    proc = run_cli("--k", "2", "--n", "1", "--limit", "2000", "--format", "json")
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    model = report["models"][0]
    assert model["verdicts"]["pi1"]["status"] == "fail"
    assert model["verdicts"]["pi1"]["enumeration"]["result"] == "limit-exceeded"
    assert report["summary"]["failed"] == 1


def test_transform_refusal_is_a_failed_verdict():
    proc = run_cli(
        "--k", "2", "--n", "1", "--m", "2", "--limit", "2000", "--format", "json"
    )
    assert proc.returncode == 1
    model = json.loads(proc.stdout)["models"][0]
    assert model["verdicts"]["transform"]["status"] == "fail"
    assert "certificate" in model["verdicts"]["transform"]["reason"]


def test_limit_flag_overrides_the_spec_limit(tmp_path):
    # --limit wins over the spec's limit line even when it equals the default.
    spec = tmp_path / "run.spec"
    spec.write_text("family k=2 n=1 p=0\nlimit 5000\n")
    proc = run_cli("--spec", str(spec), "--limit", "1000000", "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["run"]["limit"] == 1_000_000


def test_worker_pool_is_capped_at_the_task_count(monkeypatch):
    seen = []

    class FakePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(report, "ProcessPoolExecutor", FakePool)
    result = report.run(parse_spec("family k=2 n=1..2 p=0\n"), jobs=500)
    assert seen == [2]
    assert result["summary"]["passed"] == 2


def test_model_that_raises_becomes_a_failed_record(monkeypatch, capsys):
    spec = parse_spec("family k=2 n=1..2 p=0\n")
    normal = report.run(spec)["models"]
    real = report.run_family_model

    def exhausted(params, limit):
        if params.n == 2:
            raise MemoryError
        return real(params, limit)

    monkeypatch.setattr(report, "run_family_model", exhausted)
    models = report.run(spec)["models"]
    assert report.render_json({"m": models[0]}) == report.render_json({"m": normal[0]})
    assert models[1] == {
        "kind": "family",
        "name": "M(k=2,n=2,p=0,r=1,m=1)",
        "params": {"k": 2, "n": 2, "p": 0, "r": 1, "m": 1},
        "verdicts": {},
        "error": "MemoryError",
        "passed": False,
    }
    assert main(["--k", "2", "--n", "1..2", "--p", "0", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["summary"] == {
        "models": 2, "passed": 1, "failed": 1,
    }


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="only forked workers inherit the patched run_family_model",
)
def test_dead_worker_becomes_a_failed_record(monkeypatch, capsys):
    spec = parse_spec("family k=2 n=1..2 p=0\n")
    normal = report.run(spec)["models"]
    real = report.run_family_model

    def dies(params, limit):
        if params.n == 2:
            os._exit(1)
        return real(params, limit)

    monkeypatch.setattr(report, "run_family_model", dies)
    result = report.run(spec, jobs=2)
    models = result["models"]
    assert models[1] == {
        "kind": "family",
        "name": "M(k=2,n=2,p=0,r=1,m=1)",
        "params": {"k": 2, "n": 2, "p": 0, "r": 1, "m": 1},
        "verdicts": {},
        "error": "BrokenProcessPool",
        "passed": False,
    }
    # The surviving worker's record either arrived before the pool broke,
    # unchanged, or never arrived and failed the same way.
    if models[0].get("error") != "BrokenProcessPool":
        assert report.render_json({"m": models[0]}) == report.render_json({"m": normal[0]})
    assert "BrokenProcessPool" in capsys.readouterr().err
    assert main(["--k", "2", "--n", "1..2", "--p", "0", "--format", "json", "--jobs", "2"]) == 1
    assert json.loads(capsys.readouterr().out)["summary"]["failed"] >= 1


def test_custom_model_that_raises_becomes_a_failed_record(monkeypatch, capsys):
    spec = parse_spec(
        "family k=2 n=1 p=0\n"
        "custom k=2 name=tweak\n"
        "  remove [b1, d3]\n"
        "  add [b1, d3]^2\n"
        "end\n"
        "limit 1500\n"
    )
    normal = report.run(spec)

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(report, "enumerate_cosets", exhausted)
    result = report.run(spec)
    family, custom = result["models"]
    assert report.render_json({"m": family}) == report.render_json({"m": normal["models"][0]})
    assert custom == {
        "kind": "custom",
        "name": "tweak",
        "params": {"k": 2},
        "error": "MemoryError",
        "passed": False,
    }
    assert "MemoryError" in capsys.readouterr().err
    assert result["pairwise"] == normal["pairwise"]
    assert result["summary"] == {"models": 2, "passed": 1, "failed": 1}


def test_k1_model_is_reported_unverified_without_enumeration(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("k=1 must not enumerate")

    monkeypatch.setattr(manifolds, "enumerate_cosets", no_enumeration)
    monkeypatch.setattr(report, "enumerate_cosets", no_enumeration)
    result = report.run(parse_spec("family k=1 n=1 p=1 r=1 m=1\nlimit 2000\n"))
    (model,) = result["models"]
    assert model["passed"] is True
    assert model["verdicts"]["pi1"] == {
        "status": "unverified",
        "reason": "k=1: claims are modeled but not certified",
    }
    assert model["verdicts"]["complement"]["status"] == "not-applicable"
    assert result["summary"] == {"models": 1, "passed": 1, "failed": 0}


# ---------------------------------------------------------------- happy paths


def test_infinite_homology_run_passes_without_enumeration():
    proc = run_cli("--k", "2", "--n", "1", "--p", "0", "--format", "json")
    assert proc.returncode == 0
    model = json.loads(proc.stdout)["models"][0]
    assert model["h1"] == "Z"
    assert model["verdicts"]["pi1"]["status"] == "pass"
    assert model["verdicts"]["pi1"]["enumeration"] is None
    assert model["sw"] is None


def test_json_report_shape_and_assumption_ledger():
    proc = run_cli("--k", "2..3", "--n", "1..2", "--p", "0", "--format", "json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["run"]["mode"] == "family-sweep"
    assert report["summary"] == {"models": 4, "passed": 4, "failed": 0}
    ids = [a["id"] for a in report["assumptions"]]
    assert "taubes-basic-value" in ids
    assert "surgery-gluing-formula" in ids
    assert "relation-list-completeness" in ids
    assert "torus-class-primitivity" in ids
    names = [m["name"] for m in report["models"]]
    assert names == sorted(names)


def test_reports_are_byte_identical_across_runs_and_jobs():
    args = ("--k", "2..3", "--n", "1..2", "--p", "0", "--format", "json")
    first = run_cli(*args)
    second = run_cli(*args)
    parallel = run_cli(*args, "--jobs", "3")
    assert first.returncode == second.returncode == parallel.returncode == 0
    assert first.stdout == second.stdout == parallel.stdout


def test_table_format_renders_the_same_data(tmp_path):
    proc = run_cli("--k", "2", "--n", "1", "--p", "0", "--format", "table")
    assert proc.returncode == 0
    assert "M(k=2,n=1,p=0,r=1,m=1)" in proc.stdout
    assert "assumptions" in proc.stdout
    assert "summary: 1 passed, 0 failed" in proc.stdout


def test_out_file_receives_the_report(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli(
        "--k", "2", "--n", "1", "--p", "0", "--format", "json", "--out", str(out)
    )
    assert proc.returncode == 0
    assert "wrote" in proc.stdout
    report = json.loads(out.read_text())
    assert report["summary"]["passed"] == 1


def test_spec_file_runs_customs_with_small_limits(tmp_path):
    spec = tmp_path / "run.spec"
    spec.write_text(
        "custom k=2 name=tweak\n"
        "  remove [b1, d3]\n"
        "  add [b1, d3]^2\n"
        "end\n"
        "limit 1500\n"
    )
    proc = run_cli("--spec", str(spec), "--format", "json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    model = report["models"][0]
    assert model["name"] == "tweak"
    assert model["kind"] == "custom"
    assert model["verdicts"]["pi1"]["status"] == "reported"


def test_custom_block_with_unknown_generator_is_a_usage_error(tmp_path):
    spec = tmp_path / "run.spec"
    spec.write_text("custom k=2\n  remove [b1, d3]\n  add zz\nend\n")
    proc = run_cli("--spec", str(spec))
    assert proc.returncode == 2
    assert "line 3: unknown generators ['zz'] for k=2" in proc.stderr
    assert proc.stdout == ""


def test_spec_file_mismatched_swap_fails_only_that_record(tmp_path):
    spec = tmp_path / "run.spec"
    spec.write_text(
        "family k=2 n=1 p=0\n"
        "custom k=2 name=phantom\n"
        "  remove a1^9\n"
        "end\n"
    )
    proc = run_cli("--spec", str(spec), "--format", "json")
    assert proc.returncode == 1  # one record failed, the run carried on
    report = json.loads(proc.stdout)
    by_name = {m["name"]: m for m in report["models"]}
    assert "error" in by_name["phantom"]
    assert by_name["M(k=2,n=1,p=0,r=1,m=1)"]["passed"]
    assert report["summary"] == {"models": 2, "passed": 1, "failed": 1}
