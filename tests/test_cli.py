"""Command-line interface: flags, spec files, exit codes, determinism.

Heavy certified runs live in the acceptance suite; here every invocation is
kept fast with infinite-homology parameter choices (no enumeration) or small
coset limits (quick refusals).
"""

import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import Future

import pytest

from exotic4 import cli, manifolds, report
from exotic4.cli import main
from exotic4.coset import WORK_BOUND
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
        ("custom k=2\nadd [a1,b1]^1000000\nend\n",
         "line 2: bad relation: a power of 4000000 letters is longer than the 1000000 allowed"),
        ("custom k=2\nadd a1^10000000\nend\n",
         "line 2: relation has 10000000 letters, more than the 1000000 allowed"),
        ("custom k=2\nremove [b1,d2]\n", "missing end"),
        ("custom name=x\nremove [b1,d2]\nend\n", "needs k="),
        ("family k=2 n=1 k=3\n", "line 1: family item k= given twice"),
        ("custom k=2 k=3\nremove [b1,d2]\nend\n", "line 1: custom item k= given twice"),
        ("custom k=2 name=a name=b\nremove [b1,d2]\nend\n",
         "line 1: custom item name= given twice"),
        ("limit 100\nfamily k=2 n=1\nlimit 200\n", "line 3: limit already given on line 1"),
        ("custom k=2 name=\nremove [b1,d2]\nend\n", "line 1: custom name= is empty"),
        ("custom k=2 name=a\nremove [b1,d2]\nend\ncustom k=2 name=a\nadd [b1,d2]\nend\n",
         "line 4: custom name 'a' already used on line 1"),
        ("custom k=2 name=custom-2\nremove [b1,d2]\nend\ncustom k=2\nadd [b1,d2]\nend\n",
         "line 4: custom name 'custom-2' already used on line 1"),
        ("custom k=2\nremove [b1,d2]\nend\ncustom k=2 name=custom-1\nadd [b1,d2]\nend\n",
         "line 4: custom name 'custom-1' already used on line 1"),
        ("family k=2 n=1 p=0\ncustom k=2 name=M(k=2,n=1,p=0,r=1,m=1)\nremove [b1,d2]\nend\n",
         "line 2: custom name 'M(k=2,n=1,p=0,r=1,m=1)' is a family model's name"),
        ("custom k=2 name=M(k=2,n=1,p=0,r=1,m=1)\nremove [b1,d2]\nend\nfamily k=2 n=1 p=0\n",
         "line 1: custom name 'M(k=2,n=1,p=0,r=1,m=1)' is a family model's name"),
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


@pytest.mark.parametrize(
    "inline",
    [["--k", "2", "--n", "1"], ["--p", "3"], ["--r", "2"], ["--m", "2"]],
    ids=["k-n", "p", "r", "m"],
)
def test_spec_and_inline_flags_are_exclusive(tmp_path, inline):
    spec = tmp_path / "run.spec"
    spec.write_text("family k=2 n=1\n")
    proc = run_cli("--spec", str(spec), *inline)
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


@pytest.mark.parametrize("k", [1, 2])
def test_records_are_named_by_their_requested_parameters(k):
    # The m = 2 transform is refused here; its record still carries m=2.
    result = report.run(parse_spec(f"family k={k} n=2 p=0 m=1..2\n"))
    models = result["models"]
    names = [r["name"] for r in models]
    assert names == [manifolds.FamilyParams(**r["params"]).name for r in models]
    assert len(set(names)) == len(names) == 2
    assert models[1]["verdicts"]["transform"]["status"] == "fail"
    rows = [line.split()[0] for line in report.render_table(result).splitlines()
            if line.startswith("M(")]
    assert rows == names


# sha256 of the JSON report for spec text that `SWEEP_SHA256` (acceptance
# criterion 11) does not reach: k = 1, p*r = 0, refused transforms, a finite
# non-trivial pi1 and a custom block.
WIDE_SPEC = """\
family k=1 n=1..2 m=1..2
family k=2 n=2 p=0..2 r=0..1 m=1..2
family k=2 n=1 p=2 r=3
custom k=2 name=tweak
  remove [b1, d3]
  add [b1, d3]^2
end
limit 20000
"""
WIDE_SHA256 = "263fd89e580a18377929fe7724a7f0b51163c0b727cb82a281fb3c74dfbfe743"


@pytest.mark.parametrize("jobs", [1, 2])
def test_wide_spec_report_bytes_are_pinned(jobs):
    text = report.render_json(report.run(parse_spec(WIDE_SPEC), jobs=jobs))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == WIDE_SHA256, f"wide-spec report sha256 is now {digest}"


def test_a_custom_block_with_infinite_pi1_ends_limit_exceeded():
    # Seven removes and seven adds turn X_2's relators into those of
    # M(2,1,0,1), whose pi1 is Z.  At limit 50,000 coincidences keep the
    # table below the limit (it never holds more than 43,086 live cosets);
    # the work bound, not the table, ends the enumeration.
    x2 = manifolds.build_Xk(2).presentation.relators
    m2101 = manifolds.build_Mkn(manifolds.FamilyParams(2, 1, 0, 1)).presentation.relators
    removed = [r for r in x2 if r not in m2101]
    added = [r for r in m2101 if r not in x2]
    assert len(removed) == len(added) == 7
    body = [f"  remove {r}" for r in removed] + [f"  add {r}" for r in added]
    spec = "\n".join(["custom k=2 name=z", *body, "end", "limit 50000", ""])
    (record,) = report.run(parse_spec(spec))["models"]
    assert record["h1"] == "Z"
    enumeration = record["verdicts"]["pi1"]["enumeration"]
    assert enumeration["result"] == "limit-exceeded"
    assert enumeration["definitions"] == WORK_BOUND * 50_000
    assert 50_000 > enumeration["max_live"] == 43_086 > enumeration["cosets_used"]


def test_limit_flag_overrides_the_spec_limit(tmp_path):
    # --limit wins over the spec's limit line even when it equals the default.
    spec = tmp_path / "run.spec"
    spec.write_text("family k=2 n=1 p=0\nlimit 5000\n")
    proc = run_cli("--spec", str(spec), "--limit", "1000000", "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["run"]["limit"] == 1_000_000


@pytest.mark.parametrize(
    "text",
    [
        "family k=2 n=1..2 p=0\n",
        "family k=2 n=1 p=0\ncustom k=2 name=tweak\n  remove [b1, d3]\n"
        "  add [b1, d3]^3\nend\nlimit 1500\n",
    ],
    ids=["families", "family-and-custom"],
)
def test_worker_pool_is_capped_at_the_task_count(monkeypatch, text):
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

    # `run` imports the pool class at call time, so patch it where it is read.
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
    result = report.run(parse_spec(text), jobs=500)
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


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="only forked workers inherit the patched run_custom_model",
)
def test_dead_custom_worker_becomes_a_failed_record(monkeypatch, capsys):
    spec = parse_spec(
        "family k=2 n=1 p=0\n"
        "custom k=2 name=tweak\n"
        "  remove [b1, d3]\n"
        "  add [b1, d3]^2\n"
        "end\n"
        "limit 1500\n"
    )
    parent = os.getpid()

    def dies(custom, limit):
        if os.getpid() == parent:
            raise AssertionError("the custom model ran in the parent process")
        os._exit(1)

    monkeypatch.setattr(report, "run_custom_model", dies)
    models = report.run(spec, jobs=2)["models"]
    assert models[1] == {
        "kind": "custom",
        "name": "tweak",
        "params": {"k": 2},
        "error": "BrokenProcessPool",
        "passed": False,
    }
    assert "BrokenProcessPool" in capsys.readouterr().err


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


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_fails_before_any_model_runs(tmp_path, monkeypatch, capsys, where):
    out = tmp_path / "missing" / "report.json" if where == "missing-directory" else tmp_path

    def sweep(*args, **kwargs):
        raise AssertionError("a model ran")

    monkeypatch.setattr(cli, "run", sweep)
    assert main(["--k", "2", "--n", "1", "--p", "0", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("exotic4: cannot write --out file: ")
    assert captured.out == ""


@pytest.mark.parametrize(
    "args,message",
    [
        (["--k", "3..2", "--n", "1"], "bad --k value '3..2' (want int or lo..hi)"),
        (["--k", "2", "--n", "1", "--limit", "0"], "limit must be positive"),
        (["--spec", "{spec}"], "line 2: limit must be positive"),
        (["--spec", "{open}"], "line 3: unterminated custom block (missing end)"),
    ],
    ids=["flag", "limit-flag", "spec-line", "open-block"],
)
def test_usage_errors_cite_a_line_only_for_spec_lines(tmp_path, capsys, args, message):
    spec = tmp_path / "run.spec"
    spec.write_text("family k=2 n=1 p=0\nlimit 0\n")
    unterminated = tmp_path / "open.spec"
    unterminated.write_text("family k=2 n=1 p=0\n\ncustom k=2\n  remove [b1, d3]\n")
    argv = [a.format(spec=spec, open=unterminated) for a in args]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"exotic4: {message}\n"


def test_spec_file_that_is_not_utf8_is_a_usage_error(tmp_path):
    spec = tmp_path / "run.spec"
    spec.write_bytes(b"family k=2 n=1 p=0  # caf\xe9\n")
    proc = run_cli("--spec", str(spec))
    assert proc.returncode == 2
    assert proc.stderr.startswith("exotic4: ")
    assert "cannot read spec file: 'utf-8' codec can't decode" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


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


def test_over_long_custom_relation_is_a_usage_error(tmp_path):
    spec = tmp_path / "run.spec"
    spec.write_text("custom k=2\n  add [a1,b1]^1000000\nend\n")
    proc = run_cli("--spec", str(spec), timeout=30)
    assert proc.returncode == 2
    assert "line 2: bad relation: a power of 4000000 letters" in proc.stderr
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
