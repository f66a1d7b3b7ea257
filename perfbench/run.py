"""exotic4 benchmark harness.

Usage (from the repository root):

    python3 perfbench/run.py --workload collapse-k2 --seed 1 --seconds 44 --trace 0

Every sample runs `parse_spec -> run(jobs=1) -> render_json` in a fresh
interpreter (perfbench/child.py), because enumeration cost depends on the
state of the interpreter it runs in.  A run repeats samples, each after a
few set-up timings, within a window of `--seconds`.  With `--trace 1` it
runs untraced samples for half the window and traced samples
(perfbench/spans.py) for the other half, and reports per-layer metrics
instead of end-to-end ones.  Metric units are read from BENCHMARK.json.

Before the first sample and after each one, a fixed calibration loop
(child.py) that runs no exotic4 code is timed in its own interpreter, about
once per second of sample.  Each sample's times are scaled by
REFERENCE_CALIBRATION_S over the mean time of the loops run within
CALIBRATION_WINDOW_S of it: on a shared host whose speed drifts by up to 2x
over minutes, that keeps runs made at different moments comparable.  The
raw times are printed too.

Every sample's verdicts are checked against the workload's known answer, all
samples must render byte-identical reports, and the report hash and exact
counters must repeat across runs of the same source (kept in
.perfbench_state/).  The last line of stdout is the JSON result; the exit
status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import EXACT, check_consistency, layer_metrics, root_seconds
from workloads import WORKLOADS, check_report, render_spec

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
STATE = REPO / ".perfbench_state"
# Set-up timings run before the first sample and before each later one, and
# calibration loops before the first sample and after each one, in
# proportion to the length of the sample before, so that both spread over
# the run in proportion to time whatever the sample length.
SETUP_PROBES_FIRST = 6
SETUP_PROBES_PER_S = 0.5
CALIBRATION_LOOPS_FIRST = 3
CALIBRATION_LOOPS_PER_S = 1.0
# A sample is scaled by the loops run within this many seconds of its start
# or end: at least the loops just before and after it, and for short samples
# those of their neighbours too, because one loop's time is noisier than a
# sample's.
CALIBRATION_WINDOW_S = 10.0
CHILD_TIMEOUT_S = 150
# Reported times are seconds on a machine whose calibration loop takes this
# long (a 2-vCPU Xeon VM, Python 3.11).
REFERENCE_CALIBRATION_S = 0.12


class BenchError(RuntimeError):
    pass


def machine_description() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_model": cpu,
    }


def run_child(mode: str, spec: str, *args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), mode, *args],
        input=spec, capture_output=True, text=True, env=env, cwd=REPO,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"{mode} sample exited {proc.returncode}: {proc.stderr.strip()}")
    out = json.loads(proc.stdout.splitlines()[-1])
    if "ready" in out:
        out["setup_s"] = out["ready"] - spawned
    return out


def calibrate(count: int) -> tuple[float, list[float]]:
    """(monotonic time at the end, loop times) of `count` calibration loops."""
    loops = run_child("calibrate", "", str(count))["loops_s"]
    return time.monotonic(), loops


def sample_for(mode: str, spec: str, seconds: float, setups: list[float] | None = None):
    """Fresh-interpreter samples within a window of `seconds`: at least one,
    and another only while the last one would still fit in the window, so a
    run's length stays near `seconds` however slow the machine is.  Each
    sample gets its `scale` and the number of calibration `loops` behind it.
    With `setups`, scaled set-up timings are appended for each sample, taken
    before it so that they spread over the run rather than one slow moment."""
    samples: list[dict] = []
    batches = [calibrate(CALIBRATION_LOOPS_FIRST)]
    setup_s: list[list[float]] = []
    begin = last = time.monotonic()
    probes = SETUP_PROBES_FIRST
    while True:
        if setups is not None:
            setup_s.append([run_child("setup", spec)["setup_s"] for _ in range(probes)])
        start = time.monotonic()
        sample = run_child(mode, spec)
        sample["span"] = (start, time.monotonic())
        samples.append(sample)
        batches.append(calibrate(max(1, round(sample["sweep_s"] * CALIBRATION_LOOPS_PER_S))))
        probes = max(1, round(sample["sweep_s"] * SETUP_PROBES_PER_S))
        now = time.monotonic()
        if now - begin + (now - last) > seconds:
            break
        last = now
    for i, sample in enumerate(samples):
        start, end = sample["span"]
        loops = batches[i][1] + batches[i + 1][1] + [
            t for j, (at, batch) in enumerate(batches)
            if j not in (i, i + 1)
            and start - CALIBRATION_WINDOW_S <= at <= end + CALIBRATION_WINDOW_S
            for t in batch
        ]
        sample["loops"] = len(loops)
        sample["scale"] = REFERENCE_CALIBRATION_S / statistics.mean(loops)
        if setups is not None:
            setups += [t * sample["scale"] for t in setup_s[i]]
    return samples


def source_key(workload: str) -> str:
    """Hash of the program and benchmark sources: exact counters must repeat
    between runs with the same key."""
    h = hashlib.sha256(workload.encode())
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(REPO)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_against_earlier_runs(workload: str, record: dict) -> list[str]:
    """Compare this run's report hash and exact counters with earlier runs of
    the same sources, then merge this run's values in."""
    STATE.mkdir(exist_ok=True)
    path = STATE / f"{workload}-{source_key(workload)}.json"
    try:
        earlier = json.loads(path.read_text())
    except FileNotFoundError:
        earlier = {}
    errors = [
        f"{key} is {record[key]!r}, an earlier run of the same sources had {value!r}"
        for key, value in earlier.items()
        if key in record and record[key] != value
    ]
    if not errors:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({**earlier, **record}, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return errors


def with_units(values: dict[str, float], kind: str) -> dict:
    """Result metrics with the units BENCHMARK.json declares for `kind`."""
    declared = json.loads((REPO / "BENCHMARK.json").read_text())[kind]
    units = {m["name"]: m["unit"] for m in declared}
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}


def median(key: str, samples: list[dict]) -> float:
    """Median of a time over the samples, each scaled by its calibration."""
    return statistics.median(s[key] * s["scale"] for s in samples)


def check_samples(workload, samples: list[dict]) -> tuple[int, int, list[str], dict]:
    """Known-answer check of every sample and byte-identity of their reports.
    Returns (items attempted, items failed, errors, exact record)."""
    errors: list[str] = []
    attempted = failed = 0
    hashes = set()
    for i, s in enumerate(samples):
        text = s["report"]
        hashes.add(hashlib.sha256(text.encode()).hexdigest())
        items, failures = check_report(workload, json.loads(text))
        attempted += items
        failed += min(items, len(failures))
        errors += failures
        print(
            f"sample {i + 1} ({'traced' if s['spans'] else 'untraced'}): "
            f"raw sweep_s={s['sweep_s']:.4f} cpu_s={s['cpu_s']:.4f} "
            f"loops={s['loops']} scale={s['scale']:.4f} "
            f"peak_rss_mb={s['peak_rss_mb']:.1f} failed={len(failures)}/{items}"
        )
    if len(hashes) != 1:
        errors.append(f"samples rendered {len(hashes)} different reports")
    record = {"report_sha256": min(hashes), "report_bytes": len(samples[0]["report"].encode())}
    return attempted, failed, errors, record


def layer_result(untraced: list[dict], traced: list[dict], record: dict, errors: list[str]):
    """Per-layer metrics: median self times over the traced samples, exact
    counts (added to `record`), and the tracing overhead, scaled like the
    end-to-end times."""
    layers = []
    for s in traced:
        metrics = layer_metrics(s["spans"])
        problem = check_consistency(s["spans"], metrics)
        if problem:
            errors.append(problem)
        layers.append(metrics)
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    for name in EXACT:
        values = {m[name] for m in layers}
        if len(values) != 1:
            errors.append(f"{name} differs between traced samples: {sorted(values)}")
        record[name] = metrics[name] = layers[0][name]
    metrics["report.report_bytes"] = record["report_bytes"]
    metrics["trace.overhead_s"] = median("sweep_s", traced) - median("sweep_s", untraced)
    root = statistics.median(root_seconds(s["spans"]) for s in traced)
    print(
        f"share of root span: coset {metrics['coset.enumerate_s'] / root:.3f}, "
        "presentations+words "
        f"{(metrics['presentations.tietze_s'] + metrics['words.substitute_s']) / root:.3f}"
    )
    return with_units(metrics, "per_layer")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "exotic4" / "__init__.py").is_file():
        print(f"perfbench: no exotic4 sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    spec = render_spec(workload, args.seed)
    print("machine:", json.dumps(machine_description(), sort_keys=True))

    run_child("setup", spec)  # fills the byte-code cache; not timed
    setups: list[float] = []
    if args.trace:
        untraced = sample_for("sweep", spec, args.seconds / 2)
        traced = sample_for("trace", spec, args.seconds / 2)
    else:
        untraced = sample_for("sweep", spec, args.seconds, setups)
        traced = []

    attempted, failed, errors, record = check_samples(workload, untraced + traced)
    if traced:
        result = layer_result(untraced, traced, record, errors)
    else:
        result = with_units({
            "sweep_s": median("sweep_s", untraced),
            "cpu_s": median("cpu_s", untraced),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in untraced),
            "setup_s": statistics.median(setups),
        }, "end_to_end")
    errors += check_against_earlier_runs(workload.name, record)

    print(f"failed_share: {failed}/{attempted}")
    for e in errors:
        print(f"perfbench: CHECK FAILED: {e}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if not errors else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
