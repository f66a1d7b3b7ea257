"""Workload definitions: the models each workload runs, the spec text a seed
renders them into, and the known answer every run is checked against.

The seed only changes how the spec is written (line order, item order,
comments).  `parse_spec` dedupes and sorts the models, so every seed runs the
same models and must produce byte-identical reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Custom:
    name: str
    k: int
    removed: tuple[str, ...]
    added: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    families: tuple[tuple[int, int, int, int, int], ...]  # (k, n, p, r, m)
    limit: int
    customs: tuple[Custom, ...] = ()


def _grid(k, ns, ps, rs, m=1):
    return tuple((k, n, p, r, m) for n in ns for p in ps for r in rs)


# Sizes are chosen so that one sample takes about 2-15 s on a 2-core Xeon VM
# with Python 3.11, so that a run of 60 s holds at least three fresh-process
# samples.  collapse-k2 keeps one model: its two enumerations complete at
# limit 60k (not at 50k), while n=2 needs a limit of about 150k-200k and
# would double the sample.  At 100k the k=3 index-4 enumeration completes (at
# 60k it does not); finite-index-k3 is not in BENCHMARK.json (see README.md).
# homology-k8 stops at n=1: n=2 adds ~5 s of Tietze work per model.
WORKLOADS = {
    "collapse-k2": Workload("collapse-k2", _grid(2, (1,), (1,), (1,), m=2), 60_000),
    "finite-index-k3": Workload("finite-index-k3", ((3, 1, 2, 2, 1),), 100_000),
    "homology-k8": Workload(
        "homology-k8",
        _grid(8, (1,), (0,), (0, 1)) + _grid(8, (1,), (1,), (0,)),
        1_000_000,
    ),
    # For the harness's own tests: no enumeration for the family model, and a
    # custom swap whose enumeration stops at the small limit.
    "smoke": Workload(
        "smoke",
        ((2, 1, 0, 1, 1),),
        1500,
        (Custom("tweak", 2, ("[b1, d3]",), ("[b1, d3]^2",)),),
    ),
}


def render_spec(workload: Workload, seed: int) -> str:
    """Spec-language text for the workload, shuffled by `seed`."""
    rng = random.Random(f"{workload.name}:{seed}")
    lines = []
    for k, n, p, r, m in workload.families:
        items = [f"k={k}", f"n={n}", f"p={p}", f"r={r}", f"m={m}"]
        rng.shuffle(items)
        lines.append("family " + " ".join(items))
    lines.append(f"limit {workload.limit}")
    rng.shuffle(lines)
    for c in workload.customs:
        body = [f"  remove {w}" for w in c.removed] + [f"  add {w}" for w in c.added]
        lines += [f"custom k={c.k} name={c.name}", *body, "end"]
    return f"# {workload.name}, seed {seed}\n" + "\n".join(lines) + "\n"


def _model_name(k, n, p, r, m):
    return f"M(k={k},n={n},p={p},r={r},m={m})"


def _h1(p: int, r: int) -> str:
    """Z/p + Z/r for the cases the workloads use (Z/0 = Z, Z/1 = 0)."""
    parts = [f"Z/{x}" for x in sorted((p, r)) if x > 1] + ["Z" for x in (p, r) if x == 0]
    return " + ".join(parts) if parts else "0"


def _expect_family(k, n, p, r, m) -> dict:
    exp = {"passed": True, "h1": _h1(p, r), "verdicts.pi1.status": "pass"}
    if p * r == 0:
        exp["verdicts.pi1.enumeration"] = None
    else:
        exp["verdicts.pi1.enumeration.result"] = "completed"
        exp["verdicts.pi1.enumeration.index"] = p * r
    if p == r == 1:
        exp["verdicts.complement.enumeration.result"] = "completed"
        exp["verdicts.complement.enumeration.index"] = 1
        if m == 2:
            exp["verdicts.form.classification"] = f"{2 * k - 1}<1> + {2 * k - 1}<-1>"
            exp["verdicts.homeomorphism.type"] = f"{2 * k - 1}(CP2#CP2bar)"
    else:
        exp["verdicts.complement.status"] = "not-applicable"
    return exp


def expected_answers(workload: Workload) -> dict[str, dict]:
    """Known verdicts per model name."""
    models = {_model_name(*f): _expect_family(*f) for f in workload.families}
    for c in workload.customs:
        models[c.name] = {
            "passed": True,
            "h1": " + ".join(["Z"] * 8),
            "verdicts.pi1.status": "reported",
            "verdicts.pi1.enumeration.result": "limit-exceeded",
            "verdicts.pi1.enumeration.cosets_used": workload.limit,
        }
    return models


def _lookup(record: dict, path: str):
    value = record
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            return "<missing>"
        value = value[key]
    return value


def check_report(workload: Workload, report: dict) -> tuple[int, list[str]]:
    """Compare a report's verdicts with the known answer.

    Returns (models checked, failure messages).  No workload has two models
    of one homeomorphism type, so the pairwise matrix must be empty.
    Counters inside the report are not compared, because a faster enumerator
    may legitimately change them.
    """
    models = expected_answers(workload)
    failures = []
    by_name = {m.get("name"): m for m in report.get("models", [])}
    for name in sorted(set(by_name) - set(models)):
        failures.append(f"unexpected model {name}")
    for name, exp in models.items():
        record = by_name.get(name)
        if record is None:
            failures.append(f"{name}: missing")
            continue
        wrong = [
            f"{path}={_lookup(record, path)!r} (want {want!r})"
            for path, want in exp.items()
            if _lookup(record, path) != want
        ]
        if "error" in record:
            wrong.append(f"error {record['error']!r}")
        if wrong:
            failures.append(f"{name}: " + "; ".join(wrong))
    if report.get("pairwise") != []:
        failures.append(f"pairwise {report.get('pairwise')!r} (want [])")
    return len(models), failures
