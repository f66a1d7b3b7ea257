"""Run orchestration and deterministic report assembly.

A RunSpec (from the CLI flags or the little spec language) expands to a list
of family parameter tuples plus optional custom relation-swap schedules.
`run` drives each model through build -> verify -> certify -> transform ->
classify and assembles one JSON-ready dict.  The dict is the single source
of truth: the table renderer derives from it, never from live objects, and
it contains no wall-clock data, so a fixed spec yields byte-identical output
(also across --jobs settings).
"""

from __future__ import annotations

import json
import traceback
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from . import __version__
from .coset import DEFAULT_LIMIT, EnumerationOutcome, enumerate_cosets
from .intlinalg import classify_form
from .manifolds import (
    PI1_TRIVIAL,
    CertificateError,
    FamilyParams,
    ManifoldModel,
    ParameterError,
    ScheduleMismatchError,
    SurgeryMove,
    apply_log_transform,
    apply_schedule,
    build_Mkn,
    build_Xk,
    family_generators,
    verify_complement,
    verify_pi1,
    with_complement_certificate,
    with_pi1_certificate,
)
from .presentations import TietzeResult, tietze_simplify
from .sw import (
    basic_classes,
    classify_homeomorphism,
    distinguish,
    irreducibility_check,
    spin_parity,
)
from .words import Word, WordSyntaxError, parse_relation


ASSUMPTIONS = (
    {
        "id": "taubes-basic-value",
        "statement": (
            "The symplectic intermediate model (one surgery short of the full "
            "schedule) has |SW| = 1 on +-(2kA+2B), by Taubes' theorem on "
            "symplectic 4-manifolds with b2+ > 1; taken as an input value."
        ),
    },
    {
        "id": "surgery-gluing-formula",
        "statement": (
            "The coefficient -n torus surgery multiplies that value to |SW| = n, "
            "and the multiplicity-m transform spreads each class into the 2m "
            "classes +-(2kA+2B)+jT with unchanged value (product/gluing formulas "
            "of Morgan-Mrowka-Szabo type); taken as input values."
        ),
    },
    {
        "id": "relation-list-completeness",
        "statement": (
            "The modeled relation list is assumed to present the surgered "
            "manifold's fundamental group completely.  The engine certifies the "
            "collapse direction: the listed relations force the claimed group."
        ),
    },
    {
        "id": "torus-class-primitivity",
        "statement": (
            "T, the core-torus class of the multiplicity-m transform, is "
            "primitive in H2, so w2 = (m-1)T mod 2 vanishes exactly for odd m; "
            "input to the spin-parity verdict."
        ),
    },
    {
        "id": "surgery-preserves-e-sigma",
        "statement": (
            "Torus surgery preserves the Euler characteristic and the signature; "
            "all post-surgery characteristic numbers are recomputed from these "
            "plus the exact abelianization."
        ),
    },
    {
        "id": "lift-identification",
        "statement": (
            "Decorated lift products appearing in torus labels are modeled as "
            "the corresponding plain words in the quotient generators; every "
            "verified claim depends only on the modeled relation list."
        ),
    },
    {
        "id": "infinite-order-inputs",
        "statement": (
            "For p >= 1 and r >= 1 the group is certified outright: enumeration "
            "gives |G| = p*r and the abelianization is Z/p + Z/r, forcing G "
            "abelian.  For p = 0 or r = 0 the claimed infinite group rests on "
            "the abelianization plus the infinite pre-surgery order of the c2, "
            "d2 classes, which is not machine-checked."
        ),
    },
    {
        "id": "freedman-classification",
        "statement": (
            "Simply connected closed 4-manifolds are determined up to "
            "homeomorphism by their intersection form (Freedman); used for the "
            "homeomorphism-type verdicts."
        ),
    },
    {
        "id": "symplectic-flag-inputs",
        "statement": (
            "n = 1 models are symplectic (the schedule is then all Luttinger "
            "surgeries, and the multiplicity-m transform keeps a symplectic "
            "representative); n >= 2 models are nonsymplectic because their "
            "basic-class structure violates Taubes' constraints.  Recorded as "
            "flags, not computed."
        ),
    },
)


class SpecError(ValueError):
    """A parse or constraint diagnostic for the run-spec language.  `line`
    is the spec line at fault, or None when no line is (a CLI flag, or the
    spec as a whole)."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class CustomSchedule:
    """One user-supplied relation swap applied to X_k."""

    name: str
    k: int
    removed: tuple[Word, ...]
    added: tuple[Word, ...]


@dataclass(frozen=True)
class RunSpec:
    families: tuple[FamilyParams, ...]
    customs: tuple[CustomSchedule, ...] = ()
    limit: int = DEFAULT_LIMIT

    def __post_init__(self):
        if not self.families and not self.customs:
            raise SpecError("no run specified")
        if self.limit < 1:
            raise SpecError("limit must be positive")

    @property
    def mode(self) -> str:
        if self.customs and not self.families:
            return "custom-schedule"
        if len(self.families) + len(self.customs) == 1:
            return "single"
        return "family-sweep"


def parse_range(text: str) -> tuple[int, ...]:
    """An int or an inclusive `lo..hi` range."""
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return tuple(range(lo, hi + 1))
    return (int(text),)


def expand_family(values: dict[str, tuple[int, ...]]) -> tuple[FamilyParams, ...]:
    out = []
    for k in values["k"]:
        for n in values["n"]:
            for p in values.get("p", (1,)):
                for r in values.get("r", (1,)):
                    for m in values.get("m", (1,)):
                        out.append(FamilyParams(k, n, p, r, m))
    return tuple(out)


def unique_families(families: Iterable[FamilyParams]) -> tuple[FamilyParams, ...]:
    """Drop repeated grid points and sort by (k, n, p, r, m)."""
    return tuple(sorted(set(families), key=lambda f: (f.k, f.n, f.p, f.r, f.m)))


def parse_spec(text: str) -> RunSpec:
    """Parse the run-spec language.

    Lines: `family k=<int|range> n=<int|range> [p=..] [r=..] [m=..]`,
    `limit <int>`, and `custom k=<int> [name=<word>]` blocks containing
    `remove <relation>` / `add <relation>` lines, closed by `end`.  `#`
    starts a comment.  Ranges are inclusive `lo..hi`.  An item repeated on
    one line, or a second `limit` line, is an error rather than an override.
    A custom block without `name=` is named `custom-<i>` for the i-th block;
    an empty name, or one an earlier block has (given or defaulted), is an
    error.
    """
    families: list[FamilyParams] = []
    customs: list[CustomSchedule] = []
    limit = DEFAULT_LIMIT
    limit_line: int | None = None
    block: dict | None = None
    name_lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *rest = line.split(None, 1)
        arg = rest[0] if rest else ""
        if block is not None:
            if head == "end":
                if not block["removed"] and not block["added"]:
                    raise SpecError("custom block has no remove/add lines", lineno)
                customs.append(
                    CustomSchedule(
                        block["name"], block["k"],
                        tuple(block["removed"]), tuple(block["added"]),
                    )
                )
                block = None
            elif head in ("remove", "add"):
                if not arg:
                    raise SpecError(f"{head} needs a relation", lineno)
                try:
                    rel = parse_relation(arg)
                except WordSyntaxError as exc:
                    raise SpecError(f"bad relation: {exc}", lineno) from None
                stray = rel.symbols() - set(family_generators(block["k"]))
                if stray:
                    raise SpecError(
                        f"unknown generators {sorted(stray)} for k={block['k']}", lineno
                    )
                block["removed" if head == "remove" else "added"].append(rel)
            else:
                raise SpecError(f"expected remove/add/end in custom block, got {head!r}", lineno)
            continue
        if head == "family":
            values: dict[str, tuple[int, ...]] = {}
            for item in arg.split():
                key, eq, value = item.partition("=")
                if not eq or key not in ("k", "n", "p", "r", "m"):
                    raise SpecError(f"bad family item {item!r}", lineno)
                if key in values:
                    raise SpecError(f"family item {key}= given twice", lineno)
                try:
                    values[key] = parse_range(value)
                except ValueError as exc:
                    raise SpecError(str(exc), lineno) from None
            for required in ("k", "n"):
                if required not in values:
                    raise SpecError(f"family line needs {required}=", lineno)
            try:
                families.extend(expand_family(values))
            except ParameterError as exc:
                raise SpecError(str(exc), lineno) from None
        elif head == "limit":
            if limit_line is not None:
                raise SpecError(f"limit already given on line {limit_line}", lineno)
            limit_line = lineno
            try:
                limit = int(arg)
            except ValueError:
                raise SpecError(f"bad limit {arg!r}", lineno) from None
            if limit < 1:
                raise SpecError("limit must be positive", lineno)
        elif head == "custom":
            block = {"line": lineno, "k": None, "name": None, "removed": [], "added": []}
            for item in arg.split():
                key, eq, value = item.partition("=")
                if not eq or key not in ("k", "name"):
                    raise SpecError(f"bad custom item {item!r}", lineno)
                if block[key] is not None:
                    raise SpecError(f"custom item {key}= given twice", lineno)
                if key == "name":
                    block["name"] = value
                    continue
                try:
                    block["k"] = int(value)
                except ValueError:
                    raise SpecError(f"bad k {value!r}", lineno) from None
            if block["k"] is None:
                raise SpecError("custom block needs k=", lineno)
            if block["k"] < 1:
                raise SpecError("constraint violated: k >= 1", lineno)
            name = block["name"]
            if name is None:
                name = block["name"] = f"custom-{len(customs) + 1}"
            elif not name:
                raise SpecError("custom name= is empty", lineno)
            if name in name_lines:
                raise SpecError(
                    f"custom name {name!r} already used on line {name_lines[name]}", lineno
                )
            name_lines[name] = lineno
        else:
            raise SpecError(f"unknown directive {head!r}", lineno)
    if block is not None:
        raise SpecError("unterminated custom block (missing end)", block["line"])
    family_names = {f.name for f in families}
    for name, lineno in name_lines.items():
        if name in family_names:
            raise SpecError(f"custom name {name!r} is a family model's name", lineno)
    return RunSpec(unique_families(families), tuple(customs), limit)


def _enumeration_record(outcome: EnumerationOutcome | None) -> dict | None:
    if outcome is None:
        return None
    record = {
        "definitions": outcome.stats.definitions,
        "coincidences": outcome.stats.coincidences,
        "max_live": outcome.stats.max_live,
    }
    if outcome.completed:
        record["result"] = "completed"
        record["index"] = outcome.index
    else:
        record["result"] = "limit-exceeded"
        record["cosets_used"] = outcome.result.cosets_used
    return record


def _model_record(model: ManifoldModel) -> dict:
    """The fields every model record carries, family or custom."""
    c, pres = model.char, model.presentation
    return {
        "char": {"e": c.e, "sigma": c.sigma, "b1": c.b1, "b2": c.b2, "b2plus": c.b2plus},
        "h1": str(model.h1),
        "presentation": {
            "generators": len(pres.generators),
            "relators": len(pres.relators),
            "total_length": sum(r.length for r in pres.relators),
        },
        "symplectic": model.symplectic_flag,
        "notes": list(model.notes),
    }


def _tietze_record(model: ManifoldModel, simplification: TietzeResult) -> dict:
    return {
        "generators_before": len(model.presentation.generators),
        "generators_after": len(simplification.presentation.generators),
        "eliminations": len(simplification.eliminations),
    }


def _sw_record(classes) -> dict:
    return {
        "context": {"k": classes.context[0], "n": classes.context[1], "m": classes.context[2]},
        "classes": [
            {"s": c.s, "t": c.t, "j": c.j, "value": v} for c, v in classes.entries
        ],
    }


def _record_head(item: FamilyParams | CustomSchedule) -> dict:
    """The fields a model's record carries whether or not the model ran."""
    if isinstance(item, FamilyParams):
        return {
            "kind": "family",
            "name": item.name,
            "params": {"k": item.k, "n": item.n, "p": item.p, "r": item.r, "m": item.m},
            "verdicts": {},
        }
    return {"kind": "custom", "name": item.name, "params": {"k": item.k}}


def _failed_record(item: FamilyParams | CustomSchedule, error: str) -> dict:
    return {**_record_head(item), "error": error, "passed": False}


def run_family_model(params: FamilyParams, limit: int) -> dict:
    """Build, verify, transform and classify one family member."""
    model = build_Mkn(params)
    record = _record_head(params)
    verdicts = record["verdicts"]

    comp = None
    if params.k >= 2:
        # For p = r = 1 the complement runs first: its group maps onto pi1, so
        # its Completed(1) certifies both and pi1 needs no enumeration of its own.
        if params.p == 1 and params.r == 1:
            comp = verify_complement(model, limit=limit)
        verdict = verify_pi1(model, limit=limit, complement=comp)
        model = with_pi1_certificate(model, verdict)
        verdicts["pi1"] = {
            "status": "pass" if verdict.passed else "fail",
            "claimed": str(verdict.claimed),
            "computed_h1": str(model.h1),
            "h1_check": verdict.h1_check,
            "expected_index": verdict.expected_index,
            "enumeration": _enumeration_record(verdict.enumeration),
            "enumerated": verdict.enumerated,
            "tietze": _tietze_record(model, verdict.simplification),
        }
    else:
        verdicts["pi1"] = {
            "status": "unverified",
            "reason": "k=1: claims are modeled but not certified",
        }

    if comp is not None and model.certified(PI1_TRIVIAL):
        model = with_complement_certificate(model, comp)
        verdicts["complement"] = {
            "status": "pass" if comp.passed else "fail",
            "enumeration": _enumeration_record(comp.enumeration),
        }
    else:
        verdicts["complement"] = {
            "status": "not-applicable",
            "reason": "needs k >= 2, p = r = 1 and a pi1 certificate",
        }

    if params.m >= 2:
        try:
            model = apply_log_transform(model, params.m)
            verdicts["transform"] = {"status": "pass", "m": params.m}
        except CertificateError as exc:
            verdicts["transform"] = {"status": "fail", "reason": str(exc)}

    record.update(_model_record(model))
    record["certifications"] = sorted(model.certifications)

    if verdicts.get("transform", {}).get("status") == "fail":
        # A refused transform leaves no model to classify.
        record["sw"] = None
        record["passed"] = False
        return record

    if model.form is not None:
        form = classify_form(model.form)
        k = params.k
        if params.m % 2 == 1:
            expected = f"{2 * k - 1}H"
        else:
            expected = f"{2 * k - 1}<1> + {2 * k - 1}<-1>"
        verdicts["form"] = {
            "status": "pass" if str(form) == expected else "fail",
            "classification": str(form),
            "expected": expected,
            "parity": form.parity,
            "rank": form.rank,
            "signature": form.signature,
            "basis_pairs": len(model.form_basis),
        }
    else:
        verdicts["form"] = {
            "status": "not-attached",
            "reason": "no certified simply connected form basis for this model",
        }

    if model.sw_profile is not None and params.k >= 2:
        k, n, m = model.sw_profile
        classes = basic_classes(k, n, m)
        record["sw"] = _sw_record(classes)
        verdicts["spin"] = {"status": "pass", "parity": spin_parity(k, n, m)}
        homeo = classify_homeomorphism(model)
        if homeo.classified:
            verdicts["homeomorphism"] = {
                "status": "classified",
                "type": homeo.type_name,
                "reason": homeo.reason,
            }
        else:
            expected_certificate = model.certified(PI1_TRIVIAL)
            verdicts["homeomorphism"] = {
                "status": "fail" if expected_certificate else "not-applicable",
                "type": None,
                "reason": homeo.reason,
            }
        irr = irreducibility_check(classes, k)
        verdicts["irreducibility"] = {
            "status": "pass" if irr.passed else "fail",
            "squares": list(irr.squares),
            "allowed": list(irr.allowed),
        }
    else:
        record["sw"] = None
        verdicts["homeomorphism"] = {
            "status": "not-applicable",
            "type": None,
            "reason": "no Seiberg-Witten profile (needs k >= 2, p = r = 1, trivial H1)",
        }

    record["passed"] = all(v.get("status") != "fail" for v in verdicts.values())
    return record


def run_custom_model(custom: CustomSchedule, limit: int) -> dict:
    """Apply a user relation swap to X_k and report what can be computed."""
    try:
        base = build_Xk(custom.k)
        move = SurgeryMove(
            torus_label="custom",
            surgery_curve="",
            coefficient="custom",
            removed_relations=custom.removed,
            added_relations=custom.added,
            symplectic=None,
        )
        model = apply_schedule(base, (move,), name=custom.name)
    except (ParameterError, ScheduleMismatchError) as exc:
        return _failed_record(custom, str(exc))
    simplification = tietze_simplify(model.presentation)
    outcome = enumerate_cosets(model.presentation, limit=limit)
    record = {**_record_head(custom), **_model_record(model)}
    record["verdicts"] = {
        "pi1": {
            "status": "reported",
            "computed_h1": str(model.h1),
            "enumeration": _enumeration_record(outcome),
            "tietze": _tietze_record(model, simplification),
        }
    }
    record["passed"] = True
    return record


def _record(item: FamilyParams | CustomSchedule, limit: int) -> dict:
    """One model's record, family or custom.  An exception raised while
    running the model, `MemoryError` included, becomes that model's failed
    record, so the other models still report; its traceback goes to stderr,
    not into the report.  The `run_*` functions are looked up when this runs,
    so a forked worker sees the module as the parent left it."""
    run_model = run_family_model if isinstance(item, FamilyParams) else run_custom_model
    try:
        return run_model(item, limit)
    except Exception as exc:
        traceback.print_exc()
        name, detail = type(exc).__name__, str(exc)
        return _failed_record(item, f"{name}: {detail}" if detail else name)


def _pairwise_records(records: list[dict]) -> list[dict]:
    """Smooth-distinction matrix for classified family models, grouped by
    homeomorphism type."""
    classified = [
        r
        for r in records
        if r.get("sw") is not None
        and r.get("verdicts", {}).get("homeomorphism", {}).get("status") == "classified"
    ]
    out = []
    for i, a in enumerate(classified):
        for b in classified[i + 1:]:
            ta = a["verdicts"]["homeomorphism"]["type"]
            tb = b["verdicts"]["homeomorphism"]["type"]
            if ta != tb:
                continue
            ca = a["sw"]["context"]
            cb = b["sw"]["context"]
            verdict = distinguish(
                basic_classes(ca["k"], ca["n"], ca["m"]),
                basic_classes(cb["k"], cb["n"], cb["m"]),
            )
            entry = {
                "a": a["name"],
                "b": b["name"],
                "homeomorphism_type": ta,
                "verdict": verdict.kind,
                "tags": list(verdict.tags),
            }
            if verdict.witness is not None:
                entry["witness"] = [list(verdict.witness[0]), list(verdict.witness[1])]
            out.append(entry)
    return out


def run(spec: RunSpec, jobs: int = 1) -> dict:
    """Execute a run spec and assemble the deterministic report dict."""
    items = [*spec.families, *spec.customs]
    if jobs > 1 and len(items) > 1:
        # A worker that dies outright breaks the pool: every model whose
        # record never arrived gets a failed record with error
        # `BrokenProcessPool`, and the others keep theirs.
        records = []
        with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
            futures = [pool.submit(_record, item, spec.limit) for item in items]
            for item, future in zip(items, futures):
                try:
                    records.append(future.result())
                except BrokenProcessPool:
                    traceback.print_exc()
                    records.append(_failed_record(item, "BrokenProcessPool"))
    else:
        records = [_record(item, spec.limit) for item in items]
    records.sort(key=lambda r: r["name"])
    pairwise = _pairwise_records(records)
    passed = sum(1 for r in records if r.get("passed"))
    report = {
        "engine": {"name": "exotic4", "version": __version__},
        "run": {"mode": spec.mode, "limit": spec.limit, "models": len(records)},
        "assumptions": [dict(a) for a in ASSUMPTIONS],
        "models": records,
        "pairwise": pairwise,
        "summary": {
            "models": len(records),
            "passed": passed,
            "failed": len(records) - passed,
        },
    }
    return report


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


def _verdict_cell(verdicts: dict, key: str) -> str:
    v = verdicts.get(key)
    if v is None:
        return "-"
    status = v.get("status", "-")
    if key == "homeomorphism" and v.get("type"):
        return v["type"]
    if key == "spin":
        return v.get("parity", status)
    return status


def render_table(report: dict) -> str:
    """Human-readable rendering, derived only from the JSON-ready dict."""
    lines = []
    engine = report["engine"]
    runmeta = report["run"]
    lines.append(
        f"{engine['name']} {engine['version']} | mode={runmeta['mode']} "
        f"limit={runmeta['limit']} models={runmeta['models']}"
    )
    summary = report["summary"]
    lines.append(
        f"summary: {summary['passed']} passed, {summary['failed']} failed"
    )
    lines.append("")
    headers = ["model", "e", "sig", "b1", "b2", "b2+", "H1", "pi1", "compl",
               "form", "spin", "homeo", "irred", "sympl"]
    rows = [headers]
    for r in report["models"]:
        if "error" in r:
            rows.append([r["name"], "error: " + r["error"]] + [""] * (len(headers) - 2))
            continue
        c = r["char"]
        v = r["verdicts"]
        sym = r.get("symplectic")
        rows.append([
            r["name"], str(c["e"]), str(c["sigma"]), str(c["b1"]), str(c["b2"]),
            str(c["b2plus"]), r["h1"],
            _verdict_cell(v, "pi1"), _verdict_cell(v, "complement"),
            _verdict_cell(v, "form"), _verdict_cell(v, "spin"),
            _verdict_cell(v, "homeomorphism"), _verdict_cell(v, "irreducibility"),
            {True: "yes", False: "no", None: "unknown"}[sym],
        ])
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    for idx, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    if report["pairwise"]:
        lines.append("")
        lines.append("pairwise smooth distinction (same homeomorphism type):")
        for e in report["pairwise"]:
            extra = ""
            if "witness" in e:
                extra = f"  |SW| {e['witness'][0]} vs {e['witness'][1]}"
            lines.append(
                f"  {e['a']} ({e['tags'][0]}) vs {e['b']} ({e['tags'][1]}): "
                f"{e['verdict']}{extra}"
            )
    lines.append("")
    lines.append("assumptions (axioms this report relies on):")
    for a in report["assumptions"]:
        lines.append(f"  [{a['id']}] {a['statement']}")
    return "\n".join(lines) + "\n"
