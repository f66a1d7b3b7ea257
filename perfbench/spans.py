"""Span tracer installed from outside the program, and the per-layer metrics
derived from its spans.

Each wrapped function is replaced under the name its caller looks it up by
(for example `exotic4.manifolds.enumerate_cosets`, which `verify_pi1` calls),
so the program's own code is untouched.  A span is (group, start, end,
parent, counters); a group's self time is its spans' durations minus the
durations of their direct children.
"""

from __future__ import annotations

import importlib
import time

ROOT = "report.self"

# (module, attribute path, group).
WRAPS = (
    ("exotic4.manifolds", "enumerate_cosets", "coset"),
    ("exotic4.report", "enumerate_cosets", "coset"),
    ("exotic4.manifolds", "tietze_simplify", "presentations.tietze"),
    ("exotic4.report", "tietze_simplify", "presentations.tietze"),
    ("exotic4.words", "Word.substitute", "words.substitute"),
    ("exotic4.manifolds", "abelian_invariants", "intlinalg.abelian_invariants"),
    ("exotic4.report", "classify_form", "intlinalg.classify_form"),
    ("exotic4.report", "build_Mkn", "manifolds.build"),
    ("exotic4.report", "build_Xk", "manifolds.build"),
    ("exotic4.report", "apply_schedule", "manifolds.build"),
    ("exotic4.report", "verify_pi1", "manifolds.self"),
    ("exotic4.report", "verify_complement", "manifolds.self"),
    ("exotic4.report", "apply_log_transform", "manifolds.self"),
    ("exotic4.report", "basic_classes", "sw"),
    ("exotic4.report", "spin_parity", "sw"),
    ("exotic4.report", "classify_homeomorphism", "sw"),
    ("exotic4.report", "irreducibility_check", "sw"),
    ("exotic4.report", "distinguish", "sw"),
    ("exotic4.report", "render_json", "report.render_json"),
)


def _coset_counters(outcome) -> dict:
    s = outcome.stats
    return {
        "definitions": s.definitions,
        "coincidences": s.coincidences,
        "max_live": s.max_live,
        "completed": int(outcome.completed),
    }


def _tietze_counters(result) -> dict:
    return {"steps": result.steps, "eliminations": len(result.eliminations)}


COUNTERS = {"coset": _coset_counters, "presentations.tietze": _tietze_counters}


class Tracer:
    """Records spans in memory; `spans` is a list of
    [group, start, end, parent index or -1, counters or None]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, group: str, fn, /, *args, **kwargs):
        spans, stack = self.spans, self._stack
        record = [group, 0.0, 0.0, stack[-1] if stack else -1, None]
        stack.append(len(spans))
        spans.append(record)
        record[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()
        counters = COUNTERS.get(group)
        if counters is not None:
            record[4] = counters(out)
        return out

    def install(self):
        """Replace every WRAPS entry with a span-recording wrapper."""
        for module, path, group in WRAPS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            fn = getattr(owner, attr)

            def wrapper(*args, _fn=fn, _group=group, **kwargs):
                return self.call(_group, _fn, *args, **kwargs)

            setattr(owner, attr, wrapper)


def _self_times(spans: list[list]) -> list[float]:
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced sweep (span 0 is the root)."""
    if not spans or spans[0][0] != ROOT:
        raise ValueError("trace has no root span")
    own = _self_times(spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    totals: dict[str, int] = {}
    max_live = 0
    for (group, _, _, _, counters), t in zip(spans, own):
        self_s[group] = self_s.get(group, 0.0) + t
        calls[group] = calls.get(group, 0) + 1
        for key, value in (counters or {}).items():
            totals[f"{group}.{key}"] = totals.get(f"{group}.{key}", 0) + value
        if group == "coset":
            max_live = max(max_live, counters["max_live"])
    coset_s = self_s.get("coset", 0.0)
    coset_calls = calls.get("coset", 0)
    definitions = totals.get("coset.definitions", 0)
    return {
        "coset.enumerate_s": coset_s,
        "coset.definitions_per_s": definitions / coset_s if coset_s else 0.0,
        "coset.calls": coset_calls,
        "coset.definitions": definitions,
        "coset.coincidences": totals.get("coset.coincidences", 0),
        "coset.max_live": max_live,
        "coset.completed_share": (
            totals.get("coset.completed", 0) / coset_calls if coset_calls else 0.0
        ),
        "presentations.tietze_s": self_s.get("presentations.tietze", 0.0),
        "presentations.tietze_calls": calls.get("presentations.tietze", 0),
        "presentations.tietze_steps": totals.get("presentations.tietze.steps", 0),
        "presentations.tietze_eliminations": totals.get(
            "presentations.tietze.eliminations", 0
        ),
        "words.substitute_s": self_s.get("words.substitute", 0.0),
        "words.substitute_calls": calls.get("words.substitute", 0),
        "intlinalg.abelian_invariants_s": self_s.get("intlinalg.abelian_invariants", 0.0),
        "intlinalg.abelian_invariants_calls": calls.get("intlinalg.abelian_invariants", 0),
        "intlinalg.classify_form_s": self_s.get("intlinalg.classify_form", 0.0),
        "manifolds.build_s": self_s.get("manifolds.build", 0.0),
        "manifolds.self_s": self_s.get("manifolds.self", 0.0),
        "sw.s": self_s.get("sw", 0.0),
        "report.self_s": self_s.get(ROOT, 0.0),
        "report.render_json_s": self_s.get("report.render_json", 0.0),
    }


# Metrics that count work; they must repeat exactly between traced sweeps.
EXACT = (
    "coset.calls",
    "coset.definitions",
    "coset.coincidences",
    "coset.max_live",
    "presentations.tietze_calls",
    "presentations.tietze_steps",
    "presentations.tietze_eliminations",
    "words.substitute_calls",
    "intlinalg.abelian_invariants_calls",
)

# Self-time metrics that partition the root span.
SELF_TIMES = (
    "coset.enumerate_s",
    "presentations.tietze_s",
    "words.substitute_s",
    "intlinalg.abelian_invariants_s",
    "intlinalg.classify_form_s",
    "manifolds.build_s",
    "manifolds.self_s",
    "sw.s",
    "report.render_json_s",
    "report.self_s",
)


def root_seconds(spans: list[list]) -> float:
    return spans[0][2] - spans[0][1]


def check_consistency(spans: list[list], metrics: dict[str, float]) -> str | None:
    """The layer self times must add up to the root span: a span outside the
    root, or one whose parent link is wrong, breaks the sum."""
    root = root_seconds(spans)
    total = sum(metrics[name] for name in SELF_TIMES)
    if abs(total - root) > 1e-6 * max(1.0, root):
        return f"layer self times sum to {total!r} s, root span is {root!r} s"
    return None
