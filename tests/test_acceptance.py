"""Acceptance gate: one test per numbered criterion, exact arithmetic only.

`pytest -v tests/test_acceptance.py` prints one PASSED/FAILED line per
criterion.  Criteria 2, 4, 10 and 11 run full coset enumerations (criterion 2
on the as-built pi1 presentations, the others on torus complements over
<b2>, whose certificates also certify pi1) and together take minutes of CPU time; the
10^6-coset ceiling is the contract, per-model wall time is hardware-bound
and reported for information only.
"""

import hashlib
import time
from dataclasses import replace

import pytest

from exotic4.intlinalg import classify_form, exponent_matrix, smith_normal_form
from exotic4.manifolds import (
    COMPLEMENT_TRIVIAL,
    PI1_TRIVIAL,
    FamilyParams,
    apply_log_transform,
    build_Mkn,
    build_Xk,
    build_Zk,
    claimed_invariants,
    transformed_form,
    verify_complement,
    verify_pi1,
)
from exotic4.report import RunSpec, render_json, run
from exotic4.sw import (
    ClassVector,
    basic_classes,
    classify_homeomorphism,
    enumerate_Zk_candidates,
    irreducibility_check,
    spin_parity,
)

from _oracles import matmul, rational_determinant


def test_criterion_01_base_model_invariants_and_form():
    for k in (1, 2, 3, 4):
        started = time.perf_counter()
        model = build_Xk(k)
        form = classify_form(model.form)
        elapsed = time.perf_counter() - started
        assert (model.char.e, model.char.sigma, model.char.b1, model.char.b2) == (
            4 * k, 0, 2 * k + 4, 8 * k + 6,
        )
        assert form.kind == "hyperbolic" and str(form) == f"{4 * k + 3}H"
        assert elapsed < 1.0, f"k={k} took {elapsed:.3f}s"
        print(f"criterion 1 [k={k}]: (e,sigma,b1,b2)=({4*k},0,{2*k+4},{8*k+6}), "
              f"form {form}, {elapsed * 1000:.0f} ms")


def test_criterion_02_pi1_triviality_certified_by_enumeration():
    for k in (2, 3, 4):
        for n in (1, 2, 3):
            started = time.perf_counter()
            model = build_Mkn(FamilyParams(k, n))
            verdict = verify_pi1(model)  # Tietze evidence + coset certificate
            elapsed = time.perf_counter() - started
            assert verdict.passed, f"(k,n)=({k},{n})"
            assert verdict.certifies_trivial
            assert verdict.enumerated == "as-built"
            assert verdict.enumeration.completed
            assert verdict.enumeration.index == 1
            assert verdict.simplification.steps >= 0  # simplification evidence attached
            print(f"criterion 2 [k={k} n={n}]: Completed(1) in {elapsed:.1f}s "
                  f"({verdict.enumeration.stats.definitions} definitions, "
                  f"max {verdict.enumeration.stats.max_live} live cosets)")


def test_criterion_03_first_homology_law_with_snf_certificate():
    for p, r in ((1, 1), (2, 3), (0, 1), (4, 4)):
        model = build_Mkn(FamilyParams(2, 1, p, r))
        assert model.h1 == claimed_invariants(p, r), f"(p,r)=({p},{r})"
        # exact transform certificate on this run's exponent matrix
        m = exponent_matrix(model.presentation)
        snf = smith_normal_form(m)
        u, v = snf.u.to_lists(), snf.v.to_lists()
        assert matmul(matmul(u, m.to_lists()), v) == snf.d.to_lists()
        assert rational_determinant(u) in (1, -1)
        assert rational_determinant(v) in (1, -1)
        print(f"criterion 3 [p={p} r={r}]: H1 = {model.h1}, "
              f"SNF certificate D = U*M*V verified exactly")


def test_criterion_04_torus_complement_stays_simply_connected():
    for k in (2, 3):
        for n in (1, 2):
            started = time.perf_counter()
            model = build_Mkn(FamilyParams(k, n))
            verdict = verify_complement(model)
            elapsed = time.perf_counter() - started
            assert verdict.passed, f"(k,n)=({k},{n})"
            assert verdict.enumeration.index == 1 and verdict.h1.trivial
            # the complement group maps onto pi1: one certificate serves both
            derived = verify_pi1(model, complement=verdict)
            assert derived.passed and derived.certifies_trivial
            assert derived.enumerated == "complement"
            assert derived.enumeration is verdict.enumeration
            print(f"criterion 4 [k={k} n={n}]: complement Completed(1) over <b2> "
                  f"with H1 = {verdict.h1} in {elapsed:.1f}s, pi1 certified through it")


def test_criterion_05_intermediate_model_bookkeeping():
    for k in (2, 3):
        z = build_Zk(k)
        assert (z.char.b1, z.char.b2, z.char.b2plus) == (1, 4 * k, 2 * k)
        print(f"criterion 5 [k={k}]: b1=1, b2={4*k}, b2+={2*k}")


def test_criterion_06_candidate_classes_by_brute_force():
    for k in range(2, 51):
        survivors = enumerate_Zk_candidates(k)
        assert survivors == (ClassVector(-2 * k, -2), ClassVector(2 * k, 2)), f"k={k}"
    print("criterion 6 [k=2..50]: survivors exactly +-(2k A + 2 B)")


def test_criterion_07_basic_class_spectrum():
    for k in (2, 3):
        for n in (1, 2, 3, 4):
            for m in (1, 2, 3, 4):
                classes = basic_classes(k, n, m)
                assert len(classes.entries) == 2 * m
                assert all(value == n for _, value in classes.entries)
                assert {c.j for c in classes.classes} == set(range(-(m - 1), m, 2))
                assert {(abs(c.s), abs(c.t)) for c in classes.classes} == {(2 * k, 2)}
    print("criterion 7 [k in {2,3}, n,m in 1..4]: 2m classes of value n, "
          "offsets -(m-1)..(m-1) step 2")


def test_criterion_08_parity_and_homeomorphism_types():
    # The parity and the type are read off the classified form of the
    # labeled basis, through the transform's parity rule, as the report
    # reads them.
    for k in (2, 3):
        for n in (1, 2, 3, 4):
            base = replace(
                build_Mkn(FamilyParams(k, n)),
                certifications=frozenset({PI1_TRIVIAL, COMPLEMENT_TRIVIAL}),
            )
            for m in (1, 2, 3, 4):
                model = apply_log_transform(base, m)
                form = transformed_form(classify_form(base.form), m)
                parity = spin_parity(form)
                verdict = classify_homeomorphism(model, form)
                assert verdict.classified
                if m % 2 == 1:
                    assert parity == "spin"
                    assert verdict.type_name == f"{2 * k - 1}(S2xS2)"
                else:
                    assert parity == "nonspin"
                    assert verdict.type_name == f"{2 * k - 1}(CP2#CP2bar)"
    print("criterion 8: m odd -> spin -> (2k-1)(S2xS2); "
          "m even -> nonspin -> (2k-1)(CP2#CP2bar)")


def test_criterion_09_square_differences_certify_irreducibility():
    for k in (2, 3):
        for n in (1, 2, 3, 4):
            for m in (1, 2, 3, 4):
                classes = basic_classes(k, n, m)
                verdict = irreducibility_check(classes, k)
                assert verdict.passed, f"(k,n,m)=({k},{n},{m})"
                assert set(verdict.squares) <= {0, 32 * k}
    print("criterion 9: all pairwise (L - L')^2 in {0, 32k}")


@pytest.fixture(scope="module")
def twice_run_sweep():
    """The k=2, n=1..3, m=1..2 sweep executed twice, end to end: once in this
    process and once on two worker processes, forked from this one."""
    spec = RunSpec(
        tuple(
            FamilyParams(2, n, 1, 1, m) for n in (1, 2, 3) for m in (1, 2)
        ),
    )
    first = run(spec)
    second = run(spec, jobs=2)
    return first, second


def test_criterion_10_family_with_matching_topology_but_distinct_smooth_structures(
    twice_run_sweep,
):
    report, _ = twice_run_sweep
    assert report["summary"]["failed"] == 0
    by_m = {1: [], 2: []}
    for record in report["models"]:
        assert record["passed"], record["name"]
        # one enumeration per model: the complement's certifies pi1 too
        assert record["verdicts"]["pi1"]["enumerated"] == "complement", record["name"]
        by_m[record["params"]["m"]].append(record)
    for m, group in by_m.items():
        types = {r["verdicts"]["homeomorphism"]["type"] for r in group}
        assert len(types) == 1  # one topological model per multiplicity
        for record in group:
            n = record["params"]["n"]
            assert record["symplectic"] is (n == 1)
    # every same-type pair is distinguished by the value multiset
    pairs = report["pairwise"]
    assert len(pairs) == 6  # C(3,2) pairs within each of the two types
    for entry in pairs:
        assert entry["verdict"] == "nondiffeomorphic"
    tags = {(e["tags"][0], e["tags"][1]) for e in pairs}
    assert ("symplectic", "nonsymplectic") in tags
    print("criterion 10: n-indexed family shares one homeomorphism type per m, "
          "pairwise nondiffeomorphic, n=1 symplectic / n>=2 not")


# sha256 of the sweep's JSON report.  A change that alters any report byte
# must update this constant and say why.
SWEEP_SHA256 = "7b528599c8c43379980258a2d8c80ea64b0a3e679048e9b1ed5949ab02b1b6d3"


def test_criterion_11_reports_are_byte_stable(twice_run_sweep):
    first, second = twice_run_sweep
    bytes_a = render_json(first).encode()
    bytes_b = render_json(second).encode()
    assert bytes_a == bytes_b
    digest = hashlib.sha256(bytes_a).hexdigest()
    assert digest == SWEEP_SHA256, f"sweep report sha256 is now {digest}"
    print(f"criterion 11: full-sweep reports at jobs=1 and jobs=2 byte-identical "
          f"({len(bytes_a)} bytes)")
