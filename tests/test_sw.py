"""Seiberg-Witten bookkeeping: candidates, spectra, verdicts."""

from dataclasses import replace

import pytest

from exotic4 import report, sw
from exotic4.intlinalg import FormType, classify_form
from exotic4.manifolds import (
    COMPLEMENT_TRIVIAL,
    PI1_TRIVIAL,
    CharNumbers,
    FamilyParams,
    apply_log_transform,
    build_Mkn,
    build_Xk,
    hyperbolic_form,
    transformed_form,
)
from exotic4.sw import (
    ClassVector,
    ContractError,
    basic_classes,
    classify_homeomorphism,
    distinguish,
    enumerate_Zk_candidates,
    irreducibility_check,
    spin_parity,
)


def certified(model):
    return replace(
        model, certifications=frozenset({PI1_TRIVIAL, COMPLEMENT_TRIVIAL})
    )


# ---------------------------------------------------------------- class algebra


def test_class_vector_square_is_twice_the_mixed_product():
    assert ClassVector(4, 2).square == 16
    assert ClassVector(2, -2).square == -8
    assert ClassVector(0, 5, 7).square == 0  # the extra class is null
    v = ClassVector(4, 2, 1)
    assert (-v) == ClassVector(-4, -2, -1)
    assert v - ClassVector(2, 2, -1) == ClassVector(2, 0, 2)
    assert str(v) == "4A+2B+1T"


# ---------------------------------------------------------------- candidates


def brute_force_candidates(k):
    """Independent sweep: even coefficients, |s| <= 2k, |t| <= 2, and the
    square bound 2st >= 8k that an embedded-surface count forces."""
    out = []
    for s in range(-2 * k, 2 * k + 1):
        for t in range(-2, 3):
            if s % 2 == 0 and t % 2 == 0 and 2 * s * t >= 8 * k:
                out.append(ClassVector(s, t))
    return sorted(out)


@pytest.mark.parametrize("k", [2, 3, 5, 11, 50])
def test_candidate_survivors_are_the_extreme_pair(k):
    got = enumerate_Zk_candidates(k)
    assert got == (ClassVector(-2 * k, -2), ClassVector(2 * k, 2))
    assert list(got) == brute_force_candidates(k)


def test_candidates_need_enough_genus():
    with pytest.raises(ContractError):
        enumerate_Zk_candidates(1)


# ---------------------------------------------------------------- spectra


def test_basic_classes_multiplicity_one():
    classes = basic_classes(2, 3, 1)
    assert classes.context == (2, 3, 1)
    assert classes.classes == (ClassVector(-4, -2, 0), ClassVector(4, 2, 0))
    assert [v for _, v in classes.entries] == [3, 3]


def test_basic_classes_spread_by_multiplicity():
    classes = basic_classes(2, 1, 2)
    assert len(classes.entries) == 4
    assert {c.j for c in classes.classes} == {-1, 1}
    assert all(v == 1 for _, v in classes.entries)
    deep = basic_classes(3, 4, 4)
    assert len(deep.entries) == 8
    assert {c.j for c in deep.classes} == {-3, -1, 1, 3}
    assert all(v == 4 for _, v in deep.entries)
    assert {(c.s, c.t) for c in deep.classes} == {(6, 2), (-6, -2)}


def test_basic_classes_spread_the_candidate_survey(monkeypatch):
    # basic_classes reads its m = 1 classes from the adjunction survey
    # rather than restating them.
    monkeypatch.setattr(sw, "enumerate_Zk_candidates", lambda k: (ClassVector(2, 4),))
    assert basic_classes(2, 3, 1).entries == ((ClassVector(2, 4, 0), 3),)
    spread = basic_classes(2, 3, 2).classes
    assert spread == (ClassVector(2, 4, -1), ClassVector(2, 4, 1))


def test_basic_classes_closed_under_negation():
    for k in (2, 3):
        for n in (1, 2):
            for m in (1, 2, 3):
                classes = basic_classes(k, n, m)
                as_set = set(classes.classes)
                assert {-c for c in as_set} == as_set
                # the offset parity matches the multiplicity parity
                assert all((c.j - (m - 1)) % 2 == 0 for c in as_set)


def test_basic_classes_validate_parameters():
    with pytest.raises(ContractError):
        basic_classes(1, 1, 1)
    with pytest.raises(ContractError):
        basic_classes(2, 0, 1)
    with pytest.raises(ContractError):
        basic_classes(2, 1, 0)


# ---------------------------------------------------------------- parity and type


def classify(model, m=1):
    """The spin parity and the homeomorphism verdict of the multiplicity-m
    transform of `model`, both read off the classified form of its labeled
    basis through `transformed_form`, as the report reads them."""
    form = transformed_form(classify_form(model.form), m)
    return spin_parity(form), classify_homeomorphism(apply_log_transform(model, m), form)


def test_classification_needs_the_certificate():
    model = build_Mkn(FamilyParams(2, 1))
    _, verdict = classify(model)
    assert not verdict.classified
    assert verdict.type_name is None
    assert "not certified" in verdict.reason


def certified_family():
    """Certified M(2,1) with m = 1, 2, 3, and certified M(3,2) with m = 1."""
    model = certified(build_Mkn(FamilyParams(2, 1)))
    other = certified(build_Mkn(FamilyParams(3, 2)))
    return [(model, 1), (model, 2), (model, 3), (other, 1)]


def test_spin_parity_follows_multiplicity():
    parities = [classify(model, m)[0] for model, m in certified_family()]
    assert parities == ["spin", "nonspin", "spin", "spin"]


def test_classification_of_certified_models():
    verdicts = [classify(model, m)[1] for model, m in certified_family()]
    assert all(v.classified for v in verdicts)
    assert [v.type_name for v in verdicts] == [
        "3(S2xS2)", "3(CP2#CP2bar)", "3(S2xS2)", "5(S2xS2)",
    ]


def test_parity_and_type_follow_the_attached_form_not_m():
    # m = 1 would say spin and S2xS2; the odd form given says otherwise.
    model = certified(build_Mkn(FamilyParams(2, 1)))
    assert model.params.m == 1
    odd = FormType("odd", 6, 0, "odd")
    assert spin_parity(odd) == "nonspin"
    assert classify_homeomorphism(model, odd).type_name == "3(CP2#CP2bar)"
    # An odd form of signature 2 is neither qH nor q<1> + q<-1>.
    skew = FormType("odd", 6, 2, "odd")
    assert spin_parity(skew) == "nonspin"
    verdict = classify_homeomorphism(model, skew)
    assert not verdict.classified
    assert "4<1> + 2<-1>" in verdict.reason


def test_transformed_form_is_the_one_owner_of_the_m_parity_rule(monkeypatch):
    form = classify_form(hyperbolic_form(3))
    assert [str(transformed_form(form, m)) for m in (1, 2, 3, 4)] == [
        "3H", "3<1> + 3<-1>", "3H", "3<1> + 3<-1>",
    ]
    # A form that may not be unimodular does not become one.
    assert transformed_form(FormType("other", 6, 0, "even"), 2).kind == "other"
    # The transform attaches no form of its own.
    assert apply_log_transform(certified(build_Mkn(FamilyParams(2, 1))), 2).form is None
    # The report reads the m = 2 parity and type from this one rule.
    monkeypatch.setattr(report, "transformed_form", lambda form, m: form)
    record = report.run_family_model(FamilyParams(2, 1, 1, 1, 2), 60_000)
    assert record["verdicts"]["homeomorphism"]["type"] == "3(S2xS2)"
    assert record["verdicts"]["spin"]["parity"] == "spin"


def test_the_form_verdict_fails_when_the_basis_disagrees_with_b2(monkeypatch):
    # The basis spans rank 6, but e + 2 makes b2 = 8: the verdict fails.
    real = report.build_Mkn

    def shifted(params):
        m = real(params)
        return replace(m, char=CharNumbers(m.char.e + 2, m.char.sigma, m.char.b1))

    monkeypatch.setattr(report, "build_Mkn", shifted)
    record = report.run_family_model(FamilyParams(2, 1), 60_000)
    assert record["verdicts"]["form"]["status"] == "fail"
    assert record["passed"] is False


def test_classification_refuses_models_without_a_profile():
    # Nontrivial H1: no form is attached, so the report reads no type.
    twisted = build_Mkn(FamilyParams(2, 1, 2, 3))
    assert twisted.form is None
    record = report.run_family_model(FamilyParams(2, 1, 2, 3), 10_000)
    assert record["sw"] is None
    assert record["verdicts"]["homeomorphism"]["status"] == "not-applicable"
    assert "spin" not in record["verdicts"]
    # X_k carries a form but no pi1 certificate.
    base = build_Xk(2)
    assert not classify_homeomorphism(base, classify_form(base.form)).classified


# ---------------------------------------------------------------- irreducibility


def test_pairwise_square_differences_stay_in_the_allowed_set(monkeypatch):
    for k in (2, 3):
        for n in (1, 4):
            for m in (1, 2, 4):
                classes = basic_classes(k, n, m)
                verdict = irreducibility_check(classes, k)
                assert verdict.passed
                assert set(verdict.squares) <= {0, 32 * k}
                assert verdict.allowed == (0, 32 * k)
    # both values actually occur for the two-class spectrum
    verdict = irreducibility_check(basic_classes(2, 1, 1), 2)
    assert set(verdict.squares) == {0, 64}
    # The 600 classes at m = 300 project to two (s, t) points: a handful of
    # differences, not the 360,000 ordered pairs of the classes themselves.
    calls = []
    real = ClassVector.__sub__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(ClassVector, "__sub__", counting)
    verdict = irreducibility_check(basic_classes(2, 1, 300), 2)
    assert verdict.squares == (0, 64) and verdict.passed
    assert len(calls) <= 16


def test_irreducibility_flags_foreign_differences():
    classes = basic_classes(2, 1, 1)
    verdict = irreducibility_check(classes, 3)  # wrong genus: 32k mismatch
    assert not verdict.passed


# ---------------------------------------------------------------- distinction


def test_different_twists_are_distinguished_by_the_value_multiset():
    verdict = distinguish((1, 1), (2, 2))
    assert verdict.kind == "nondiffeomorphic"
    assert verdict.witness == ((1, 1), (2, 2))
    mirrored = distinguish((2, 2), (1, 1))
    assert mirrored.kind == "nondiffeomorphic"
    assert mirrored.witness == ((2, 2), (1, 1))


def test_equal_spectra_are_indistinguishable_by_this_invariant():
    verdict = distinguish((2, 2), (2, 2))
    assert verdict.kind == "indistinguishable"
    assert verdict.witness is None


def classified_record(n):
    """A hand-built classified k = 2, m = 1 family record, as
    `run_family_model` would write it."""
    params = FamilyParams(2, n)
    classes = basic_classes(2, n, 1)
    return {
        "name": params.name,
        "symplectic": n == 1,
        "sw": report._sw_record(classes),
        "verdicts": {"homeomorphism": {"status": "classified", "type": "3(S2xS2)"}},
    }


def test_pairwise_entries_read_the_records_without_recomputing_classes(monkeypatch):
    records = [classified_record(n) for n in (1, 2, 3)]
    calls = []
    real = report.basic_classes

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(report, "basic_classes", counting)
    entries = report._pairwise_records(records)
    assert calls == []
    names = [r["name"] for r in records]
    assert [(e["a"], e["b"]) for e in entries] == [
        (names[0], names[1]), (names[0], names[2]), (names[1], names[2]),
    ]
    assert all(e["homeomorphism_type"] == "3(S2xS2)" for e in entries)
    assert all(e["verdict"] == "nondiffeomorphic" for e in entries)
    assert [e["witness"] for e in entries] == [
        [[1, 1], [2, 2]], [[1, 1], [3, 3]], [[2, 2], [3, 3]],
    ]
    assert [e["tags"] for e in entries] == [
        ["symplectic", "nonsymplectic"],
        ["symplectic", "nonsymplectic"],
        ["nonsymplectic", "nonsymplectic"],
    ]
