"""Surgery models: invariants, schedules, verification gates, transforms."""

import copy
import hashlib
import pickle
from dataclasses import asdict, replace

import pytest

from exotic4 import manifolds, report
from exotic4.coset import DEFAULT_LIMIT, Completed, EnumerationOutcome, LimitExceeded
from exotic4.presentations import Presentation
from exotic4.words import MAX_RELATOR_LENGTH, commutator, gen, parse_relation
from exotic4.intlinalg import AbelianInvariants, abelian_invariants, classify_form
from exotic4.manifolds import (
    COMPLEMENT_TRIVIAL,
    PI1_TRIVIAL,
    CertificateError,
    CharNumbers,
    ComplementVerdict,
    FamilyParams,
    ParameterError,
    ScheduleMismatchError,
    SurgeryMove,
    apply_log_transform,
    apply_schedule,
    build_Mkn,
    build_Xk,
    build_Zk,
    claimed_invariants,
    complement_presentation,
    schedule_Mkn,
    transformed_form,
    verify_complement,
    verify_pi1,
    with_complement_certificate,
)


def certified(model):
    """Stamp both certificates without running enumeration (unit-test rig;
    the real certificates are earned in the acceptance suite)."""
    return replace(
        model, certifications=frozenset({PI1_TRIVIAL, COMPLEMENT_TRIVIAL})
    )


# ---------------------------------------------------------------- parameters


def test_family_params_validation_names_the_constraint():
    with pytest.raises(ParameterError, match="k >= 1"):
        FamilyParams(0, 1)
    with pytest.raises(ParameterError, match="n >= 1"):
        FamilyParams(2, 0)
    with pytest.raises(ParameterError, match="p >= 0"):
        FamilyParams(2, 1, -1)
    with pytest.raises(ParameterError, match="r >= 0"):
        FamilyParams(2, 1, 1, -2)
    with pytest.raises(ParameterError, match="m >= 1"):
        FamilyParams(2, 1, 1, 1, 0)


def test_char_numbers_enforce_their_relations():
    c = CharNumbers(8, 0, 0)
    assert (c.b2, c.b2plus) == (6, 3)
    with pytest.raises(ValueError, match="odd"):
        CharNumbers(8, 1, 0)  # b2 + sigma = 7 has no integer half
    with pytest.raises(ValueError, match="nonnegative"):
        CharNumbers(0, 0, 0)  # b2 = -2


# ---------------------------------------------------------------- base model


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_base_model_characteristic_numbers(k):
    m = build_Xk(k)
    assert (m.char.e, m.char.sigma, m.char.b1, m.char.b2) == (
        4 * k, 0, 2 * k + 4, 8 * k + 6,
    )
    assert m.char.b2plus == 4 * k + 3
    assert str(classify_form(m.form)) == f"{4 * k + 3}H"
    assert len(m.form_basis) == 4 * k + 3
    assert len(m.presentation.generators) == 2 * k + 6
    assert m.symplectic_flag is True


def test_base_model_basis_labels_pair_dual_classes():
    m = build_Xk(2)
    assert m.form_basis[0] == ("[a1 x c1]", "-[b1 x d1]")
    assert m.form_basis[-1] == ("[Sigma_2 x pt]", "[pt x Sigma_5]")
    flat = [label for pair in m.form_basis for label in pair]
    assert len(flat) == len(set(flat)) == m.char.b2


def test_base_model_abelianization_is_free_of_full_rank():
    for k in (1, 2, 3):
        m = build_Xk(k)
        assert m.h1 == AbelianInvariants((), 2 * k + 4)


def test_base_model_b1_is_checked_against_its_presentation(monkeypatch):
    # An extra, unrelated generator raises H1's free rank to 2k + 5, which
    # the stated b1 = 2k + 4 no longer matches.
    real = manifolds.family_generators
    monkeypatch.setattr(manifolds, "family_generators", lambda k: real(k) + ("z",))
    with pytest.raises(ValueError, match="b1 = 8 disagrees with H1 free rank 9"):
        build_Xk(2)


def test_base_model_rejects_bad_k():
    with pytest.raises(ParameterError):
        build_Xk(0)


# ---------------------------------------------------------------- schedules


def test_schedule_has_one_move_per_surgery_torus():
    for k in (1, 2, 3, 4):
        sched = schedule_Mkn(FamilyParams(k, 1))
        assert len(sched) == 2 * k + 4
        assert sum(1 for mv in sched if mv.coefficient == "-n") == 1
        labels = [mv.torus_label for mv in sched]
        assert len(labels) == len(set(labels))
        for mv in sched:
            assert len(mv.removed_relations) == len(mv.added_relations) == 1


def test_schedule_coefficients_for_genus_two():
    sched = schedule_Mkn(FamilyParams(2, 1))
    assert [mv.coefficient for mv in sched] == [
        "-1", "-1", "-1", "-n", "-1/p", "-1/r", "-1", "-1",
    ]
    assert [mv.added_relations[0].syllables[-1][0] for mv in sched] == [
        "a1", "b1", "c1", "d1", "c2", "d2", "d3", "ct",
    ]


def test_small_genus_schedule_skips_order_moves():
    sched = schedule_Mkn(FamilyParams(1, 1))
    assert len(sched) == 6
    assert all(mv.coefficient in ("-1", "-n") for mv in sched)


def test_apply_schedule_swaps_relations_in_place():
    base = build_Xk(2)
    model = build_Mkn(FamilyParams(2, 1))
    assert len(model.presentation.relators) == len(base.presentation.relators)
    assert model.presentation.generators == base.presentation.generators
    # every pre-surgery target is gone, every surgered relation is present
    for mv in schedule_Mkn(FamilyParams(2, 1)):
        for rel in mv.removed_relations:
            assert rel not in model.presentation.relators
        for rel in mv.added_relations:
            assert rel in model.presentation.relators


def test_apply_schedule_then_inverse_restores_homology():
    base = build_Xk(2)
    sched = schedule_Mkn(FamilyParams(2, 3, 2, 1))
    model = build_Mkn(FamilyParams(2, 3, 2, 1))
    inverse = [
        SurgeryMove(
            torus_label=mv.torus_label,
            coefficient="undo",
            removed_relations=mv.added_relations,
            added_relations=mv.removed_relations,
        )
        for mv in reversed(sched)
    ]
    restored = apply_schedule(model, inverse)
    assert abelian_invariants(restored.presentation) == base.h1
    assert set(restored.presentation.relators) == set(base.presentation.relators)


def test_empty_schedule_is_a_noop_on_the_presentation():
    base = build_Xk(2)
    same = apply_schedule(base, ())
    assert same.presentation == base.presentation
    assert same.char == base.char


def test_schedule_mismatch_is_reported_with_the_move():
    base = build_Xk(2)
    bogus = SurgeryMove(
        torus_label="phantom",
        coefficient="-1",
        removed_relations=(gen("a1") ** 7,),
        added_relations=(gen("a1"),),
    )
    message = r"^move 'phantom' removes a1\^7, which is not a relator$"
    with pytest.raises(ScheduleMismatchError, match=message):
        apply_schedule(base, (bogus,))


def test_an_over_long_family_relation_fails_its_record_at_once():
    # The -1/p move adds [b2^-1, d2^-1] c2^-p, 4 + p letters: past the cap
    # for p = MAX_RELATOR_LENGTH, so the record fails before X_k is surgered.
    # The -n move adds [b2, c1^-1]^n d1^-1, 4n + 1 letters: past the cap for
    # every n >= 250,000, refused by the move before the power is built.
    cases = [
        (FamilyParams(2, 1, MAX_RELATOR_LENGTH, 1), "a2' x c2'", MAX_RELATOR_LENGTH + 4),
        *((FamilyParams(2, n, 1, 1), "a2'' x d1'", 4 * n + 1)
          for n in (250_000, 250_001, 300_000)),
    ]
    for params, label, letters in cases:
        record = report._record(params, 100)
        assert record["passed"] is False
        assert record["error"] == (
            f"ValueError: move {label!r} adds a relation of {letters} letters, "
            f"more than the {MAX_RELATOR_LENGTH} allowed"
        ), params


# sha256 of one row per as-built presentation (X_k, Z_k, M(k, n, p, r)) and
# per schedule move (label, coefficient, removed and added relations) over
# the grid below.  A change that alters a relator, its letters or its place
# in the list changes the digest.
PRESENTATIONS_SHA256 = "ba61c4f4f28b4a61a26da7a51c4b36d15271946b9bec424dd310fc9a185c4dce"
PIN_KS = (1, 2, 3, 4, 5, 8)
PIN_FAMILY = [
    FamilyParams(k, n, p, r)
    for k in PIN_KS for n in (1, 2, 3) for p in (0, 1, 2, 3) for r in (0, 1, 2, 5)
]


def test_the_as_built_presentations_are_pinned():
    rows = [f"X{k} {build_Xk(k).presentation}" for k in PIN_KS]
    rows += [f"Z{k} {build_Zk(k).presentation}" for k in PIN_KS if k >= 2]
    for params in PIN_FAMILY:
        rows.append(f"{params.name} {build_Mkn(params).presentation}")
        rows += [
            f"  {mv.torus_label} {mv.coefficient} "
            f"{list(map(str, mv.removed_relations))} -> {list(map(str, mv.added_relations))}"
            for mv in schedule_Mkn(params)
        ]
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == PRESENTATIONS_SHA256, digest


def test_surgery_preserves_euler_number_and_signature():
    for params in (
        FamilyParams(2, 1), FamilyParams(2, 3, 2, 3),
        FamilyParams(3, 2), FamilyParams(1, 2),
    ):
        base = build_Xk(params.k)
        model = build_Mkn(params)
        assert model.char.e == base.char.e
        assert model.char.sigma == base.char.sigma == 0
        assert model.char.b1 == model.h1.free_rank  # consistency by construction


# ---------------------------------------------------------------- homology law


@pytest.mark.parametrize("p,r", [(1, 1), (2, 3), (0, 1), (4, 4)])
def test_first_homology_follows_the_order_parameters(p, r):
    model = build_Mkn(FamilyParams(2, 1, p, r))
    assert model.h1 == claimed_invariants(p, r)


def test_every_model_carries_the_abelianization_of_its_presentation():
    tweak = commutator(gen("b1"), gen("d3"))
    custom = SurgeryMove("custom", "custom", (tweak,), (tweak ** 2,))
    models = [
        *(build_Xk(k) for k in (1, 2, 3)),
        *(build_Mkn(FamilyParams(*t))
          for t in ((1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 0, 1), (3, 1, 2, 2))),
        build_Zk(2),
        apply_schedule(build_Xk(2), (custom,)),
        apply_log_transform(certified(build_Mkn(FamilyParams(2, 1))), 2),
    ]
    for model in models:
        assert model.h1 == abelian_invariants(model.presentation), model.params


def test_a_family_record_abelianizes_each_presentation_once(monkeypatch):
    # X_k, M(2,1,0,1) and the claimed Z/0 + Z/1 once each: pi1 reads the
    # model's stored H1 instead of abelianizing M a second time.
    seen = []
    real = manifolds.abelian_invariants

    def counting(presentation):
        seen.append(len(presentation.generators))
        return real(presentation)

    monkeypatch.setattr(manifolds, "abelian_invariants", counting)
    record = report.run_family_model(FamilyParams(2, 1, 0, 1), 1000)
    assert record["passed"] and record["verdicts"]["pi1"]["computed_h1"] == "Z"
    assert seen == [10, 10, 2]


def test_a_sweep_builds_the_base_relators_once_per_k(monkeypatch):
    # Four k = 2 models and one k = 3 model: X_k's relator list is built
    # for the first model of each k and shared by the rest.
    seen = []
    real = manifolds._common_relators

    def counting(k):
        seen.append(k)
        return real(k)

    manifolds._xk_relators.cache_clear()
    monkeypatch.setattr(manifolds, "_common_relators", counting)
    spec = report.parse_spec("family k=2 n=1..2 p=0..1\nfamily k=3 n=1 p=0 r=0\nlimit 1000\n")
    out = report.run(spec)
    assert out["run"]["models"] == 5
    assert sorted(seen) == [2, 3]


def test_claimed_invariants_normalization():
    assert str(claimed_invariants(1, 1)) == "0"
    assert str(claimed_invariants(2, 3)) == "Z/6"
    assert str(claimed_invariants(0, 1)) == "Z"
    assert str(claimed_invariants(4, 4)) == "Z/4 + Z/4"
    assert str(claimed_invariants(0, 0)) == "Z + Z"
    assert str(claimed_invariants(2, 4)) == "Z/2 + Z/4"


def test_trivial_homology_attaches_basis_and_form():
    model = build_Mkn(FamilyParams(2, 1))
    assert model.h1.trivial
    assert model.char.b2 == 6 and model.char.b2plus == 3
    assert len(model.form_basis) == 3
    assert str(classify_form(model.form)) == "3H"
    assert model.params == FamilyParams(2, 1, 1, 1, 1)
    # nontrivial homology must not carry a simply connected basis
    twisted = build_Mkn(FamilyParams(2, 1, 2, 3))
    assert twisted.form is None and twisted.form_basis == ()
    assert twisted.params == FamilyParams(2, 1, 2, 3, 1)


def test_the_form_is_computed_from_the_basis_labels():
    # The product classes pair to one hyperbolic block per labeled pair, for
    # every k; the minus sign in -[b1 x dj] is what makes its pair +1.
    for k in (2, 3, 5):
        model = build_Mkn(FamilyParams(k, 1))
        assert model.form == manifolds.hyperbolic_form(2 * k - 1)
    assert model.form.entries[0][:2] == (0, 1)
    slipped = replace(model, form_basis=(("[a1 x c2]", "[b1 x d2]"),))
    assert slipped.form.entries == ((0, -1), (-1, 0))
    assert replace(model, form_basis=(("[a1 x c2]", "[a1 x d2]"),)).form.entries == ((0, 0), (0, 0))


def test_a_sign_slip_in_one_label_fails_the_form_verdict(monkeypatch):
    # Negating one class is a change of basis, so the slipped form still
    # classifies as 3H; the verdict fails because the labels no longer pair
    # as the dual pairs they claim.
    basis = manifolds._mkn_basis(2)
    slipped = ((basis[0][0], basis[0][1].removeprefix("-")),) + basis[1:]
    monkeypatch.setattr(manifolds, "_mkn_basis", lambda k: slipped)
    model = build_Mkn(FamilyParams(2, 1))
    assert model.form_basis == slipped and str(classify_form(model.form)) == "3H"
    record = report.run_family_model(FamilyParams(2, 1), 60_000)
    assert record["verdicts"]["form"]["status"] == "fail"
    assert record["verdicts"]["form"]["classification"] == "3H"
    monkeypatch.setattr(manifolds, "_mkn_basis", lambda k: basis)
    assert report.run_family_model(FamilyParams(2, 1), 60_000)["verdicts"]["form"]["status"] == "pass"


def test_intermediate_model_bookkeeping():
    for k in (2, 3):
        z = build_Zk(k)
        assert z.char.b1 == 1
        assert z.char.b2 == 4 * k
        assert z.char.b2plus == 2 * k
        assert z.h1.free_rank == 1
        assert z.symplectic_flag is True


def test_small_genus_models_carry_an_unverified_note():
    model = build_Mkn(FamilyParams(1, 2))
    assert any("not certified" in note for note in model.notes)
    with pytest.raises(ParameterError):
        verify_pi1(model)


def test_symplectic_flag_tracks_the_twist_parameter():
    assert build_Mkn(FamilyParams(2, 1)).symplectic_flag is True
    assert build_Mkn(FamilyParams(2, 1, 2, 3)).symplectic_flag is True
    assert build_Mkn(FamilyParams(2, 1, 0, 1)).symplectic_flag is True
    assert build_Mkn(FamilyParams(2, 2)).symplectic_flag is False
    assert build_Mkn(FamilyParams(2, 2, 0, 1)).symplectic_flag is False
    # a custom schedule with no family parameters has unknown status
    base = build_Xk(2)
    mv = schedule_Mkn(FamilyParams(2, 2))[3]
    assert apply_schedule(base, (mv,)).symplectic_flag is None


# ---------------------------------------------------------------- verification


def test_pi1_check_without_enumeration_for_infinite_claims():
    model = build_Mkn(FamilyParams(2, 1, 0, 1))
    verdict = verify_pi1(model)
    assert verdict.passed
    assert verdict.enumeration is None and verdict.expected_index is None
    assert str(verdict.claimed) == "Z"
    assert not verdict.certifies_trivial


def test_pi1_expects_the_order_of_the_claimed_group(monkeypatch):
    # The expected index is the claimed group's order, not a formula of its
    # own: a claim of Z/7 on a p = 0 model makes verify_pi1 enumerate and
    # expect 7 cosets.
    monkeypatch.setattr(
        manifolds, "claimed_invariants", lambda p, r: AbelianInvariants((7,), 0)
    )
    verdict = verify_pi1(build_Mkn(FamilyParams(2, 1, 0, 1)), limit=100)
    assert verdict.expected_index == 7
    assert verdict.enumerated == "as-built"
    assert not verdict.passed


def test_models_and_verdicts_copy_and_pickle():
    # Word refuses attribute writes, so copies and unpickling must rebuild it
    # through its constructor; models and verdicts hold Words throughout.
    model = build_Mkn(FamilyParams(2, 1, 0, 1))
    verdict = verify_pi1(model)
    word = model.presentation.relators[0]
    for obj in (word, model.presentation, model, verdict):
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj) and twin == obj
    assert asdict(model)["presentation"] == model.presentation
    assert asdict(verdict)["simplification"]["presentation"] == verdict.simplification.presentation


# Completion is not monotone in the limit in general, so these rows pin the
# edges that a scan of M(2,1) found.  Its pi1, enumerated over the trivial
# subgroup, fails at every limit sampled from 10,001 to 44,485 (every 250 up
# to 42,001, every 10 up to 44,481, then every 1) and completes at every one
# sampled from 44,486 to 61,001 (every 1 up to 44,490, every 10 up to
# 44,501, then every 250).  Its complement, enumerated over <b2>, fails at
# every limit sampled from 10,001 to 12,236 (every 10 up to 11,491, then
# every 1) and completes at every one sampled from 12,237 to 61,001 (every
# 1 up to 12,400, then every 100, and every 1 from 14,700 to 14,950).  Up
# to 14,847 it fills the table at least once; from 14,848 on, the default
# limit included, it collapses from a table of 14,848 while deductions are
# processed, with no lookahead pass.  Rows are (definitions, coincidences,
# max_live, lookahead passes).
@pytest.fixture(scope="module")
def threshold_outcomes():
    """(verify, limit, expected result, expected counts, outcome) rows."""
    model = build_Mkn(FamilyParams(2, 1))
    cases = [
        (verify_pi1, 44_485, LimitExceeded(44_485), (52_262, 7_778, 44_485, 5)),
        (verify_pi1, 44_486, Completed(1), (60_778, 60_778, 44_486, 5)),
        (verify_pi1, 60_000, Completed(1), (60_795, 60_795, 44_577, 2)),
        (verify_complement, 12_000, LimitExceeded(12_000), (12_413, 414, 12_000, 6)),
        (verify_complement, 12_236, LimitExceeded(12_236), (13_854, 1_619, 12_236, 7)),
        (verify_complement, 12_237, Completed(1), (14_733, 14_733, 12_237, 6)),
        (verify_complement, 13_000, Completed(1), (18_735, 18_735, 13_000, 3)),
        (verify_complement, 14_847, Completed(1), (19_796, 19_796, 14_847, 3)),
        (verify_complement, 44_485, Completed(1), (15_297, 15_297, 14_848, 0)),
        (verify_complement, 60_000, Completed(1), (15_297, 15_297, 14_848, 0)),
        (verify_complement, DEFAULT_LIMIT, Completed(1), (15_297, 15_297, 14_848, 0)),
    ]
    return [
        (verify, limit, result, counts, verify(model, limit=limit).enumeration)
        for verify, limit, result, counts in cases
    ]


def test_collapse_threshold_of_the_base_family_model(threshold_outcomes):
    for verify, limit, result, counts, outcome in threshold_outcomes:
        s = outcome.stats
        assert outcome.result == result, (verify.__name__, limit)
        assert (s.definitions, s.coincidences, s.max_live, s.lookahead_passes) == counts


def test_a_complement_passes_exactly_when_its_enumeration_collapses(threshold_outcomes):
    # With the complement's H1 = 0, the verdict and the certificate read one
    # fact: Completed(1).
    model = build_Mkn(FamilyParams(2, 1))
    pres = complement_presentation(model)
    assert abelian_invariants(pres).trivial
    for *_, outcome in threshold_outcomes:
        verdict = ComplementVerdict(pres, outcome)
        collapsed = outcome.result == Completed(1)
        assert verdict.passed is collapsed
        certified_model = with_complement_certificate(model, verdict)
        assert (COMPLEMENT_TRIVIAL in certified_model.certifications) is collapsed


def test_a_complement_with_nontrivial_h1_does_not_pass(threshold_outcomes):
    # Index 1 over <b2> proves only that the group is cyclic; it is trivial
    # only when its H1 is.  A nontrivial H1 refuses the certificate.  Without
    # b2*d1*b2^-1*d1^-1*c1^-1 the complement's relators leave H1 = Z, and
    # they are still the model's, so pi1 checks the certificate and falls
    # back to its own enumeration.
    model = build_Mkn(FamilyParams(2, 1))
    pres = complement_presentation(model)
    dropped = parse_relation("b2*d1*b2^-1*d1^-1*c1^-1")
    free_c1 = pres.without_relator(dropped)
    collapsed = next(o for *_, o in threshold_outcomes if o.result == Completed(1))
    verdict = ComplementVerdict(free_c1, collapsed)
    assert verdict.h1 == AbelianInvariants((), 1) and not verdict.passed
    assert with_complement_certificate(model, verdict) == model
    fallback = verify_pi1(model, limit=100, complement=verdict)
    assert fallback.enumerated == "as-built" and not fallback.passed
    z2 = ComplementVerdict(Presentation(("a",), (parse_relation("a^2"),)), collapsed)
    assert z2.h1 == AbelianInvariants((2,), 0) and not z2.passed


def test_the_complement_verdict_computes_its_h1(monkeypatch):
    # The H1 guard is computed from the complement presentation, not read
    # from the model, and the enumeration runs over <b2>.
    model = build_Mkn(FamilyParams(2, 1))
    subgroups = []
    real = manifolds.enumerate_cosets

    def recording(presentation, limit, subgroup=()):
        subgroups.append(subgroup)
        return real(presentation, limit=limit, subgroup=subgroup)

    monkeypatch.setattr(manifolds, "enumerate_cosets", recording)
    monkeypatch.setattr(manifolds, "abelian_invariants", lambda pres: AbelianInvariants((3,), 0))
    verdict = verify_complement(model, limit=13_000)
    assert subgroups == [(gen("b2"),)]
    assert verdict.enumeration.result == Completed(1)
    assert verdict.h1 == AbelianInvariants((3,), 0) and not verdict.passed


def counting_enumerations(monkeypatch):
    """The list of presentations enumerated from here on."""
    calls = []
    real = manifolds.enumerate_cosets

    def counting(presentation, **kwargs):
        calls.append(presentation)
        return real(presentation, **kwargs)

    monkeypatch.setattr(manifolds, "enumerate_cosets", counting)
    monkeypatch.setattr(report, "enumerate_cosets", counting)
    return calls


def test_one_enumeration_certifies_pi1_and_the_complement(monkeypatch):
    # collapse-k2's model: the complement's Completed(1) is the pi1 record.
    calls = counting_enumerations(monkeypatch)
    record = report.run_family_model(FamilyParams(2, 1, 1, 1, 2), 60_000)
    assert len(calls) == 1 and record["passed"]
    pi1, comp = record["verdicts"]["pi1"], record["verdicts"]["complement"]
    assert pi1["status"] == comp["status"] == "pass"
    assert pi1["enumerated"] == "complement"
    assert pi1["enumeration"] == comp["enumeration"] == {
        "result": "completed", "index": 1,
        "definitions": 15_297, "coincidences": 15_297, "max_live": 14_848,
    }
    assert (comp["subgroup"], comp["h1"]) == ("b2", "0")
    # p.r = 0 and k = 1 models enumerate nothing.
    for params in (FamilyParams(2, 1, 0, 1), FamilyParams(1, 1)):
        calls.clear()
        record = report.run_family_model(params, 60_000)
        assert calls == [] and record["verdicts"]["complement"]["status"] == "not-applicable"


def test_complement_certificate_below_the_pi1_threshold(monkeypatch):
    # At 44,485 direct pi1 enumeration fails (see the threshold pins) but the
    # complement completes, and its group maps onto pi1: the model passes.
    calls = counting_enumerations(monkeypatch)
    record = report.run_family_model(FamilyParams(2, 1), 44_485)
    assert len(calls) == 1 and record["passed"]
    pi1 = record["verdicts"]["pi1"]
    assert (pi1["status"], pi1["enumerated"]) == ("pass", "complement")
    assert pi1["enumeration"] == record["verdicts"]["complement"]["enumeration"] == {
        "result": "completed", "index": 1,
        "definitions": 15_297, "coincidences": 15_297, "max_live": 14_848,
    }
    assert record["certifications"] == [COMPLEMENT_TRIVIAL, PI1_TRIVIAL]
    assert record["verdicts"]["homeomorphism"]["type"] == "3(S2xS2)"


def test_failed_complement_falls_back_to_the_direct_pi1_run(monkeypatch):
    # At 12,000 neither presentation collapses: both ran, and the record
    # reports both failures with their counters.
    calls = counting_enumerations(monkeypatch)
    model = build_Mkn(FamilyParams(2, 1))
    record = report.run_family_model(FamilyParams(2, 1), 12_000)
    assert calls == [complement_presentation(model), model.presentation]
    assert not record["passed"] and record["certifications"] == []
    pi1 = record["verdicts"]["pi1"]
    assert (pi1["status"], pi1["enumerated"]) == ("fail", "as-built")
    assert pi1["enumeration"] == {
        "result": "limit-exceeded", "cosets_used": 12_000,
        "definitions": 12_320, "coincidences": 321, "max_live": 12_000,
    }
    assert record["verdicts"]["complement"] == {
        "status": "fail",
        "subgroup": "b2",
        "h1": "0",
        "enumeration": {
            "result": "limit-exceeded", "cosets_used": 12_000,
            "definitions": 12_413, "coincidences": 414, "max_live": 12_000,
        },
    }
    digest = hashlib.sha256(report.render_json(record).encode()).hexdigest()
    assert digest == "1e54d1d8b3fb94fbebb8e51ad7c1c4e97e680a7e68fa7a78f9ad83c50753baab"


def test_pi1_refuses_a_certificate_that_is_not_a_quotient():
    model = build_Mkn(FamilyParams(2, 1))
    comp = verify_complement(model, limit=100)
    assert not comp.passed
    pres, stats = comp.presentation, comp.enumeration.stats
    extra = Presentation(pres.generators, pres.relators + (gen("c1") * gen("d1"),))
    renamed = Presentation(
        ("x1",) + pres.generators[1:],
        [r.substitute("a1", gen("x1")) for r in pres.relators],
    )
    for bad in (extra, renamed):
        forged = ComplementVerdict(bad, EnumerationOutcome(Completed(1), stats))
        with pytest.raises(CertificateError, match="are not the model's"):
            verify_pi1(model, limit=100, complement=forged)


def test_pi1_needs_family_parameters():
    base = build_Xk(2)
    with pytest.raises(ParameterError):
        verify_pi1(base)


def test_complement_presentation_removes_one_commutator():
    model = build_Mkn(FamilyParams(2, 1))
    comp = complement_presentation(model)
    assert len(comp.relators) == len(model.presentation.relators) - 1
    from exotic4.words import commutator

    assert commutator(gen("b1"), gen("d2")) not in comp.relators


def test_complement_presentation_gates_on_parameters():
    with pytest.raises(ParameterError, match="p = r = 1"):
        complement_presentation(build_Mkn(FamilyParams(2, 1, 2, 1)))
    with pytest.raises(ParameterError, match="k >= 2"):
        complement_presentation(build_Mkn(FamilyParams(1, 1)))


# ---------------------------------------------------------------- transform


def test_log_transform_requires_both_certificates():
    model = build_Mkn(FamilyParams(2, 1))
    with pytest.raises(CertificateError) as err:
        apply_log_transform(model, 2)
    assert PI1_TRIVIAL in str(err.value)
    assert COMPLEMENT_TRIVIAL in str(err.value)
    half = replace(model, certifications=frozenset({PI1_TRIVIAL}))
    with pytest.raises(CertificateError) as err2:
        apply_log_transform(half, 2)
    assert COMPLEMENT_TRIVIAL in str(err2.value)


def test_log_transform_multiplicity_one_is_identity():
    model = certified(build_Mkn(FamilyParams(2, 1)))
    assert apply_log_transform(model, 1) is model


def test_log_transform_keeps_numbers_and_flips_parity():
    model = certified(build_Mkn(FamilyParams(2, 1)))
    even = apply_log_transform(model, 2)
    assert even.params == FamilyParams(2, 1, 1, 1, 2)
    assert even.char == model.char  # e, sigma, b1, b2 all preserved
    assert even.h1.trivial
    assert even.presentation.generators == ()
    assert even.form is None and even.form_basis == ()
    form = classify_form(model.form)
    assert str(transformed_form(form, 2)) == "3<1> + 3<-1>"
    assert PI1_TRIVIAL in even.certifications

    odd = apply_log_transform(model, 3)
    assert str(transformed_form(form, 3)) == "3H"
    assert odd.params == FamilyParams(2, 1, 1, 1, 3)


def test_log_transform_symplectic_flag_follows_the_twist():
    n1 = certified(build_Mkn(FamilyParams(2, 1)))
    n2 = certified(build_Mkn(FamilyParams(2, 2)))
    assert apply_log_transform(n1, 2).symplectic_flag is True
    assert apply_log_transform(n2, 2).symplectic_flag is False


def test_log_transform_validates_multiplicity():
    model = certified(build_Mkn(FamilyParams(2, 1)))
    with pytest.raises(ParameterError):
        apply_log_transform(model, 0)


def test_pi1_enumerates_only_the_as_built_presentation(monkeypatch):
    calls = counting_enumerations(monkeypatch)
    model = build_Mkn(FamilyParams(2, 1))
    verdict = verify_pi1(model, limit=2000)
    assert calls == [model.presentation]
    assert verdict.enumeration.result == LimitExceeded(2000)
    assert not verdict.passed and not verdict.certifies_trivial
