"""Presentations, their letter view and Tietze generator elimination."""

import hashlib
import random
import tracemalloc

import pytest

from exotic4 import presentations
from exotic4.words import Word, commutator, gen, parse_relation
from exotic4.presentations import (
    Presentation,
    _from_letters,
    _find_candidate,
    _reduced,
    relator_letters,
    tietze_simplify,
)
from exotic4.coset import enumerate_cosets
from exotic4.intlinalg import abelian_invariants
from exotic4.manifolds import FamilyParams, SurgeryMove, apply_schedule, build_Mkn, build_Xk

from _oracles import cyclic_reduce, flat_letters, random_syllables


def pres(gens, *relator_texts):
    return Presentation(tuple(gens), tuple(parse_relation(t) for t in relator_texts))


def test_unknown_symbol_rejected():
    with pytest.raises(ValueError):
        pres(["a"], "a*b")


def test_duplicate_generators_rejected():
    with pytest.raises(ValueError):
        Presentation(("a", "a"), ())


def test_empty_relators_are_dropped():
    p = pres(["a", "b"], "a*a^-1", "b")
    assert p.relators == (gen("b"),)


def test_letter_reduction_matches_stack_oracle():
    # The letter view strips a conjugating frame and leaves a commutator whole.
    p = pres(["a", "b"], "a*b*a^-1", "[a,b]", "a^2*b*a^-3")
    assert [str(_from_letters(s, p.generators)) for s in relator_letters(p)] == [
        "b", "a^-1*b^-1*a*b", "b*a^-1",
    ]
    rng = random.Random(20261018)
    names = ("a", "b", "c")
    for _ in range(300):
        letters = flat_letters(random_syllables(rng, names, rng.randint(0, 8)))
        encoded = "".join(chr(2 * names.index(n) + (step < 0)) for n, step in letters)
        reduced = _reduced(encoded)
        assert flat_letters(_from_letters(reduced, names).syllables) == cyclic_reduce(letters)


def test_two_killed_generators_collapse_to_nothing():
    result = tietze_simplify(pres(["a", "b"], "a", "b"))
    assert result.presentation.generators == ()
    assert result.presentation.relators == ()
    assert result.steps == 2
    assert sorted(name for name, *_ in result.eliminations) == ["a", "b"]


def test_equated_generators_merge():
    result = tietze_simplify(pres(["a", "b"], "a*b^-1"))
    assert len(result.presentation.generators) == 1
    assert result.presentation.relators == ()


def test_elimination_substitutes_everywhere():
    # b = a^2 forces the second relator to become a relation in a alone.
    result = tietze_simplify(pres(["a", "b"], "b*a^-2", "b^3"))
    assert result.presentation.generators == ("a",)
    assert result.presentation.relators == (gen("a") ** 6,)


def test_abelianization_invariant_under_simplification():
    rng = random.Random(20260815)
    names = ("a", "b", "c")
    for _ in range(40):
        relators = []
        for _ in range(rng.randint(1, 4)):
            w = gen(names[0]) ** 0
            for name, exp in random_syllables(rng, names, rng.randint(1, 6)):
                w = w * gen(name) ** exp
            relators.append(w)
        p = Presentation(names, tuple(relators))
        simplified = tietze_simplify(p).presentation
        assert abelian_invariants(p) == abelian_invariants(simplified)


def test_group_order_invariant_under_simplification():
    # S3 with a redundant relator, and a cyclic group in two generators.
    s3 = pres(["a", "b"], "a^2", "b^2", "(a*b)^3", "(b*a)^3")
    z6 = Presentation(
        ("x", "y"),
        (commutator(gen("x"), gen("y")), parse_relation("x^2"), parse_relation("y^3")),
    )
    for p in (s3, z6):
        before = enumerate_cosets(p)
        after = enumerate_cosets(tietze_simplify(p).presentation)
        assert before.completed and after.completed
        assert before.index == after.index


def test_relator_against_relator_shortening():
    # (ab)^4 shares the majority of (ab)^3, but no relator defines a
    # generator: elimination leaves the presentation as it is, so it
    # neither grows the total relator length nor changes the group.
    p = pres(["a", "b"], "a^2", "b^2", "(a*b)^3", "(a*b)^4")
    result = tietze_simplify(p)
    assert result.presentation == p and result.eliminations == ()
    before = enumerate_cosets(p)
    after = enumerate_cosets(result.presentation)
    assert before.completed and after.completed and before.index == after.index == 2


def test_elimination_has_no_generator_cap():
    # Past 127 generators the letters no longer fit one byte each; x, the
    # last of 133 generators, must still be solved for and substituted
    # exactly as in the three-generator presentation.
    rels = ("a^2", "b^2", "(a*b)^3", "x = a*b^-1", "x^3")
    wide = tietze_simplify(pres(["a", "b", *(f"g{i}" for i in range(130)), "x"], *rels))
    narrow = tietze_simplify(pres(["a", "b", "x"], *rels))
    assert [name for name, *_ in narrow.eliminations] == ["x"]
    assert wide.eliminations == narrow.eliminations
    assert wide.presentation.relators == narrow.presentation.relators
    assert wide.presentation.generators[:2] == narrow.presentation.generators == ("a", "b")


def test_long_relators_cost_linear_memory():
    # X_2 with `add a1^5000`: simplification reads the long relator once
    # and keeps no per-relator index of its subwords.
    move = SurgeryMove("custom", "custom", (), (parse_relation("a1^5000"),))
    presentation = apply_schedule(build_Xk(2), (move,)).presentation
    tracemalloc.start()
    try:
        result = tietze_simplify(presentation)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parse_relation("a1^5000") in result.presentation.relators
    assert peak < 2 << 20, peak


def test_without_relator():
    p = pres(["a", "b"], "a^2", "b^2")
    shrunk = p.without_relator(gen("a") ** 2)
    assert shrunk.relators == (gen("b") ** 2,)
    with pytest.raises(ValueError):
        p.without_relator(parse_relation("a*b"))


def test_presentations_compare_by_content():
    p = pres(["a"], "a^2")
    q = pres(["a"], "a^2")
    assert p == q and hash(p) == hash(q)
    assert p != pres(["a"], "a^3")


# (eliminations, generators, relators) and sha256 of str(presentation) and
# of the elimination log, one "generator relator replacement" line each.
PINNED_TIETZE = [
    ((2, 1), (6, 4, 21),
     "fd04d07bc5b59855dc95a81171b0bf1c557673f11a5fc01c294859791c4da632",
     "eae12ed5d91e75f2766d710165fa7947f82b8cda54d7ffe04297f2576076631d"),
    ((3, 1, 2, 2), (6, 6, 29),
     "0a721d610916e4e33555dacffdb19b21acb50c60c661a5b47e003d054aa95a1c",
     "afe65d170332e7042cfdd932b22ec5f658dac3823abea1ab9d674b41025cbbaa"),
    ((8, 1, 0, 0), (11, 11, 64),
     "9604802e90c7c110e967961742063432983dd40163356e1fb31eef779b37f88d",
     "2348d14084596bb93906cc0a8f402194eae5843afa2f84e259ff4c26396bed41"),
    ((8, 1, 0, 1), (12, 10, 63),
     "f852131ba353f4e59ef875ed35237bdc9b79f0e18d2761aeb7a645aef7c88c65",
     "e6322163fafae8c992dea60abbdbe1b671285a135a7d07baa8d6ba7e4e78de86"),
    ((8, 1, 1, 0), (12, 10, 63),
     "de1a2b3249f4d4d34daf47090ef17e0c4688fcbf2e5e224f063ed7c24ca6f2d6",
     "d8b60510d9ab79907e147d4d23b9cbbb289a6968a684ad56fc501511a33015ef"),
]


@pytest.mark.parametrize(
    "params,counts,pres_sha,log_sha", PINNED_TIETZE,
    ids=["M(2,1)", "M(3,1,2,2)", "M(8,1,0,0)", "M(8,1,0,1)", "M(8,1,1,0)"],
)
def test_family_simplification_is_pinned(params, counts, pres_sha, log_sha):
    result = tietze_simplify(build_Mkn(FamilyParams(*params)).presentation)
    out = result.presentation
    log = "\n".join(f"{g} {r} {w}" for g, r, w in result.eliminations)
    assert (len(result.eliminations), len(out.generators), len(out.relators)) == counts
    assert hashlib.sha256(str(out).encode()).hexdigest() == pres_sha
    assert hashlib.sha256(log.encode()).hexdigest() == log_sha


def tietze_cases():
    rng = random.Random(20261018)
    for _ in range(400):
        names = ("a", "b", "c", "d", "e")[: rng.randint(2, 5)]
        relators = tuple(
            Word(random_syllables(rng, names, rng.randint(1, 8)))
            for _ in range(rng.randint(len(names) - 1, len(names) + 2))
        )
        yield Presentation(names, relators)


# sha256 of one "presentation | elimination log" row per tietze_cases() entry.
TIETZE_FINGERPRINT_SHA256 = "cba5e58a0ce18afc0bebc316e90d87828b686d2fad1ce1c41cad4ab6ba4941f9"


def test_tietze_fingerprint_is_pinned():
    rows = []
    eliminating = 0
    for presentation in tietze_cases():
        result = tietze_simplify(presentation)
        eliminating += bool(result.eliminations)
        log = "; ".join(f"{g} {r} {w}" for g, r, w in result.eliminations)
        rows.append(f"{result.presentation} | {log}")
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert eliminating >= 300, eliminating
    assert digest == TIETZE_FINGERPRINT_SHA256, digest


def test_simplification_stops_where_no_relator_defines_a_generator():
    for presentation in tietze_cases():
        result = tietze_simplify(presentation)
        assert _find_candidate(relator_letters(result.presentation)) is None, presentation
        assert result.steps == len(result.eliminations)


def test_an_elimination_rewrites_only_the_relators_that_hold_its_generator(monkeypatch):
    # _cleanup runs once on the initial relators and once per round, so its
    # outputs are the relators each round starts from; a round may reduce
    # only the relators other than the defining one that hold g.
    events = []
    real_reduced, real_cleanup = presentations._reduced, presentations._cleanup

    def reduced(letters):
        events.append(None)
        return real_reduced(letters)

    def cleanup(words, inverse):
        out = real_cleanup(words, inverse)
        events.append(list(out))  # tietze_simplify pops from `out`
        return out

    monkeypatch.setattr(presentations, "_reduced", reduced)
    monkeypatch.setattr(presentations, "_cleanup", cleanup)
    presentation = build_Mkn(FamilyParams(8, 1, 0, 0)).presentation
    result = tietze_simplify(presentation)
    starts = [i for i, e in enumerate(events) if e is not None]
    assert starts[0] == len(presentation.relators)  # relator_letters
    assert len(starts) == len(result.eliminations) + 1
    names = presentation.generators
    untouched = 0
    for (name, _, _), begin, end in zip(result.eliminations, starts, starts[1:]):
        g = names.index(name)
        holding = sum(chr(2 * g) in w or chr(2 * g + 1) in w for w in events[begin])
        assert end - begin - 1 == holding - 1, name
        untouched += len(events[begin]) - holding
    assert untouched > 0
