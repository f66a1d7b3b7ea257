"""Presentations and Tietze generator elimination."""

import random

import pytest

from exotic4 import (
    Presentation,
    abelian_invariants,
    commutator,
    enumerate_cosets,
    gen,
    parse_word,
    tietze_simplify,
)

from _oracles import random_syllables


def pres(gens, *relator_texts):
    return Presentation(tuple(gens), tuple(parse_word(t) for t in relator_texts))


def test_unknown_symbol_rejected():
    with pytest.raises(ValueError):
        pres(["a"], "a*b")


def test_duplicate_generators_rejected():
    with pytest.raises(ValueError):
        Presentation(("a", "a"), ())


def test_empty_relators_are_dropped():
    p = pres(["a", "b"], "a*a^-1", "b")
    assert p.relators == (gen("b"),)


def test_two_killed_generators_collapse_to_nothing():
    result = tietze_simplify(pres(["a", "b"], "a", "b"))
    assert result.presentation.generators == ()
    assert result.presentation.relators == ()
    assert result.completed
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
        (commutator(gen("x"), gen("y")), parse_word("x^2"), parse_word("y^3")),
    )
    for p in (s3, z6):
        before = enumerate_cosets(p)
        after = enumerate_cosets(tietze_simplify(p).presentation)
        assert before.completed and after.completed
        assert before.index == after.index


def test_relator_against_relator_shortening():
    # (ab)^4 shares the majority of (ab)^3: simplification must not grow
    # the total relator length and must preserve the group.
    p = pres(["a", "b"], "a^2", "b^2", "(a*b)^3", "(a*b)^4")
    result = tietze_simplify(p)
    total_before = sum(r.length for r in p.relators)
    total_after = sum(r.length for r in result.presentation.relators)
    assert total_after <= total_before
    before = enumerate_cosets(p)
    after = enumerate_cosets(result.presentation)
    assert before.completed and after.completed and before.index == after.index == 2


def test_shortening_has_no_generator_cap():
    # Past 127 generators the letters no longer fit one byte each; shortening
    # must still find (a*b)^4 = a*b against (a*b)^3 when unused generators
    # widen the alphabet.
    rels = ("a^2", "b^2", "(a*b)^3", "(a*b)^4")
    wide = tietze_simplify(pres(["a", "b", *(f"g{i}" for i in range(130))], *rels))
    narrow = tietze_simplify(pres(["a", "b"], *rels))
    assert wide.steps == narrow.steps > 0
    assert wide.presentation.relators == narrow.presentation.relators


def test_without_relator():
    p = pres(["a", "b"], "a^2", "b^2")
    shrunk = p.without_relator(gen("a") ** 2)
    assert shrunk.relators == (gen("b") ** 2,)
    with pytest.raises(ValueError):
        p.without_relator(parse_word("a*b"))


def test_presentations_compare_by_content():
    p = pres(["a"], "a^2")
    q = pres(["a"], "a^2")
    assert p == q and hash(p) == hash(q)
    assert p != pres(["a"], "a^3")
