"""Presentations, their letter view and Tietze generator elimination."""

import hashlib
import random
from collections import Counter

import pytest

from exotic4.words import Word, commutator, gen, parse_relation
from exotic4.presentations import (
    Presentation,
    _from_letters,
    _reduced,
    _shorten_pass,
    relator_letters,
    tietze_simplify,
)
from exotic4.coset import enumerate_cosets
from exotic4.intlinalg import abelian_invariants
from exotic4.manifolds import FamilyParams, build_Mkn

from _oracles import (
    best_shortening,
    cyclic_reduce,
    flat_letters,
    letter_inverse,
    letter_reduce,
    random_syllables,
)


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
        (commutator(gen("x"), gen("y")), parse_relation("x^2"), parse_relation("y^3")),
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
        p.without_relator(parse_relation("a*b"))


def test_presentations_compare_by_content():
    p = pres(["a"], "a^2")
    q = pres(["a"], "a^2")
    assert p == q and hash(p) == hash(q)
    assert p != pres(["a"], "a^3")


# (steps, eliminations, generators, relators) and sha256 of str(presentation)
# and of the elimination log, one "generator relator replacement" line each.
PINNED_TIETZE = [
    ((2, 1), (30, 5, 5, 22),
     "6f7c1e333a0e29ce5ab5edcf434fbd534f81014bb5cc9b300456da61633d2d7d",
     "f9818271a60e3074715e6428d188627b84a747189e446f20622e641948f46336"),
    ((3, 1, 2, 2), (34, 5, 7, 30),
     "a4aa794d5eb47ac43d1302b163a85ab4078e68b52e76c97ab5fd593541a474ab",
     "8a9b806235fc2da310e4b41dd1cd3b5390535bec5cd12adf439ceec2c15e9f21"),
    ((8, 1, 0, 0), (69, 10, 12, 65),
     "a44e313d2426dc97e9f40e275e586816e39a23508bc563f1076821f3ca49fdc0",
     "f86e3396db6762262c7032435b8945ba5bf44508187b6dd46795a305a4189d82"),
    ((8, 1, 0, 1), (73, 11, 11, 64),
     "571d81caf6d58058096700429b2e2515236894b576c5a217aad46186f1a3f464",
     "e4f37f783ea616f07672b9e7a5700991a81ab4a0adc95e9f92eccccabb4dbc54"),
    ((8, 1, 1, 0), (73, 11, 11, 64),
     "e533677a9fda187fa20a256f9ccd659ee2892d72cedcc853c02e4ff78d2f2455",
     "03b9ef50ead361299fddf83758697cccc63c44720effb6dde99b9e9af79e9fe8"),
]


@pytest.mark.parametrize(
    "params,counts,pres_sha,log_sha", PINNED_TIETZE,
    ids=["M(2,1)", "M(3,1,2,2)", "M(8,1,0,0)", "M(8,1,0,1)", "M(8,1,1,0)"],
)
def test_family_simplification_is_pinned(params, counts, pres_sha, log_sha):
    result = tietze_simplify(build_Mkn(FamilyParams(*params)).presentation)
    out = result.presentation
    assert result.completed
    assert (result.steps, len(result.eliminations), len(out.generators),
            len(out.relators)) == counts
    log = "\n".join(f"{g} {r} {w}" for g, r, w in result.eliminations)
    assert hashlib.sha256(str(out).encode()).hexdigest() == pres_sha
    assert hashlib.sha256(log.encode()).hexdigest() == log_sha


def test_budget_stops_exactly_at_its_value():
    p = build_Mkn(FamilyParams(2, 1)).presentation
    full = tietze_simplify(p)
    assert full.steps == 30 and full.completed
    assert tietze_simplify(p, budget=30) == full
    for budget in (1, 29):
        cut = tietze_simplify(p, budget=budget)
        assert cut.steps == budget and not cut.completed
    # Budget 29 leaves the last shortening undone.
    assert sum(r.length for r in tietze_simplify(p, budget=29).presentation.relators) == 304
    assert sum(r.length for r in full.presentation.relators) == 303


def tietze_cases():
    rng = random.Random(20261018)
    for _ in range(400):
        names = ("a", "b", "c", "d", "e")[: rng.randint(2, 5)]
        relators = tuple(
            Word(random_syllables(rng, names, rng.randint(1, 8)))
            for _ in range(rng.randint(len(names) - 1, len(names) + 2))
        )
        presentation = Presentation(names, relators)
        yield presentation, 100_000
        yield presentation, rng.randint(0, 12)


# sha256 of one "presentation | elimination log | steps completed" row per
# tietze_cases() entry, recorded before relator pairs shown unable to shorten
# each other were skipped.
TIETZE_FINGERPRINT_SHA256 = "94fba16af973def3813cf42ecf38768e76b5e90c548e14976265a1a00545c782"


def test_tietze_fingerprint_is_pinned():
    rows = []
    cut = rewritten = 0
    for presentation, budget in tietze_cases():
        result = tietze_simplify(presentation, budget=budget)
        cut += not result.completed
        rewritten += result.steps > len(result.eliminations)
        log = "; ".join(f"{g} {r} {w}" for g, r, w in result.eliminations)
        rows.append(f"{result.presentation} | {log} | {result.steps} {result.completed}")
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert cut >= 50 and rewritten >= 50, (cut, rewritten)
    assert digest == TIETZE_FINGERPRINT_SHA256, digest


def short_words(rng, count):
    """`count` reduced words of 1 to 7 letters over two generators; about one
    in ten repeats an earlier word."""
    words = []
    for _ in range(count):
        w = rng.choice(words) if words and rng.random() < 0.1 else ""
        while not w:
            w = letter_reduce("".join(
                chr(rng.randrange(4)) for _ in range(rng.randint(1, 7))
            ))
        words.append(w)
    return words


def test_one_shortening_matches_the_brute_force_oracle():
    # Short words over two generators: periodic words, windows as long as the
    # target (h = |s|), sources of length 2 and 3 and equal relators are all
    # common.  With cap=1 the pass makes exactly the first target's best
    # rewrite, or none.
    rng = random.Random(20261019)
    seen = Counter()
    for _ in range(3000):
        words = short_words(rng, rng.randint(2, 3))
        before = list(words)
        first = next(
            ((si, hit) for si in range(len(words))
             if (hit := best_shortening(words, si)) is not None),
            None,
        )
        rewrites, finished = _shorten_pass(words, letter_inverse, 1, set(), {})
        if first is None:
            assert (rewrites, finished, words) == (0, True, before)
            continue
        si, (_, ri, _, _, rewritten) = first
        assert rewrites == 1, before
        assert words == before[:si] + [rewritten] + before[si + 1:], before
        r, s = before[ri], before[si]
        seen["hit"] += 1
        seen["h == |s|"] += len(r) // 2 + 1 == len(s)
        seen["|r| <= 3"] += len(r) <= 3
        seen["equal relators"] += len(set(before)) < len(before)
        seen["cut"] += not finished
    assert min(seen.values()) >= 50 and len(seen) == 5, seen


def test_clean_strings_are_rescanned_only_against_new_ones():
    # `clean` strings that the oracle shows cannot shorten one another: the
    # pass must rewrite exactly as it does with nothing clean, which includes
    # rewriting a clean target when another relator shortens it.
    rng = random.Random(20261020)
    seen = Counter()
    for _ in range(3000):
        words = short_words(rng, rng.randint(3, 5))
        clean = {w for w in words if rng.random() < 0.6}
        held = [w for w in words if w in clean]
        if not clean or any(best_shortening(held, j) is not None for j in range(len(held))):
            continue
        cap = rng.choice((1, 2, 100))
        expected = list(words)
        outcome = _shorten_pass(expected, letter_inverse, cap, set(), {})
        got = list(words)
        assert _shorten_pass(got, letter_inverse, cap, clean, {}) == outcome, words
        assert got == expected, (words, clean)
        seen["clean"] += 1
        seen["clean target rewritten"] += any(
            w in clean and w != e for w, e in zip(words, expected)
        )
        seen["cut"] += not outcome[1]
    assert min(seen.values()) >= 50 and len(seen) == 3, seen


def test_completed_simplifications_leave_no_shortening():
    # The rescan marks and the clean hand-off skip pairs; at the end of a
    # completed run no pair of the final relators may still shorten, and a
    # pass that is handed them all as clean builds no windows.
    completed = 0
    for presentation, budget in tietze_cases():
        result = tietze_simplify(presentation, budget=budget)
        if not result.completed:
            continue
        completed += 1
        words = relator_letters(result.presentation)
        for si in range(len(words)):
            assert best_shortening(words, si) is None, (presentation, budget, si)
        windows = {}
        assert _shorten_pass(words, letter_inverse, 1, set(words), windows) == (0, True)
        assert windows == {}
    assert completed >= 500, completed
