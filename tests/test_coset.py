"""Coset enumeration over the trivial subgroup."""

import pytest

from exotic4.words import commutator, gen, parse_relation, parse_word
from exotic4.presentations import Presentation, tietze_simplify
from exotic4.coset import DEFAULT_LIMIT, Completed, LimitExceeded, enumerate_cosets


def pres(gens, *texts):
    return Presentation(tuple(gens), tuple(parse_relation(t) for t in texts))


S3 = pres(["a", "b"], "a^2", "b^2", "(a*b)^3")
Q8 = pres(["i", "j"], "i^4", "j^2 = i^2", "j^-1*i*j = i^-1")
Z5 = pres(["a"], "a^5")
FREE2 = Presentation(("a", "b"), ())


# A balanced presentation of the trivial group that generator elimination
# cannot finish: every generator occurs repeatedly in each relator.
STUBBORN = pres(["x", "y"], "x^2 = y^3", "x*y*x = y*x*y")


@pytest.mark.parametrize(
    "presentation,order",
    [(S3, 6), (Q8, 8), (Z5, 5), (pres(["a", "b"], "a", "b"), 1), (STUBBORN, 1)],
    ids=["sym3", "quat8", "cyc5", "trivial", "stubborn"],
)
def test_finite_groups_enumerate_to_their_order(presentation, order):
    outcome = enumerate_cosets(presentation)
    assert outcome.completed
    assert outcome.result == Completed(order)
    assert outcome.index == order


def test_infinite_group_hits_the_limit():
    outcome = enumerate_cosets(FREE2, limit=500)
    assert not outcome.completed
    assert isinstance(outcome.result, LimitExceeded)
    assert outcome.result.cosets_used >= 500
    assert outcome.index is None


def test_limit_is_a_value_not_an_exception():
    # Q8 needs a table of exactly its order; one coset less is a
    # LimitExceeded outcome, not an error.
    assert enumerate_cosets(Q8, limit=8).result == Completed(8)
    short = enumerate_cosets(Q8, limit=7)
    assert short.result == LimitExceeded(7)
    assert not short.completed


def test_index_invariant_under_renaming_and_relator_order():
    renamed = pres(["x", "y"], "x^2", "y^2", "(x*y)^3")
    shuffled = pres(["a", "b"], "(a*b)^3", "a^2", "b^2")
    for p in (renamed, shuffled):
        assert enumerate_cosets(p).index == 6


def test_index_invariant_under_tietze_simplification():
    # Presentations with removable generators still enumerate to the same
    # index after simplification.
    z6 = pres(["x", "y", "z"], "z = x*y", "x^2", "y^3", "[x, y]")
    before = enumerate_cosets(z6)
    after = enumerate_cosets(tietze_simplify(z6).presentation)
    assert before.completed and after.completed
    assert before.index == after.index == 6


def test_stats_are_recorded():
    # (definitions, coincidences, max_live) are exact and hardware-independent.
    for presentation, expected in ((S3, (7, 2, 8)), (Q8, (7, 0, 8)), (Z5, (4, 0, 5))):
        s = enumerate_cosets(presentation).stats
        assert (s.definitions, s.coincidences, s.max_live) == expected


def test_default_limit_is_a_million():
    assert DEFAULT_LIMIT == 1_000_000


def test_commutator_quotient_of_free_group():
    # Abelianized rank-2 free group modulo squares: Z/2 x Z/2.
    p = Presentation(
        ("a", "b"),
        (commutator(gen("a"), gen("b")), parse_word("a^2"), parse_word("b^2")),
    )
    assert enumerate_cosets(p).index == 4
