"""Free-group words: reduction, algebra, and the text syntax."""

import random
import tracemalloc

import pytest

from exotic4 import words
from exotic4.words import MAX_RELATOR_LENGTH, Word, commutator, gen, parse_relation, relator
from exotic4.words import WordSyntaxError

from _oracles import flat_letters, random_syllables, stack_reduce


a, b = gen("a"), gen("b")


def test_power_cancellation_gives_identity():
    w = a ** 3 * a ** -3
    assert w.is_identity()
    assert w.length == 0
    assert str(w) == "1"


def test_commutator_expands_to_length_four():
    w = commutator(a, b)
    assert w.syllables == (("a", -1), ("b", -1), ("a", 1), ("b", 1))
    assert w.length == 4


def test_product_inverse_reverses_factors():
    assert (a * b).inverse() == b.inverse() * a.inverse()
    w = parse_relation("a^2*b^-3*a")
    assert (w * w.inverse()).is_identity()
    assert w.inverse().inverse() == w


def test_parse_squared_commutator_times_inverse_generator():
    w = parse_relation("[b2, c1^-1]^2 * d1^-1")
    assert w.length == 9
    assert w.syllables == (
        ("b2", -1), ("c1", 1), ("b2", 1), ("c1", -1),
        ("b2", -1), ("c1", 1), ("b2", 1), ("c1", -1),
        ("d1", -1),
    )


def test_parse_grouping_and_powers():
    assert parse_relation("(a*b)^2") == a * b * a * b
    assert parse_relation("(a*b)^-1") == b.inverse() * a.inverse()
    assert parse_relation("1") == Word()
    assert parse_relation("a^0") == Word()


def test_relation_becomes_left_times_right_inverse():
    assert parse_relation("x = y") == relator(gen("x"), gen("y"))
    assert parse_relation("x = y") == gen("x") * gen("y").inverse()
    # a bare word is already a relator
    assert parse_relation("x*y") == gen("x") * gen("y")


@pytest.mark.parametrize(
    "text",
    ["", "a^", "[a,", "(a", ")", "a**b", "a^x", "[a b]", "a = b = c", "= a", "a^1.5"],
)
def test_syntax_errors_carry_a_column(text):
    with pytest.raises(WordSyntaxError) as err:
        parse_relation(text)
    assert "column" in str(err.value)
    assert err.value.pos >= 0


def test_reduction_matches_letter_stack_oracle():
    rng = random.Random(20240815)
    names = ["a", "b", "c"]
    for _ in range(300):
        sylls = random_syllables(rng, names, rng.randint(0, 12))
        w = Word()
        for name, exp in sylls:
            w = w * gen(name) ** exp
        assert flat_letters(w.syllables) == stack_reduce(flat_letters(sylls))


def test_reduction_is_idempotent():
    rng = random.Random(7)
    names = ["a", "b"]
    for _ in range(200):
        sylls = random_syllables(rng, names, rng.randint(0, 10))
        w = Word()
        for name, exp in sylls:
            w = w * gen(name) ** exp
        assert Word(w.syllables) == w


def test_str_parse_round_trip():
    rng = random.Random(99)
    names = ["a1", "b1", "ct", "d3"]
    for _ in range(200):
        sylls = random_syllables(rng, names, rng.randint(0, 8))
        w = Word()
        for name, exp in sylls:
            w = w * gen(name) ** exp
        assert parse_relation(str(w)) == w


def test_powers_and_conjugates():
    w = parse_relation("a*b^-1")
    assert w ** 0 == Word()
    assert w ** -2 == (w.inverse()) ** 2


def test_power_of_one_syllable_scales_its_exponent():
    # A run raised to a large power must not be repeated letter by letter
    # before reduction: that took seconds and tens of MiB at 10^7.
    tracemalloc.start()
    try:
        w = parse_relation("a1^10000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.syllables == (("a1", 10_000_000),)
    assert peak < 1 << 20
    assert gen("a") ** -3 == Word((("a", -3),))
    assert gen("a") ** 0 == Word()


def test_power_past_the_relator_cap_is_refused_before_it_is_built():
    # [a1,b1]^1000000 used to build four million syllables first.
    with pytest.raises(ValueError, match="4000000 letters"):
        parse_relation("[a1,b1]^1000000")
    with pytest.raises(ValueError, match="longer than"):
        (a * b) ** -(MAX_RELATOR_LENGTH // 2 + 1)
    assert (a * b) ** 3 == parse_relation("a*b*a*b*a*b")


def test_substitution_rewrites_each_occurrence():
    w = parse_relation("a*b*a^-1")
    rewritten = w.substitute("a", parse_relation("c*d"))
    assert rewritten == parse_relation("c*d*b*d^-1*c^-1")
    unchanged = w.substitute("z", parse_relation("c"))
    assert unchanged == w


def test_symbols_lists_every_generator_used():
    w = parse_relation("[a, b]^2 * c")
    assert w.symbols() == {"a", "b", "c"}


def test_words_hash_and_compare_by_reduced_form():
    assert hash(a * b * b.inverse()) == hash(a)
    assert a * b != b * a
    assert len({a * b, a * b, b * a}) == 2


def _inverted(syllables):
    return [(name, -exp) for name, exp in reversed(syllables)]


def test_junction_products_match_full_reduction():
    # Products reduce only where the two words meet, and inverses do not
    # reduce at all; full reduction of the concatenated (or reversed)
    # syllables is the reference.  Half of the right operands start by
    # undoing a tail of the left one, so long cascades occur.
    rng = random.Random(20261021)
    names = ["a", "b", "c"]
    cancelling = 0
    for _ in range(3000):
        u = Word(random_syllables(rng, names, rng.randint(0, 8)))
        head = []
        if rng.random() < 0.5:
            head = _inverted(u.syllables[len(u.syllables) - rng.randint(0, len(u.syllables)):])
            if head and rng.random() < 0.5:
                name, exp = head[-1]
                head[-1] = (name, exp + rng.choice([-2, -1, 1, 2]))
        v = Word(head + random_syllables(rng, names, rng.randint(0, 4)))
        product = u * v
        assert product.syllables == words._reduce(u.syllables + v.syllables)
        assert u.inverse().syllables == words._reduce(_inverted(u.syllables))
        assert commutator(u, v).syllables == words._reduce(
            _inverted(u.syllables) + _inverted(v.syllables) + list(u.syllables + v.syllables)
        )
        assert (u * u.inverse()).syllables == ()
        cancelling += len(product.syllables) < len(u.syllables) + len(v.syllables) - 1
    assert cancelling > 300, cancelling


@pytest.mark.parametrize(
    "left,right,expected",
    [
        ("a^2", "a^-1", (("a", 1),)),  # a merge to a nonzero exponent
        ("a*b", "b^-1*a^-1", ()),  # a cascade through the whole word
        ("c*a*b", "b^-1*a^-2*c", (("c", 1), ("a", -1), ("c", 1))),
        ("a*b^2", "b^-2*a^-1*c", (("c", 1),)),
        ("a*b", "1", (("a", 1), ("b", 1))),  # empty operands
        ("1", "a*b", (("a", 1), ("b", 1))),
        ("1", "1", ()),
    ],
)
def test_junction_product_cases(left, right, expected):
    u, v = parse_relation(left), parse_relation(right)
    assert (u * v).syllables == expected == words._reduce(u.syllables + v.syllables)


def test_the_constructor_still_validates_and_reduces():
    assert Word([("a", 2), ("b", 0), ("a", -2), ("c", 1)]).syllables == (("c", 1),)
    with pytest.raises(TypeError, match="exponent must be an integer"):
        Word([("a", 1.0)])
    with pytest.raises(TypeError, match="exponent must be an integer"):
        gen("a") ** 1.5
