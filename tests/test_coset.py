"""Coset enumeration over the trivial subgroup."""

import hashlib
import random

import pytest

from exotic4.words import Word, commutator, gen, parse_relation, parse_word
from exotic4.presentations import Presentation, tietze_simplify
from exotic4.coset import (
    DEFAULT_LIMIT,
    Completed,
    LimitExceeded,
    _Enumerator,
    enumerate_cosets,
)


def pres(gens, *texts):
    return Presentation(tuple(gens), tuple(parse_relation(t) for t in texts))


S3 = pres(["a", "b"], "a^2", "b^2", "(a*b)^3")
Q8 = pres(["i", "j"], "i^4", "j^2 = i^2", "j^-1*i*j = i^-1")
Z5 = pres(["a"], "a^5")
A5 = pres(["a", "b"], "a^2", "b^3", "(a*b)^5")
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
    # (definitions, coincidences, max_live) and the lookahead pass count are
    # exact and hardware-independent.
    cases = [
        (S3, DEFAULT_LIMIT, Completed(6), (7, 2, 8), 0),
        (Q8, DEFAULT_LIMIT, Completed(8), (7, 0, 8), 0),
        (Z5, DEFAULT_LIMIT, Completed(5), (4, 0, 5), 0),
        # Just below and at the limit where a lookahead pass collapses.
        (STUBBORN, 13, LimitExceeded(13), (12, 0, 13), 1),
        (STUBBORN, 14, Completed(1), (14, 14, 14), 1),
        (S3, 6, LimitExceeded(6), (5, 0, 6), 1),
        (S3, 7, Completed(6), (6, 1, 7), 1),
        # Several passes, and a resume after a pass that freed rows.
        (A5, 60, LimitExceeded(60), (69, 10, 60), 3),
        (A5, 61, Completed(60), (69, 10, 61), 2),
    ]
    for presentation, limit, result, counts, passes in cases:
        outcome = enumerate_cosets(presentation, limit=limit)
        s = outcome.stats
        assert outcome.result == result
        assert (s.definitions, s.coincidences, s.max_live) == counts
        assert s.lookahead_passes == passes


def random_presentation(rng):
    names = ("a", "b", "c")[: rng.randint(2, 3)]
    relators = tuple(
        Word((rng.choice(names), rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(rng.randint(1, 6)))
        for _ in range(rng.randint(len(names), len(names) + 2))
    )
    return Presentation(names, relators)


# sha256 of the (result, definitions, coincidences, max_live) rows below,
# recorded with a lookahead pass that traced every relator at every coset.
FINGERPRINT_SHA256 = "4856d341f28472738a0c72b20446e0b8c1e2b247878f2452b99c584b1c0a7e1a"


def fingerprint_cases():
    rng = random.Random(2024)
    for _ in range(200):
        presentation = random_presentation(rng)
        yield presentation, rng.choice((5, 10, 20, 50, 200))


def test_enumeration_fingerprint_is_pinned():
    rows = []
    limited = 0
    for presentation, limit in fingerprint_cases():
        outcome = enumerate_cosets(presentation, limit=limit)
        s = outcome.stats
        limited += isinstance(outcome.result, LimitExceeded)
        rows.append(f"{outcome.result!r} {s.definitions} {s.coincidences} {s.max_live}")
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert limited >= 30
    assert digest == FINGERPRINT_SHA256, digest


def test_table_is_symmetric_and_dead_rows_are_freed():
    # After a run, a live row points only at live cosets, each pointing
    # back, and a dead coset's row is gone: no row can reach a dead coset.
    dead = 0
    for presentation, limit in [*fingerprint_cases(), (A5, 60), (A5, 61)]:
        enum = _Enumerator(presentation, limit)
        enum.run()
        for a, row in enumerate(enum.table):
            if enum.p[a] != a:
                assert row is None
                dead += 1
                continue
            for x, b in enumerate(row):
                assert b is None or (enum.p[b] == b and enum.table[b][x ^ 1] == a)
    assert dead > 0


def test_lookahead_skips_only_closed_cosets(monkeypatch):
    # A lookahead pass starts at the HLT pointer: every live coset below it
    # must already close every relator, so tracing there would be a no-op.
    lookahead = _Enumerator._lookahead
    checked = 0

    def checking_lookahead(self, start):
        nonlocal checked
        for a in range(start):
            if self.table[a] is None:
                continue
            for w, _ in self.relators:
                f = a
                for x in w:
                    f = self.table[f][x]
                    if f is None:
                        break
                assert f == a, (a, w)
                checked += 1
        return lookahead(self, start)

    monkeypatch.setattr(_Enumerator, "_lookahead", checking_lookahead)
    for presentation, limit in [
        *fingerprint_cases(), (A5, 60), (A5, 61), (STUBBORN, 13), (STUBBORN, 14),
    ]:
        enumerate_cosets(presentation, limit=limit)
    assert checked > 0


def cascade_cases():
    # Up to four generators and more relators than generators: small limits
    # fill, and lookahead passes set off long coincidence cascades.
    rng = random.Random(2)
    for _ in range(400):
        names = ("a", "b", "c", "d")[: rng.randint(1, 4)]
        relators = tuple(
            Word((rng.choice(names), rng.choice((-1, 1))) for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(len(names), len(names) + 2))
        )
        yield Presentation(names, relators), rng.randint(1, 1500)


# sha256 of the (result, definitions, coincidences, max_live,
# lookahead_passes) rows of cascade_cases(), recorded with a lookahead pass
# that traced from coset 0 and a coincidence routine that called a merge
# function per merge.
CASCADE_SHA256 = "1db29298a683dd25533111c152a34ad48b403dfb1a42aa94bdf1a0aea5562f63"


def test_cascade_fingerprint_is_pinned():
    rows = []
    looked = coincidences = 0
    for presentation, limit in cascade_cases():
        outcome = enumerate_cosets(presentation, limit=limit)
        s = outcome.stats
        looked += s.lookahead_passes > 0
        coincidences += s.coincidences
        rows.append(
            f"{outcome.result!r} {s.definitions} {s.coincidences} {s.max_live} {s.lookahead_passes}"
        )
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert looked >= 60 and coincidences >= 100_000
    assert digest == CASCADE_SHA256, digest


def test_default_limit_is_a_million():
    assert DEFAULT_LIMIT == 1_000_000


def test_commutator_quotient_of_free_group():
    # Abelianized rank-2 free group modulo squares: Z/2 x Z/2.
    p = Presentation(
        ("a", "b"),
        (commutator(gen("a"), gen("b")), parse_word("a^2"), parse_word("b^2")),
    )
    assert enumerate_cosets(p).index == 4
