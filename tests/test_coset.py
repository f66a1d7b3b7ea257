"""Coset enumeration over the trivial subgroup and over subgroups."""

import hashlib
import random

import pytest

from _oracles import reference_lookahead
from exotic4.manifolds import (
    COMPLEMENT_SUBGROUP,
    FamilyParams,
    build_Mkn,
    complement_presentation,
)
from exotic4.words import Word, commutator, gen, parse_relation
from exotic4.presentations import Presentation, tietze_simplify, word_letters
from exotic4.coset import (
    DEFAULT_LIMIT,
    SOFT_START,
    WORK_BOUND,
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
# Higman's three-generator presentation of the trivial group.
HIGMAN3 = pres(["a", "b", "c"], "b^-1*a*b = a^2", "c^-1*b*c = b^2", "a^-1*c*a = c^2")


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
    # Up to SOFT_START the ceiling is the limit, so the free group fills the
    # table and makes one pass, at the limit.  Above it, lookahead runs at a
    # soft ceiling that doubles up to the limit: 20,000 and 25,000 here, one
    # pass at each, since the free group never collapses.  The outcome still
    # reports the limit, not the ceiling.
    assert SOFT_START == 20_000
    for limit, passes in ((500, 1), (15_000, 1), (25_000, 2)):
        outcome = enumerate_cosets(FREE2, limit=limit)
        assert not outcome.completed
        assert outcome.result == LimitExceeded(limit)
        assert (outcome.stats.max_live, outcome.stats.lookahead_passes) == (limit, passes)
        assert outcome.index is None


def test_work_is_bounded_when_coincidences_keep_the_table_below_the_limit():
    # M(2,1) with p = 0, r = 1 has infinite pi1.  At 100,000 lookahead runs
    # at soft ceilings of 20,000 and 40,000; from then on HLT defines cosets
    # that coincidences keep reclaiming, mostly while deductions are
    # processed, and the table never again reaches the ceiling of 80,000, let
    # alone the limit.  Without end: the work bound stops it at WORK_BOUND *
    # limit definitions, and no more ids than that are ever made.
    m2101 = build_Mkn(FamilyParams(2, 1, 0, 1)).presentation
    enum = _Enumerator(m2101, 100_000)
    result = enum.run()
    assert isinstance(result, LimitExceeded) and result.cosets_used < 100_000
    assert enum.definitions == WORK_BOUND * 100_000 == len(enum.table) - 1
    assert enum.max_live == 43_086 and enum.lookahead_passes == 2
    assert sum(row is not None for row in enum.table) == enum.live <= 100_000


def test_the_work_bound_leaves_room_above_the_hardest_completed_runs():
    # A completed run needs more definitions per unit of limit the larger its
    # index and the nearer its limit to the lowest one that completes.  Of
    # the family models measured, M(2,1,4,4) (pi1 of order 16) needs the
    # most, 1.79 x limit at 53,400, and 1.42 x limit at 64,000; M(3,1,2,2)
    # at 100,000 is perfbench's finite-index-k3 workload.  Up to SOFT_START
    # the M(2,1) complement over <b2> runs with its ceiling at the limit: at
    # 12,237, the lowest limit at which it completes, it needs 1.20 x limit,
    # and at 14,847, one coset short of the table it collapses from at
    # larger limits, 1.33 x limit.  All complete, far inside the bound.
    m3122 = (build_Mkn(FamilyParams(3, 1, 2, 2)).presentation, ())
    m2144 = (build_Mkn(FamilyParams(2, 1, 4, 4)).presentation, ())
    complement = (complement_presentation(build_Mkn(FamilyParams(2, 1))), (COMPLEMENT_SUBGROUP,))
    cases = [
        (m3122, 100_000, Completed(4), 106_895),
        (m2144, 64_000, Completed(16), 90_801),
        (m2144, 53_400, Completed(16), 95_362),
        (complement, 12_237, Completed(1), 14_733),
        (complement, 14_847, Completed(1), 19_796),
    ]
    for (presentation, subgroup), limit, result, definitions in cases:
        outcome = enumerate_cosets(presentation, limit, subgroup)
        assert (outcome.result, outcome.stats.definitions) == (result, definitions)
        assert 3 * definitions <= 2 * WORK_BOUND * limit


def test_limit_is_a_value_not_an_exception():
    # Q8 needs a table of exactly its order; one coset less is a
    # LimitExceeded outcome, not an error.
    assert enumerate_cosets(Q8, limit=8).result == Completed(8)
    short = enumerate_cosets(Q8, limit=7)
    assert short.result == LimitExceeded(7)
    assert not short.completed


def element_order(presentation, word):
    """The order of `word` in a finite group, read off the completed table
    of the trivial subgroup: G acts on its own elements, so the orbit of
    coset 0 under `word` is as long as `word`'s order."""
    enum = _Enumerator(presentation, DEFAULT_LIMIT)
    assert isinstance(enum.run(), Completed)
    letters = list(map(ord, word_letters(word, presentation.generators)))
    c, order = 0, 0
    while True:
        for x in letters:
            c = enum.table[c][x]
        order += 1
        if c == 0:
            return order


CYCLIC_SUBGROUPS = [
    (S3, ["a", "b", "a*b", "b^-1"]),
    (Q8, ["i", "j", "i*j", "i^2"]),
    (Z5, ["a", "a^2", "a^-3"]),
    (A5, ["a", "b", "a*b", "a*b^-1*a*b"]),
    (STUBBORN, ["x", "y", "x*y^-1"]),
]


@pytest.mark.parametrize(
    "presentation,words", CYCLIC_SUBGROUPS, ids=["sym3", "quat8", "cyc5", "alt5", "stubborn"]
)
def test_index_over_a_cyclic_subgroup_is_the_order_quotient(presentation, words):
    # [G : <g>] = |G| / |g|, both orders read from trivial-subgroup
    # enumerations, for single letters, inverses and longer words.  Small
    # limits, some of which overflow inside the subgroup scan, give the same
    # index or none.
    order = enumerate_cosets(presentation).index
    for text in words:
        g = parse_relation(text)
        index = order // element_order(presentation, g)
        assert enumerate_cosets(presentation, subgroup=(g,)).index == index, text
        for limit in range(1, index + 3):
            assert enumerate_cosets(presentation, limit, (g,)).index in (None, index)


def test_index_one_over_a_generator_needs_it_to_generate_the_group():
    # M(2,1,2,1) has pi1 = Z/2 + Z/2, which no one element generates:
    # over <b1> the enumeration completes, with index 2, not 1.
    m2121 = build_Mkn(FamilyParams(2, 1, 2, 1)).presentation
    outcome = enumerate_cosets(m2121, limit=60_000, subgroup=(gen("b1"),))
    assert outcome.result == Completed(2)


def test_the_empty_subgroup_word_generates_the_trivial_subgroup():
    assert enumerate_cosets(S3, subgroup=(Word(), gen("a"))).index == 3
    assert enumerate_cosets(S3, subgroup=(Word(),)).index == 6


def subgroup_cases():
    """The cyclic subgroups above at every limit below their index and a
    little past it: small tables overflow inside the subgroup scan at coset
    0 and in the relator scans after it."""
    for presentation, words in CYCLIC_SUBGROUPS:
        for text in words:
            for limit in range(1, 25):
                yield presentation, limit, (parse_relation(text),)


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
        (S3, DEFAULT_LIMIT, Completed(6), (6, 1, 7), 0),
        (Q8, DEFAULT_LIMIT, Completed(8), (7, 0, 8), 0),
        (Z5, DEFAULT_LIMIT, Completed(5), (4, 0, 5), 0),
        # Just below and at the limit where a run completes: STUBBORN's
        # through a lookahead pass that collapses, S3's without a pass.
        (STUBBORN, 13, LimitExceeded(13), (12, 0, 13), 1),
        (STUBBORN, 14, Completed(1), (14, 14, 14), 1),
        (S3, 6, LimitExceeded(6), (5, 0, 6), 1),
        (S3, 7, Completed(6), (6, 1, 7), 0),
        # Several passes, and a resume after a pass that freed rows.
        (A5, 59, LimitExceeded(59), (66, 8, 59), 3),
        (A5, 60, LimitExceeded(60), (66, 7, 60), 2),
        (A5, 61, Completed(60), (69, 10, 61), 1),
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
# recorded with a lookahead pass that traced every relator at every coset,
# and re-recorded with deductions processed after every scan.
FINGERPRINT_SHA256 = "029461aefd583875d419f652999ff828cd1c674ef324fb724db5159f97f46763"


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


def test_every_definition_goes_through_define(monkeypatch):
    # `define` is the only code that creates a coset, so the calls that
    # return (one that overflows defines nothing) count the definitions.
    define = _Enumerator.define
    defined = 0

    def counting_define(self, a, x):
        nonlocal defined
        b = define(self, a, x)
        defined += 1
        return b

    monkeypatch.setattr(_Enumerator, "define", counting_define)
    m21 = build_Mkn(FamilyParams(2, 1)).presentation
    total = 0
    for presentation, limit in [
        *fingerprint_cases(), (STUBBORN, 13), (STUBBORN, 14), (m21, 60_000),
    ]:
        defined = 0
        outcome = enumerate_cosets(presentation, limit=limit)
        assert defined == outcome.stats.definitions, (presentation, limit)
        total += defined
    assert outcome.stats.definitions == 60_795 and total > 60_795


def test_lookahead_skips_only_closed_cosets(monkeypatch):
    # A lookahead pass starts at the HLT pointer: every live coset below it
    # must already close every relator, and coset 0 every subgroup word, so
    # tracing there would be a no-op.
    lookahead = _Enumerator._lookahead
    checked = 0

    def checking_lookahead(self, start):
        nonlocal checked
        for a in range(start):
            if self.table[a] is None:
                continue
            for w, *_ in self.relators + (self.subgroup if a == 0 else []):
                f = a
                for x in w:
                    f = self.table[f][x]
                    if f is None:
                        break
                assert f == a, (a, w)
                checked += 1
        return lookahead(self, start)

    monkeypatch.setattr(_Enumerator, "_lookahead", checking_lookahead)
    for presentation, limit, subgroup in [
        *((p, limit, ()) for p, limit in fingerprint_cases()),
        (A5, 60, ()), (A5, 61, ()), (STUBBORN, 13, ()), (STUBBORN, 14, ()),
        *subgroup_cases(),
    ]:
        enumerate_cosets(presentation, limit, subgroup)
    assert checked > 0


def cascade_cases(count=400):
    # Up to four generators and more relators than generators: small limits
    # fill, and deductions and lookahead passes set off long coincidence
    # cascades.
    rng = random.Random(2)
    for _ in range(count):
        names = ("a", "b", "c", "d")[: rng.randint(1, 4)]
        relators = tuple(
            Word((rng.choice(names), rng.choice((-1, 1))) for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(len(names), len(names) + 2))
        )
        yield Presentation(names, relators), rng.randint(1, 1500)


# sha256 of the (result, definitions, coincidences, max_live,
# lookahead_passes) rows of cascade_cases(800), recorded with deductions
# processed after every scan.  Deductions keep tables small, so the first
# 400 cases, which the pin covered before, merge only about 64,000 cosets.
CASCADE_SHA256 = "51f835fce872288762144d30c26b71d4d85cfe68d0bec0073368184a26b802e3"


def test_cascade_fingerprint_is_pinned():
    rows = []
    looked = coincidences = 0
    for presentation, limit in cascade_cases(800):
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


def chain(n):
    # x_0 = x_1 = ... = x_{n-1} of order 5, plus a relator that the chain
    # makes trivial: Z5 on 2n table columns.
    names = [f"x{i}" for i in range(n)]
    texts = [f"x{i}*x{i + 1}^-1" for i in range(n - 1)]
    return pres(names, *texts, "x0^5", f"x5*x20*x{n - 1}^-2")


def wide_a5(n):
    # A5 on n generators: a, b and copies z_i of them, so 2n table columns.
    # Deductions collapse the chain above at once, but A5's own relators
    # still need lookahead passes at limits near its order.
    names = ["a", "b", *(f"z{i}" for i in range(n - 2))]
    texts = [f"z{i}*{'ab'[i % 2]}^-1" for i in range(n - 2)]
    return pres(names, "a^2", "b^3", "(a*b)^5", *texts)


WIDE = chain(34)  # 68 columns: masks are Python ints
MID = chain(24)  # 48 columns: masks are 64-bit
WIDE_A5 = wide_a5(34)
MID_A5 = wide_a5(24)


@pytest.mark.parametrize(
    "presentation,limit,counts",
    [
        (WIDE, 10, (7, 3, 6, 0)),
        (WIDE, 20, (7, 3, 6, 0)),
        (WIDE, 30, (7, 3, 6, 0)),
        (WIDE, 38, (7, 3, 6, 0)),
        (WIDE, 39, (7, 3, 6, 0)),
        (MID, 20, (7, 3, 6, 0)),
        (MID, 30, (7, 3, 6, 0)),
    ],
)
def test_tables_wider_than_32_and_64_columns(presentation, limit, counts):
    # (definitions, coincidences, max_live, lookahead_passes), first
    # recorded before the enumerator kept column masks.  Since deductions
    # are processed, every limit from 6 on collapses the chain with no
    # lookahead pass.
    outcome = enumerate_cosets(presentation, limit=limit)
    s = outcome.stats
    assert outcome.result == Completed(5)
    assert (s.definitions, s.coincidences, s.max_live, s.lookahead_passes) == counts


@pytest.mark.parametrize(
    "presentation,limit,counts",
    [
        (WIDE_A5, 60, (71, 12, 60, 2)),
        (WIDE_A5, 64, (82, 23, 64, 2)),
        (WIDE_A5, 70, (94, 35, 70, 2)),
        (WIDE_A5, 79, (119, 60, 79, 1)),
        (MID_A5, 60, (71, 12, 60, 2)),
        (MID_A5, 66, (85, 26, 66, 1)),
    ],
)
def test_lookahead_on_tables_wider_than_32_and_64_columns(presentation, limit, counts):
    # The same counters for runs whose lookahead passes, deductions and
    # merges all walk masks wider than 32 and 64 bits.
    outcome = enumerate_cosets(presentation, limit=limit)
    s = outcome.stats
    assert outcome.result == Completed(60)
    assert (s.definitions, s.coincidences, s.max_live, s.lookahead_passes) == counts


def test_mask_container_fits_the_column_count():
    assert _Enumerator(S3, 10).mask.typecode == "I"
    assert _Enumerator(MID, 10).mask.typecode == "Q"
    assert isinstance(_Enumerator(WIDE, 10).mask, list)


def lookahead_cases():
    """(presentation, limit, subgroup) runs whose lookahead passes the
    replay tests check."""
    for presentation, limit in [
        *fingerprint_cases(),
        # The work bound stops runs that churn on past their limit, whose
        # passes made many of the merges, so the replay takes more cases.
        *cascade_cases(800),
        (A5, 60), (A5, 61), (STUBBORN, 13), (STUBBORN, 14),
        *((WIDE, limit) for limit in (10, 20, 30, 38)),
        (MID, 20),
        *((WIDE_A5, limit) for limit in (59, 60, 64, 70)),
        (MID_A5, 60),
        # Deductions make most merges outside lookahead.  Just below the
        # limit where they collapse it alone, this trivial group collapses
        # from about 700 cosets in a lookahead pass.
        (HIGMAN3, 680), (HIGMAN3, 740),
    ]:
        yield presentation, limit, ()
    yield from subgroup_cases()


def root(p, c):
    while p[c] != c:
        c = p[c]
    return c


def test_lookahead_matches_the_reference_pass(monkeypatch):
    # Each pass is replayed on a copy by the reference pass, which traces
    # every relator at every live coset from `start` and merges with its own
    # routine.  Tables and counters must agree; p is compared by root,
    # because where path compression leaves a dead coset's parent is
    # bookkeeping that no result depends on.
    lookahead = _Enumerator._lookahead
    passes = merges = subgroup_passes = 0

    def checked_lookahead(self, start):
        nonlocal passes, merges, subgroup_passes
        table = [None if row is None else list(row) for row in self.table]
        p = list(self.p)
        live, coincidences = self.live, self.coincidences
        merged = reference_lookahead(table, p, [w for w, *_ in self.relators], start)
        room = lookahead(self, start)
        assert self.table == table
        assert [root(self.p, c) for c in range(len(p))] == [root(p, c) for c in range(len(p))]
        assert (self.live, self.coincidences) == (live - merged, coincidences + merged)
        assert room == (self.live < self.limit)
        passes += 1
        merges += merged
        subgroup_passes += bool(self.subgroup)
        return room

    monkeypatch.setattr(_Enumerator, "_lookahead", checked_lookahead)
    for presentation, limit, subgroup in lookahead_cases():
        enumerate_cosets(presentation, limit, subgroup)
    assert passes >= 300 and merges >= 5_000 and subgroup_passes >= 100


def relator_conjugates(relators, x):
    """Every cyclic conjugate of a relator or of its inverse that starts
    with column x."""
    for w, *_ in relators:
        for v in (w, tuple(y ^ 1 for y in reversed(w))):
            yield from (v[k:] + v[:k] for k in range(len(v)) if v[k] == x)


def open_by_one_letter(table, a, w):
    """Whether tracing w at coset a, forwards and backwards without
    defining, leaves a one-letter gap or meets two cosets."""
    f, i = a, 0
    while i < len(w) and table[f][w[i]] is not None:
        f, i = table[f][w[i]], i + 1
    b, j = a, len(w) - 1
    while j >= i and table[b][w[j] ^ 1] is not None:
        b, j = table[b][w[j] ^ 1], j - 1
    return i == j or (j < i and f != b)


def test_deduce_stops_at_a_fixpoint(monkeypatch):
    # When deduce returns, every relator conjugate through an entry it
    # traced, at a coset still live, closes there or leaves a gap of two or
    # more letters: no deduction or coincidence is left behind.
    deduce = _Enumerator.deduce
    edges = coincident = 0

    class Recording(list):
        def pop(self):
            entry = super().pop()
            self.traced.append(entry)
            return entry

    def checked_deduce(self):
        nonlocal edges, coincident
        queued = self.deductions
        queue = self.deductions = Recording(queued)
        queue.traced = []
        queued.clear()
        before = self.coincidences
        deduce(self)
        self.deductions = queued
        coincident += self.coincidences > before
        for a, x in queue.traced:
            if self.table[a] is None:
                continue
            edges += 1
            for w in relator_conjugates(self.relators, x):
                assert not open_by_one_letter(self.table, a, w), (a, w)

    monkeypatch.setattr(_Enumerator, "deduce", checked_deduce)
    complement = complement_presentation(build_Mkn(FamilyParams(2, 1)))
    for presentation, limit, subgroup in [
        *lookahead_cases(), (complement, 60_000, (gen("b2"),)),
    ]:
        enumerate_cosets(presentation, limit, subgroup)
    assert edges >= 100_000 and coincident >= 10_000


def unmasked_entries(enum):
    return [
        (a, x)
        for a, row in enumerate(enum.table)
        if row is not None
        for x, b in enumerate(row)
        if b is not None and not enum.mask[a] >> x & 1
    ]


def test_masks_cover_every_defined_entry(monkeypatch):
    # mask[a] may have stale bits, but never lacks the bit of a defined
    # entry of a live row: at each pass entry and after the run.
    lookahead = _Enumerator._lookahead
    passes = 0

    def checked_lookahead(self, start):
        nonlocal passes
        assert unmasked_entries(self) == []
        passes += 1
        return lookahead(self, start)

    monkeypatch.setattr(_Enumerator, "_lookahead", checked_lookahead)
    for presentation, limit, subgroup in lookahead_cases():
        enum = _Enumerator(presentation, limit, subgroup)
        enum.run()
        assert unmasked_entries(enum) == []
    assert passes >= 300


def test_default_limit_is_a_million():
    assert DEFAULT_LIMIT == 1_000_000


def test_commutator_quotient_of_free_group():
    # Abelianized rank-2 free group modulo squares: Z/2 x Z/2.
    p = Presentation(
        ("a", "b"),
        (commutator(gen("a"), gen("b")), parse_relation("a^2"), parse_relation("b^2")),
    )
    assert enumerate_cosets(p).index == 4
