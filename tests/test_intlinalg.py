"""Exact integer matrix layer: SNF, forms, abelianization."""

import random

import pytest

from exotic4.words import commutator, gen, parse_relation
from exotic4.presentations import Presentation
from exotic4.intlinalg import (
    AbelianInvariants,
    IntMatrix,
    abelian_invariants,
    classify_form,
    exponent_matrix,
    signature_and_rank,
    smith_normal_form,
)

from _oracles import (
    cofactor_determinant,
    congruent,
    determinantal_divisor_factors,
    matmul,
    random_unimodular,
    rational_signature,
)


def mat(rows, cols=None):
    if cols is None:
        return IntMatrix(tuple(tuple(r) for r in rows))
    return IntMatrix(tuple(tuple(r) for r in rows), cols=cols)


def assert_snf_certificate(m: IntMatrix):
    """D = U @ M @ V with unimodular U, V; D diagonal with a divisor chain."""
    snf = smith_normal_form(m)
    u, d, v = snf.u.to_lists(), snf.d.to_lists(), snf.v.to_lists()
    if m.rows and m.cols:
        assert matmul(matmul(u, m.to_lists()), v) == d
    assert abs(cofactor_determinant(u)) == 1
    assert abs(cofactor_determinant(v)) == 1
    for i in range(snf.d.rows):
        for j in range(snf.d.cols):
            if i != j:
                assert d[i][j] == 0
    diag = [d[i][i] for i in range(min(snf.d.rows, snf.d.cols))]
    for x, y in zip(diag, diag[1:]):
        if x != 0:
            assert y % x == 0
        else:
            assert y == 0
    return snf


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(((1, 2), (3,)))
    with pytest.raises(ValueError):
        IntMatrix(())  # needs explicit column count
    assert IntMatrix((), cols=3).rows == 0
    with pytest.raises(ValueError, match="columns"):
        IntMatrix([[1, 2]], cols=3)  # explicit width disagrees with the rows
    with pytest.raises((TypeError, ValueError)):
        IntMatrix(((1.5,),))

    class Int(int):
        pass

    # Only plain ints: a bool or an int subclass is named in the error.
    with pytest.raises(TypeError, match="plain ints, got True"):
        IntMatrix(((1, 2), (True, 0)))
    with pytest.raises(TypeError, match="plain ints, got 3"):
        IntMatrix(((1, 2), (0, Int(3))))


def test_snf_of_a_small_dense_matrix():
    snf = assert_snf_certificate(mat([[2, 4], [6, 8]]))
    assert snf.invariant_factors == (2, 4)


def test_snf_certificate_and_divisor_oracle_on_randoms():
    rng = random.Random(20240101)
    for _ in range(80):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        snf = assert_snf_certificate(mat(rows))
        expected = determinantal_divisor_factors(rows, c)
        got = tuple(abs(x) for x in snf.invariant_factors if x != 0)
        assert got == tuple(x for x in expected if x != 0)


def test_snf_handles_zero_and_rectangular_matrices():
    assert_snf_certificate(mat([[0, 0], [0, 0]]))
    assert_snf_certificate(mat([[3, 1, 4], [1, 5, 9]]))
    assert_snf_certificate(mat([[2], [4], [6]]))
    # zero factors are omitted: they contribute free rank, not torsion
    assert smith_normal_form(mat([[0]])).invariant_factors == ()
    assert smith_normal_form(mat([[0]])).d.entries == ((0,),)


def test_exponent_matrix_counts_signed_occurrences():
    p = Presentation(("x", "y"), (parse_relation("x^2*y^-3"),))
    assert exponent_matrix(p).entries == ((2, -3),)
    # a commutator contributes nothing to any column
    q = Presentation(
        ("b2", "c2", "d2"),
        (parse_relation("[b2^-1, d2^-1] = c2^2"),),
    )
    assert exponent_matrix(q).entries == ((0, -2, 0),)


def test_abelian_invariants_of_small_groups():
    x, y = gen("x"), gen("y")
    z6 = Presentation(("x", "y"), (commutator(x, y), x ** 2, y ** 3))
    assert abelian_invariants(z6) == AbelianInvariants((6,), 0)
    assert str(abelian_invariants(z6)) == "Z/6"

    free_part = Presentation(("x", "y"), (commutator(x, y),))
    assert abelian_invariants(free_part) == AbelianInvariants((), 2)
    assert str(abelian_invariants(free_part)) == "Z + Z"

    trivial = Presentation(("x", "y"), (x, y))
    inv = abelian_invariants(trivial)
    assert inv.trivial and inv.order == 1 and str(inv) == "0"

    merged = Presentation(("x", "y"), (commutator(x, y), x * y))
    assert abelian_invariants(merged) == AbelianInvariants((), 1)

    zero_exponent = Presentation(("x", "y"), (commutator(x, y), x ** 0, y))
    assert abelian_invariants(zero_exponent) == AbelianInvariants((), 1)


def test_abelian_invariants_mix_torsion_and_rank():
    x, y, z = gen("x"), gen("y"), gen("z")
    p = Presentation(
        ("x", "y", "z"),
        (commutator(x, y), commutator(x, z), commutator(y, z), x ** 4, y ** 6),
    )
    inv = abelian_invariants(p)
    assert inv == AbelianInvariants((2, 12), 1)
    assert str(inv) == "Z/2 + Z/12 + Z"
    assert inv.order is None  # infinite


def test_signature_of_basic_forms():
    assert signature_and_rank(mat([[0, 1], [1, 0]])) == (0, 2)
    assert signature_and_rank(mat([[1, 0], [0, -1]])) == (0, 2)
    assert signature_and_rank(mat([[2, 0], [0, 3]])) == (2, 2)
    assert signature_and_rank(mat([[0, 0], [0, 0]])) == (0, 0)
    assert signature_and_rank(mat([], cols=0)) == (0, 0)


def test_signature_matches_rational_oracle_on_randoms():
    rng = random.Random(31415)
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-6, 6)
        assert signature_and_rank(mat(rows)) == rational_signature(rows)


def test_signature_survives_large_block_forms():
    # Block-diagonal hyperbolic stacks produce huge intermediate entries in
    # naive congruence pivoting; the reduction must stay bounded.
    n = 19
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[2 * i][2 * i + 1] = rows[2 * i + 1][2 * i] = 1
    assert signature_and_rank(mat(rows)) == (0, 2 * n)


def hyperbolic(blocks):
    rows = [[0] * (2 * blocks) for _ in range(2 * blocks)]
    for i in range(blocks):
        rows[2 * i][2 * i + 1] = rows[2 * i + 1][2 * i] = 1
    return mat(rows, cols=0 if blocks == 0 else None)


def test_classify_hyperbolic_and_odd_forms():
    h3 = classify_form(hyperbolic(3))
    assert h3.kind == "hyperbolic"
    assert (h3.rank, h3.signature, h3.parity) == (6, 0, "even")
    assert str(h3) == "3H"

    odd = classify_form(mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]]))
    assert odd.kind == "odd"
    assert str(odd) == "2<1> + 1<-1>"

    empty = classify_form(mat([], cols=0))
    assert empty.kind == "hyperbolic"
    assert str(empty) == "0H"

    definite_even = classify_form(mat([[2]]))
    assert definite_even.kind == "other"


def test_classification_invariant_under_basis_change():
    rng = random.Random(777)
    seeds = [
        hyperbolic(1).to_lists(),
        hyperbolic(3).to_lists(),
        [[1, 0], [0, -1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
    ]
    for rows in seeds:
        reference = classify_form(mat(rows))
        for _ in range(8):
            w = random_unimodular(rng, len(rows))
            changed = classify_form(mat(congruent(w, rows)))
            assert changed == reference


def test_unimodularity_matches_cofactor_expansion():
    rng = random.Random(11)
    seen = set()
    for _ in range(200):
        n = rng.randint(1, 4)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-2, 2)
        form = classify_form(mat(rows))
        unimodular = abs(cofactor_determinant(rows)) == 1
        if not unimodular:
            assert form.kind == "other", rows
        elif any(rows[i][i] % 2 for i in range(n)):
            assert form.kind == "odd", rows
        seen.add((unimodular, form.kind))
    # the sample reaches both sides of the unimodularity test
    assert {(True, "odd"), (False, "other")} <= seen


def test_classify_requires_symmetry():
    with pytest.raises(ValueError):
        classify_form(mat([[0, 1], [2, 0]]))
