"""Exact integer matrix routines: Smith normal form, abelian invariants,
and symmetric form classification.

The Smith normal form gives H1 its invariant factors and tells
`classify_form` whether a form is unimodular; a congruence reduction gives
a form's signature and rank.

Everything is arbitrary-precision integer arithmetic on plain Python ints;
no floating point enters any verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable

from .presentations import Presentation


class IntMatrix:
    """Immutable integer matrix.  Entries are a tuple of row tuples."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable[int]], cols: int | None = None):
        rows = tuple(tuple(row) for row in entries)
        if {type(x) for row in rows for x in row} - {int}:
            bad = next(x for row in rows for x in row if type(x) is not int)
            raise TypeError(f"matrix entries must be plain ints, got {bad!r}")
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError(f"rows have {width} columns, not the {cols} given")
            cols = width
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self.rows = len(rows)
        self.cols = cols
        self.entries = rows

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.cols, self.entries))

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_lists()!r})"


@dataclass(frozen=True)
class SmithNormalForm:
    d: IntMatrix
    u: IntMatrix
    v: IntMatrix

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(x for x in self.d.diagonal() if x != 0)


def smith_normal_form(m: IntMatrix) -> SmithNormalForm:
    """Diagonalize m over the integers: returns (d, u, v) with d = u m v,
    u and v unimodular, and the diagonal a nonnegative divisibility chain.

    Pivot rule: smallest nonzero absolute value in the working submatrix,
    ties broken row-major, so the decomposition is deterministic.  Two early
    exits leave d, u and v exactly as the full search would: the pivot search
    stops at the first entry of absolute value 1, which already wins under
    the rule, and a pivot of 1 skips the divisibility-chain scan, because 1
    divides every entry.
    """
    nr, nc = m.rows, m.cols
    d = m.to_lists()
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row i += q * row j
        d[i] = [a + q * b for a, b in zip(d[i], d[j])]
        u[i] = [a + q * b for a, b in zip(u[i], u[j])]

    def add_col(i, j, q):
        for row in d:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]

    def negate_row(i):
        d[i] = [-a for a in d[i]]
        u[i] = [-a for a in u[i]]

    def find_pivot(t):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                a = abs(d[i][j])
                if a and (best is None or a < best[0]):
                    best = (a, i, j)
                    if a == 1:
                        return best
        return best

    for t in range(min(nr, nc)):
        piv = find_pivot(t)
        if piv is None:
            break
        _, pi, pj = piv
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        if d[t][t] < 0:
            negate_row(t)
        while True:
            # Clear the pivot cross.  A nonzero remainder is strictly smaller
            # than the pivot and gets swapped in, so this terminates.
            dirty = True
            while dirty:
                dirty = False
                for i in range(t + 1, nr):
                    if d[i][t]:
                        add_row(i, t, -(d[i][t] // d[t][t]))
                        if d[i][t]:
                            swap_rows(i, t)
                            dirty = True
                for j in range(t + 1, nc):
                    if d[t][j]:
                        add_col(j, t, -(d[t][j] // d[t][t]))
                        if d[t][j]:
                            swap_cols(j, t)
                            dirty = True
            # Enforce the divisibility chain: fold any non-multiple into the
            # pivot row and redo the clearing at this position.
            if d[t][t] == 1:
                break
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if d[i][j] % d[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
    return SmithNormalForm(
        IntMatrix(d, cols=nc), IntMatrix(u, cols=nr), IntMatrix(v, cols=nc)
    )


def exponent_matrix(presentation: Presentation) -> IntMatrix:
    """Columns indexed by generators, one row per relator whose exponent
    sums are not all zero; entries are total exponents.  This presents the
    abelianization.  A relator with zero exponent sums, such as a
    commutator, gives a zero row, which adds nothing to the row space, so
    dropping it leaves the invariant factors and the free rank unchanged."""
    index = {n: i for i, n in enumerate(presentation.generators)}
    rows = []
    for rel in presentation.relators:
        row = [0] * len(presentation.generators)
        for name, exp in rel.syllables:
            row[index[name]] += exp
        if any(row):
            rows.append(row)
    return IntMatrix(rows, cols=len(presentation.generators))


@dataclass(frozen=True)
class AbelianInvariants:
    """H1 as invariant factors (each >= 2, each dividing the next) plus the
    free rank."""

    torsion: tuple[int, ...]
    free_rank: int

    @property
    def trivial(self) -> bool:
        return not self.torsion and self.free_rank == 0

    @property
    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        out = 1
        for t in self.torsion:
            out *= t
        return out

    def __str__(self) -> str:
        parts = [f"Z/{t}" for t in self.torsion] + ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "0"


def abelian_invariants(presentation: Presentation) -> AbelianInvariants:
    """Invariant factors of the cokernel of the transposed exponent matrix,
    unit factors dropped."""
    mat = exponent_matrix(presentation)
    factors = smith_normal_form(mat).invariant_factors
    free = len(presentation.generators) - len(factors)
    return AbelianInvariants(tuple(f for f in factors if f > 1), free)


def signature_and_rank(m: IntMatrix) -> tuple[int, int]:
    """Signature and rank of a symmetric integer matrix, computed by exact
    congruence reduction.  Splitting off a pivot d rescales the complement
    form by d (a square times 1/d), so only the sign bookkeeping changes."""
    if not m.is_symmetric():
        raise ValueError("matrix is not symmetric")
    w = m.to_lists()
    idx = list(range(m.rows))
    sig = 0
    rank = 0
    flip = 1
    while idx:
        pivot = next((a for a in idx if w[a][a] != 0), None)
        if pivot is None:
            pair = next(
                ((a, b) for a in idx for b in idx if a < b and w[a][b] != 0), None
            )
            if pair is None:
                break
            a, b = pair
            # Congruence: add row/col b to row/col a, making w[a][a] = 2*w[a][b].
            for j in idx:
                w[a][j] += w[b][j]
            for i in idx:
                w[i][a] += w[i][b]
            pivot = a
        d = w[pivot][pivot]
        c = 1 if d > 0 else -1
        flip *= c
        sig += flip
        rank += 1
        rest = [a for a in idx if a != pivot]
        for i in rest:
            for j in rest:
                w[i][j] = d * w[i][j] - w[i][pivot] * w[pivot][j]
        # Rescaling a symmetric form by a positive integer changes neither
        # signature nor rank, so divide out the content to stop the pivot
        # scaling from compounding (it is doubly exponential unchecked).
        g = 0
        for i in rest:
            for j in rest:
                g = gcd(g, w[i][j])
        if g > 1:
            for i in rest:
                for j in rest:
                    w[i][j] //= g
        idx = rest
    return sig, rank


@dataclass(frozen=True)
class FormType:
    """Classification of a symmetric integer form by the four facts the
    homeomorphism step reads: kind, rank, signature and parity.

    kind is "hyperbolic" (unimodular, even, signature 0: rank/2 copies of
    the rank-2 block), "odd" (unimodular and odd, so diagonalizable over Z
    with (rank + signature)/2 entries <1> and (rank - signature)/2 entries
    <-1>), or "other" (anything else, described by rank, signature and parity
    alone).  `str` is the one place the "nH" and "a<1> + b<-1>" formats live."""

    kind: str
    rank: int
    signature: int
    parity: str

    def __str__(self) -> str:
        if self.kind == "hyperbolic":
            return f"{self.rank // 2}H"
        if self.kind == "odd":
            plus, minus = (self.rank + self.signature) // 2, (self.rank - self.signature) // 2
            return f"{plus}<1> + {minus}<-1>"
        return f"other(rank {self.rank}, signature {self.signature}, {self.parity})"


def classify_form(m: IntMatrix) -> FormType:
    """Classify a symmetric integer matrix as an intersection form.

    Parity is basis-invariant: the form is even iff every diagonal entry is
    even.  A square matrix is unimodular (|det| = 1) exactly when its Smith
    normal form has one invariant factor 1 per row, the 0x0 matrix included.
    Indefinite unimodular forms are determined by rank, signature and parity;
    the two cases used here are the even form of signature 0 (hyperbolic
    blocks) and the odd diagonal form.  Everything else (non-unimodular input
    included) lands in "other".
    """
    if not m.is_symmetric():
        raise ValueError("intersection form must be symmetric")
    sig, rank = signature_and_rank(m)
    parity = "odd" if any(x % 2 for x in m.diagonal()) else "even"
    kind = "other"
    if smith_normal_form(m).invariant_factors == (1,) * m.rows:
        if parity == "odd":
            kind = "odd"
        elif sig == 0:
            kind = "hyperbolic"
    return FormType(kind, rank, sig, parity)
