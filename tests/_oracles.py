"""Independent reference implementations used only by the tests.

Each oracle recomputes a quantity by a different method than the library
(letter stacks instead of run-length syllables, cofactor expansion and
rational elimination for determinants, determinantal divisors instead of
pivoting, rational congruence diagonalization instead of integer reduction,
every relator traced at every coset instead of only those a column mask lets
start) so that agreement is evidence, not an identity check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd


# ---------------------------------------------------------------- words


def flat_letters(syllables) -> list[tuple[str, int]]:
    """Expand run-length syllables into single-exponent letters."""
    out = []
    for name, exp in syllables:
        step = 1 if exp > 0 else -1
        out.extend([(name, step)] * abs(exp))
    return out


def stack_reduce(letters) -> list[tuple[str, int]]:
    """Free reduction on a letter list via the classic stack algorithm."""
    stack: list[tuple[str, int]] = []
    for name, step in letters:
        if stack and stack[-1][0] == name and stack[-1][1] == -step:
            stack.pop()
        else:
            stack.append((name, step))
    return stack


def cyclic_reduce(letters) -> list[tuple[str, int]]:
    """Free reduction, then strip inverse pairs off the two ends."""
    stack = stack_reduce(letters)
    while len(stack) > 1 and stack[0][0] == stack[-1][0] and stack[0][1] == -stack[-1][1]:
        stack = stack[1:-1]
    return stack


def random_syllables(rng: random.Random, names, count: int):
    """Unreduced (name, exponent) pairs for building fuzz words."""
    out = []
    for _ in range(count):
        exp = 0
        while exp == 0:
            exp = rng.randint(-3, 3)
        out.append((rng.choice(names), exp))
    return out


# ---------------------------------------------------------------- cosets


def reference_lookahead(table, p, relators, start: int) -> int:
    """One lookahead pass of HLT coset enumeration, traced the plain way.

    `table` is a list of rows (None for a freed coset) indexed by column,
    where column x^1 is the inverse of column x; `p[c]` is c's parent, c
    itself when c is live; `relators` are tuples of columns.  Every relator
    is traced at every live coset from `start` on, forwards then backwards,
    without defining: a trace with one letter missing deduces it, and a
    trace that closes between two cosets merges them, smaller id surviving,
    with Holt's COINCIDENCE routine (a queue of merged cosets whose rows are
    moved onto the survivors).  Mutates table and p and returns the number
    of cosets merged away.
    """

    def rep(c):
        root = c
        while p[root] != root:
            root = p[root]
        while p[c] != root:
            p[c], c = root, p[c]
        return root

    def coincidence(a, b):
        queue = []

        def merge(k, l):
            k, l = rep(k), rep(l)
            if k != l:
                k, l = min(k, l), max(k, l)
                p[l] = k
                queue.append(l)

        merge(a, b)
        for g in queue:  # merge() appends while this runs
            for x in range(len(table[g])):
                d = table[g][x]
                if d is None:
                    continue
                table[d][x ^ 1] = None
                mu, nu = rep(g), rep(d)
                if table[mu][x] is not None:
                    merge(nu, table[mu][x])
                elif table[nu][x ^ 1] is not None:
                    merge(mu, table[nu][x ^ 1])
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu
            table[g] = None
        return len(queue)

    merged = 0
    for a in range(start, len(table)):
        if table[a] is None:
            continue
        for w in relators:
            f, i = a, 0
            b, j = a, len(w) - 1
            while i <= j and table[f][w[i]] is not None:
                f, i = table[f][w[i]], i + 1
            while j >= i and table[b][w[j] ^ 1] is not None:
                b, j = table[b][w[j] ^ 1], j - 1
            if i == j:
                table[f][w[i]] = b
                table[b][w[i] ^ 1] = f
            elif i > j and f != b:
                merged += coincidence(f, b)
                if p[a] != a:
                    break
    return merged


# ---------------------------------------------------------------- matrices


def matmul(a, b) -> list[list[int]]:
    """Product of two matrices given as lists of rows (b nonempty)."""
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def cofactor_determinant(rows) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_determinant(minor)
    return total


def rational_determinant(rows) -> int:
    """Determinant by Gaussian elimination over Q with Fraction pivots."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for i in range(n):
        pivot = next((r for r in range(i, n) if m[r][i] != 0), None)
        if pivot is None:
            return 0
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, n):
            f = m[r][i] / m[i][i]
            for c in range(i, n):
                m[r][c] -= f * m[i][c]
    return int(det)


def determinantal_divisor_factors(rows, cols_count) -> tuple[int, ...]:
    """Invariant factors via gcds of k x k minors (small matrices only)."""
    n = len(rows)
    factors = []
    prev = 1
    for k in range(1, min(n, cols_count) + 1):
        g = 0
        for ris in combinations(range(n), k):
            for cis in combinations(range(cols_count), k):
                sub = [[rows[i][j] for j in cis] for i in ris]
                g = gcd(g, abs(cofactor_determinant(sub)))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(f for f in factors if f != 1 or True)  # keep units; caller strips


def rational_signature(rows) -> tuple[int, int]:
    """(signature, rank) of a symmetric integer matrix over Q.

    Symmetric congruence diagonalization with Fraction arithmetic; a zero
    diagonal pivot over a nonzero row is repaired by adding the partner row
    and column, which is again a congruence.
    """
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    sig = rank = 0
    for i in range(n):
        if m[i][i] == 0:
            pivot_j = next((j for j in range(i + 1, n) if m[j][j] != 0), None)
            if pivot_j is not None:
                m[i], m[pivot_j] = m[pivot_j], m[i]
                for row in m:
                    row[i], row[pivot_j] = row[pivot_j], row[i]
            else:
                partner = next((j for j in range(i + 1, n) if m[i][j] != 0), None)
                if partner is None:
                    continue
                for j in range(n):
                    m[i][j] += m[partner][j]
                for j in range(n):
                    m[j][i] += m[j][partner]
        d = m[i][i]
        rank += 1
        sig += 1 if d > 0 else -1
        for j in range(i + 1, n):
            if m[j][i] != 0:
                f = m[j][i] / d
                for t in range(n):
                    m[j][t] -= f * m[i][t]
                for t in range(n):
                    m[t][j] -= f * m[t][i]
    return sig, rank


def random_unimodular(rng: random.Random, n: int, ops: int = 12) -> list[list[int]]:
    """Random determinant +-1 matrix from integer row operations."""
    w = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for t in range(n):
            w[i][t] += c * w[j][t]
    if rng.random() < 0.5 and n:
        w[0] = [-x for x in w[0]]
    return w


def congruent(w, m) -> list[list[int]]:
    """W^T M W for square integer matrices given as lists of lists."""
    n = len(m)
    mw = [[sum(m[i][t] * w[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(w[t][i] * mw[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
