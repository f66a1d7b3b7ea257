"""Seiberg-Witten basic-class bookkeeping and the topology verdicts read
off a classified form.

Works in the integer lattice spanned by (A, B, T): A and B are the
hyperbolic pair dual to the fiber and base surface classes (the last labeled
pair of the surgered model's form basis) and T is the class of the core
torus of the multiplicity-m transform.  The pairing is A.B = 1,
A.A = B.B = 0, T.T = T.A = T.B = 0, so L = sA + tB + jT has L.L = 2st.

Gauge theory itself is out of scope: the nonzero-count inputs (value 1 for
the symplectic intermediate model by Taubes' theorem, value n after the -n
surgery by the torus-surgery gluing formula, and the 2m-class spectrum of
the multiplicity-m transform) are axioms recorded in every report.  What is
computed here is everything downstream of those inputs: the adjunction
-constrained candidate survey, the class spectra, irreducibility from
pairwise (L-L')^2 values, and the smooth distinction of two |SW| value
multisets.  The spin parity and the homeomorphism type are read off the
classified intersection form (Wu; Freedman), not off (k, n, m).
"""

from __future__ import annotations

from dataclasses import dataclass

from .intlinalg import FormType
from .manifolds import PI1_TRIVIAL, ManifoldModel


class ContractError(ValueError):
    """Inputs violate an operation's precondition (not a failed verdict)."""


@dataclass(frozen=True, order=True)
class ClassVector:
    """An integer class sA + tB + jT."""

    s: int
    t: int
    j: int = 0

    @property
    def square(self) -> int:
        return 2 * self.s * self.t

    def __neg__(self) -> "ClassVector":
        return ClassVector(-self.s, -self.t, -self.j)

    def __sub__(self, other: "ClassVector") -> "ClassVector":
        return ClassVector(self.s - other.s, self.t - other.t, self.j - other.j)

    def __str__(self) -> str:
        return f"{self.s}A{self.t:+d}B{self.j:+d}T"


@dataclass(frozen=True)
class BasicClassSet:
    """Basic classes with |SW| values for the model selected by context=(k,n,m)."""

    context: tuple[int, int, int]
    entries: tuple[tuple[ClassVector, int], ...]

    @property
    def classes(self) -> tuple[ClassVector, ...]:
        return tuple(c for c, _ in self.entries)


def enumerate_Zk_candidates(k: int) -> tuple[ClassVector, ...]:
    """Adjunction survivors for the b1 = 1 intermediate model Z_k.

    A basic class pairs trivially with T-components (genus-1 classes of
    square 0), so L = sA + tB with s, t even, |s| <= 2k, |t| <= 2 by the
    adjunction inequality against the two surface classes; the moduli
    -dimension inequality L.L = 2st >= 2e + 3*sigma = 8k then leaves exactly
    +-(2kA + 2B).
    """
    if k < 2:
        raise ContractError("candidate survey needs k >= 2")
    out = [
        ClassVector(s, t)
        for s in range(-2 * k, 2 * k + 1, 2)
        for t in range(-2, 3, 2)
        if 2 * s * t >= 8 * k
    ]
    return tuple(sorted(out))


def basic_classes(k: int, n: int, m: int) -> BasicClassSet:
    """The |SW| table for the model at (k, n, m).

    m = 1: the adjunction survivors of `enumerate_Zk_candidates(k)`, that
    is +-(2kA + 2B), each with value n (Taubes value 1 on the intermediate
    model, multiplied to n by the -n surgery's gluing formula).  m >= 2: the
    multiplicity-m transform spreads each survivor L into the m classes
    L + jT with j in {-(m-1), -(m-3), ..., m-1}, each keeping value n.
    """
    if k < 2 or n < 1 or m < 1:
        raise ContractError(f"need k >= 2, n >= 1, m >= 1 (got k={k}, n={n}, m={m})")
    js = range(-(m - 1), m, 2)
    entries = [(ClassVector(c.s, c.t, j), n) for c in enumerate_Zk_candidates(k) for j in js]
    return BasicClassSet((k, n, m), tuple(sorted(entries)))


def spin_parity(form: FormType) -> str:
    """"spin" for an even form, "nonspin" for an odd one: on a simply
    connected 4-manifold w2 is the characteristic class of the form (Wu), so
    it vanishes exactly when the form is even."""
    return "spin" if form.parity == "even" else "nonspin"


@dataclass(frozen=True)
class HomeoVerdict:
    """type_name is None when the model cannot be classified; reason says why."""

    type_name: str | None
    reason: str

    @property
    def classified(self) -> bool:
        return self.type_name is not None


def classify_homeomorphism(model: ManifoldModel, form: FormType) -> HomeoVerdict:
    """Topological type via Freedman: a certified simply connected model whose
    form classifies as qH is q(S2xS2), and one whose form is q<1> + q<-1> is
    q(CP2#CP2bar).  Any other form is left unclassified."""
    if PI1_TRIVIAL not in model.certifications:
        return HomeoVerdict(None, "unclassified: pi1 triviality not certified")
    q = form.rank // 2
    if form.kind == "hyperbolic":
        return HomeoVerdict(f"{q}(S2xS2)", "spin, signature 0, Freedman")
    if form.kind == "odd" and form.signature == 0:
        return HomeoVerdict(f"{q}(CP2#CP2bar)", "nonspin, signature 0, Freedman")
    return HomeoVerdict(None, f"unclassified: form {form} is neither qH nor q<1> + q<-1>")


@dataclass(frozen=True)
class IrreducibilityVerdict:
    """The sorted distinct (L-L')^2 values and the allowed set; it passed
    exactly when every value is allowed."""

    squares: tuple[int, ...]
    allowed: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return all(x in self.allowed for x in self.squares)


def irreducibility_check(classes: BasicClassSet, k: int) -> IrreducibilityVerdict:
    """Pairwise (L-L')^2 over all ordered pairs must land in {0, 32k}.

    In particular -4 never occurs, which rules out splitting off a standard
    piece in a connected-sum decomposition; a pass records the model as
    irreducible (given the basic-class inputs).  T pairs trivially with A, B
    and T, so (L-L')^2 = 2*ds*dt depends only on the (s, t) parts: the
    differences are taken over the distinct (s, t) projections of the
    classes, two for every family member whatever m is.
    """
    if not classes.entries:
        raise ContractError("irreducibility check needs a nonempty class set")
    points = {ClassVector(c.s, c.t) for c in classes.classes}
    squares = sorted({(a - b).square for a in points for b in points})
    return IrreducibilityVerdict(tuple(squares), (0, 32 * k))


@dataclass(frozen=True)
class SmoothVerdict:
    """kind is "nondiffeomorphic" or "indistinguishable"; the witness is the
    pair of |SW| value multisets backing a nondiffeomorphic verdict."""

    kind: str
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None


def distinguish(a: tuple[int, ...], b: tuple[int, ...]) -> SmoothVerdict:
    """Compare the sorted |SW| value multisets of two models of one
    homeomorphism type (the caller groups the models by type).

    Distinct multisets certify the smooth structures differ; equal multisets
    are reported as indistinguishable (never as "diffeomorphic").
    """
    if a != b:
        return SmoothVerdict("nondiffeomorphic", (a, b))
    return SmoothVerdict("indistinguishable", None)
