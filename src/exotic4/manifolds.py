"""Surgered 4-manifold models.

Builds the double-quotient model surface X_k (a genus-2 bundle over a
genus-(k+1) surface with e = 4k, sigma = 0, b1 = 2k+4, b2 = 8k+6), applies a
schedule of torus surgeries to it as declarative relation swaps on the
fundamental-group presentation, and tracks the bookkeeping that surgery
leaves behind: characteristic numbers, H1, intersection-form basis, and the
verification certificates (coset enumeration) that downstream classifiers
are gated on.

The family model M(k, n, p, r) is X_k surgered along 2k+4 tori; dropping the
single coefficient -n move instead yields the intermediate model Z_k with
b1 = 1.  A further multiplicity-m torus surgery on the a1' x c2' torus (whose
complement must first be certified simply connected) produces M(k, n, m).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cache, cached_property

from .coset import DEFAULT_LIMIT, EnumerationOutcome, enumerate_cosets
from .intlinalg import AbelianInvariants, FormType, IntMatrix, abelian_invariants
from .presentations import Presentation, TietzeResult, tietze_simplify
from .words import MAX_RELATOR_LENGTH, Word, commutator, gen, relator


class ParameterError(ValueError):
    """A family parameter violates its constraint (k>=1, n>=1, p>=0, r>=0, m>=1)."""


class ScheduleMismatchError(ValueError):
    """A surgery move tried to remove a relation the presentation does not have."""


class CertificateError(RuntimeError):
    """An operation was refused because a required certificate is missing,
    or a certificate given does not fit the model."""


PI1_TRIVIAL = "pi1-trivial"
COMPLEMENT_TRIVIAL = "complement-trivial"


@dataclass(frozen=True)
class FamilyParams:
    """The integer tuple (k, n, p, r, m) selecting a member of the family.

    m = 1 means "no multiplicity-m transform".  pi1 and classification claims
    are only certified for k >= 2; k = 1 models are built but marked
    unverified.
    """

    k: int
    n: int
    p: int = 1
    r: int = 1
    m: int = 1

    def __post_init__(self):
        for name, value, bound in (
            ("k", self.k, 1),
            ("n", self.n, 1),
            ("p", self.p, 0),
            ("r", self.r, 0),
            ("m", self.m, 1),
        ):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
            if value < bound:
                raise ParameterError(f"constraint violated: {name} >= {bound} (got {value})")

    @property
    def name(self) -> str:
        """The report name of the member with these parameters."""
        return f"M(k={self.k},n={self.n},p={self.p},r={self.r},m={self.m})"


@dataclass(frozen=True)
class CharNumbers:
    """Euler number e, signature sigma and first Betti number b1 of a closed
    oriented 4-manifold.  b2 and b2plus follow from them through
    e = 2 - 2*b1 + b2 and b2plus = (b2 + sigma)/2; a triple that makes either
    negative, or b2 + sigma odd, is refused."""

    e: int
    sigma: int
    b1: int

    def __post_init__(self):
        if self.b1 < 0 or self.b2 < 0 or self.b2plus < 0:
            raise ValueError("betti numbers must be nonnegative")
        if (self.b2 + self.sigma) % 2 != 0:
            raise ValueError(f"b2 + sigma = {self.b2 + self.sigma} is odd; no integer b2plus")

    @property
    def b2(self) -> int:
        return self.e - 2 + 2 * self.b1

    @property
    def b2plus(self) -> int:
        return (self.b2 + self.sigma) // 2


@dataclass(frozen=True)
class SurgeryMove:
    """One torus surgery as a declarative relation swap.

    Removes `removed_relations` from the presentation (each must be present
    verbatim as a freely reduced relator) and inserts `added_relations` in
    their place.  `torus_label` names the surgery torus and `coefficient` the
    surgery coefficient ("-1", "-n", "-1/p", "-1/r", or "custom").  The
    surgery curve of a family move is the last generator of its added
    relation (for the -1/p and -1/r moves, when p, r >= 1).
    """

    torus_label: str
    coefficient: str
    removed_relations: tuple[Word, ...]
    added_relations: tuple[Word, ...]


@dataclass(frozen=True)
class ManifoldModel:
    """An immutable (presentation, characteristic numbers, form basis) bundle.

    `form_basis` lists labeled geometrically-dual pairs, and `form` is read
    off it: the pairing matrix in that basis (one hyperbolic block per
    pair), or None when no basis is attached.  No abstract representative
    stands in for a missing basis; the form type of a transformed model is
    `transformed_form`'s, not a matrix.
    `h1` is the abelianization of `presentation`.  `symplectic_flag` is a
    recorded input (True, False, or None when unknown), set by the builders
    of X_k, Z_k and the family members.  `certifications` records which
    machine checks have succeeded; verdicts attach certificates via a
    rebuild, never mutation.  A model carries no name: a report record is
    named by its `FamilyParams` or `CustomSchedule`.
    """

    params: FamilyParams | None
    presentation: Presentation
    char: CharNumbers
    h1: AbelianInvariants
    form_basis: tuple[tuple[str, str], ...] = ()
    symplectic_flag: bool | None = None
    certifications: frozenset = frozenset()
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.char.b1 != self.h1.free_rank:
            raise ValueError(
                f"b1 = {self.char.b1} disagrees with H1 free rank {self.h1.free_rank}"
            )

    @property
    def form(self) -> IntMatrix | None:
        """The pairing matrix of `form_basis`, computed from its labels.

        A label s[x x y] is the product class of x on Sigma_2 and y on
        Sigma_{2k+1}, with sign s.  Two of them pair by
        (x x y).(x' x y') = (-1)^(deg y * deg x') (x.x')(y.y'), so
        (a x c).(b x d) = -(a.b)(c.d) for curves; on a surface a_i.b_i =
        c_j.d_j = 1 = -(b_i.a_i) = -(d_j.c_j) and pt.Sigma = Sigma.pt = 1.
        X_k's lifted labels, such as "[(a1~ a2~) x ct]", name no product
        class; its basis is read as the dual pairs it lists."""
        if not self.form_basis:
            return None
        labels = [label for pair in self.form_basis for label in pair]
        parsed = [re.fullmatch(r"(-?)\[(\w+) x (\w+)\]", label) for label in labels]
        if not all(parsed):
            return hyperbolic_form(len(self.form_basis))

        def degree(name):
            return 0 if name == "pt" else 2 if name.startswith("Sigma") else 1

        def pairing(u, v):
            du, dv = degree(u), degree(v)
            if du + dv != 2:
                return 0
            if du != 1:
                return 1
            if u[1:] != v[1:]:
                return 0
            return {"ab": 1, "ba": -1, "cd": 1, "dc": -1}.get(u[0] + v[0], 0)

        classes = [(-1 if m[1] else 1, m[2], m[3]) for m in parsed]
        return IntMatrix(
            [
                [
                    s * t * (-1) ** (degree(y) * degree(u)) * pairing(x, u) * pairing(y, v)
                    for t, u, v in classes
                ]
                for s, x, y in classes
            ]
        )


def hyperbolic_form(blocks: int) -> IntMatrix:
    """Block-diagonal sum of `blocks` copies of [[0,1],[1,0]]."""
    n = 2 * blocks
    return IntMatrix(
        [
            [1 if (i == j + 1 and i % 2 == 1) or (j == i + 1 and j % 2 == 1) else 0 for j in range(n)]
            for i in range(n)
        ],
        cols=n,
    )


def family_generators(k: int) -> tuple[str, ...]:
    """Generator names for the genus-2 x genus-(2k+1) quotient model.

    a1, b1, a2, b2 come from the genus-2 fiber; c1, d1, ..., ck, dk, ct,
    d{k+1} map to standard generators of the genus-(k+1) base ("ct" is the
    distinguished lift whose conjugation action swaps the two fiber copies).
    """
    names = ["a1", "b1", "a2", "b2"]
    for j in range(1, k + 1):
        names += [f"c{j}", f"d{j}"]
    names += ["ct", f"d{k + 1}"]
    return tuple(names)


def _common_relators(k: int) -> list[Word]:
    """Relations that hold both before and after the surgery schedule.

    The conjugation triple presents the fiber monodromy of the quotient; the
    commutator block says fiber generators commute with base generators for
    the undecorated lifts (both live in the index-2 product subgroup); the
    two surface relators close off the fiber and the base.
    """
    a1, b1, a2, b2 = gen("a1"), gen("b1"), gen("a2"), gen("b2")
    ct, dk1 = gen("ct"), gen(f"d{k + 1}")
    c1, d1 = gen("c1"), gen("d1")
    rels = [
        relator(a2, ct.inverse() * a1 * ct),
        relator(b2, ct.inverse() * b1 * ct),
        relator(b1, ct.inverse() * b2 * ct),
        commutator(b2, dk1),
        commutator(a1.inverse() * b1.inverse() * a2, dk1),
        commutator(a2.inverse() * b2.inverse() * a1, dk1),
        commutator(a1, c1),
        commutator(b1, c1),
        commutator(a2, c1),
        commutator(a2, d1),
        commutator(b1, dk1),
    ]
    for j in range(2, k + 1):
        rels += [commutator(a2, gen(f"c{j}")), commutator(a2, gen(f"d{j}"))]
    for j in range(2, k + 1):
        cj, dj = gen(f"c{j}"), gen(f"d{j}")
        rels += [
            commutator(a1, cj),
            commutator(b1, dj),
            commutator(a1, dj),
            commutator(b1, cj),
        ]
    return rels


def _surface_relators(k: int) -> list[Word]:
    a1, b1, a2, b2 = gen("a1"), gen("b1"), gen("a2"), gen("b2")
    base = Word()
    for j in range(1, k + 1):
        base = base * commutator(gen(f"c{j}"), gen(f"d{j}"))
    base = base * commutator(gen("ct"), gen(f"d{k + 1}"))
    return [commutator(a1, b1) * commutator(a2, b2), base]


def _check_length(torus_label: str, length: int) -> None:
    """Refuse a move whose added relation has `length` letters, more than
    MAX_RELATOR_LENGTH."""
    if length > MAX_RELATOR_LENGTH:
        raise ValueError(
            f"move {torus_label!r} adds a relation of {length} letters, "
            f"more than the {MAX_RELATOR_LENGTH} allowed"
        )


def schedule_Mkn(params: FamilyParams) -> tuple[SurgeryMove, ...]:
    """The 2k+4 torus surgery moves producing M(k, n, p, r) from X_k.

    Each move trades the pre-surgery commuting relation of its torus for the
    surgered relation.  The -1/p, -1/r moves exist only for k >= 2 (their
    tori live on the c2/d2 handles), so k = 1 has just 6 moves.  The -n
    move's relation [b2, c1^-1]^n d1^-1 has 4n + 1 letters; past
    MAX_RELATOR_LENGTH it is refused, naming the move, before it is built.
    """
    k, n, p, r = params.k, params.n, params.p, params.r
    a1, b1, a2, b2 = gen("a1"), gen("b1"), gen("a2"), gen("b2")
    ct, dk1 = gen("ct"), gen(f"d{k + 1}")
    c1, d1 = gen("c1"), gen("d1")
    twist = commutator(b2, c1.inverse())
    _check_length("a2'' x d1'", twist.length * n + 1)

    def move(torus, coeff, pre, post):
        return SurgeryMove(torus, coeff, (pre,), (post,))

    moves = [
        move("a1' x c1'", "-1",
             commutator(b1.inverse(), d1.inverse()),
             relator(commutator(b1.inverse(), d1.inverse()), a1)),
        move("b1' x c1''", "-1",
             commutator(a1.inverse(), d1),
             relator(commutator(a1.inverse(), d1), b1)),
        move("a2' x c1'", "-1",
             commutator(b2.inverse(), d1.inverse()),
             relator(commutator(b2.inverse(), d1.inverse()), c1)),
        move("a2'' x d1'", "-n", twist, relator(twist ** n, d1)),
    ]
    if k >= 2:
        c2, d2 = gen("c2"), gen("d2")
        moves += [
            move("a2' x c2'", "-1/p",
                 commutator(b2.inverse(), d2.inverse()),
                 relator(commutator(b2.inverse(), d2.inverse()), c2 ** p)),
            move("a2'' x d2'", "-1/r",
                 commutator(b2, c2.inverse()),
                 relator(commutator(b2, c2.inverse()), d2 ** r)),
        ]
    for j in range(3, k + 1):
        cj, dj = gen(f"c{j}"), gen(f"d{j}")
        moves += [
            move(f"a2' x c{j}'", "-1",
                 commutator(b2.inverse(), dj.inverse()),
                 relator(commutator(b2.inverse(), dj.inverse()), cj)),
            move(f"a2'' x d{j}'", "-1",
                 commutator(b2, cj.inverse()),
                 relator(commutator(b2, cj.inverse()), dj)),
        ]
    moves += [
        move(f"b1'' x d{k + 1}'", "-1",
             ct.inverse() * a1 * a2 * ct * a1.inverse() * a2.inverse(),
             relator(ct.inverse() * a1 * a2 * ct * a1.inverse() * a2.inverse(), dk1)),
        move("(b1~ b2~) x ct'", "-1",
             commutator(a1, dk1.inverse()),
             relator(commutator(a1, dk1.inverse()), ct)),
    ]
    return tuple(moves)


def _xk_basis(k: int) -> tuple[tuple[str, str], ...]:
    """The 4k+3 labeled dual pairs spanning the form of X_k."""
    pairs: list[tuple[str, str]] = []
    for j in range(1, k + 1):
        pairs += [
            (f"[a1 x c{j}]", f"-[b1 x d{j}]"),
            (f"[a1 x d{j}]", f"[b1 x c{j}]"),
            (f"[a2 x c{j}]", f"-[b2 x d{j}]"),
            (f"[a2 x d{j}]", f"[b2 x c{j}]"),
        ]
    pairs += [
        ("[(a1~ a2~) x ct]", f"-[b1 x d{k + 1}]"),
        (f"[a1 x d{k + 1}]", "[(b1~ b2~) x ct]"),
        ("[Sigma_2 x pt]", f"[pt x Sigma_{2 * k + 1}]"),
    ]
    return tuple(pairs)


def _mkn_basis(k: int) -> tuple[tuple[str, str], ...]:
    """The 2k-1 dual pairs that survive the schedule (the a1/b1 pairs on the
    c2..ck handles, plus the fiber/base pair; the last pair is the (A, B)
    hyperbolic pair consumed by the Seiberg-Witten bookkeeping)."""
    pairs: list[tuple[str, str]] = []
    for j in range(2, k + 1):
        pairs += [
            (f"[a1 x c{j}]", f"-[b1 x d{j}]"),
            (f"[a1 x d{j}]", f"[b1 x c{j}]"),
        ]
    pairs.append(("[Sigma_2 x pt]", f"[pt x Sigma_{2 * k + 1}]"))
    return tuple(pairs)


@cache
def _xk_relators(k: int) -> tuple[Word, ...]:
    """X_k's relators: the common ones, the pre-surgery relation of each
    move of the schedule, and the two surface relators.  Every model of one
    k starts from this tuple; it holds only immutable Words."""
    pre = [mv.removed_relations[0] for mv in schedule_Mkn(FamilyParams(k, 1, 1, 1))]
    return tuple(_common_relators(k) + pre + _surface_relators(k))


def build_Xk(k: int) -> ManifoldModel:
    """The unsurgered model surface X_k.

    Characteristic numbers (4k, 0, 2k+4, 8k+6, 4k+3); intersection form
    (4k+3) hyperbolic blocks in the labeled dual-pair basis; presentation
    carrying every relation that the surgery schedule may later trade away.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ParameterError(f"constraint violated: k >= 1 (got {k})")
    # The relators come from _xk_relators, built once per k; k is checked
    # first, since True and 1 are one key there.
    presentation = Presentation(family_generators(k), _xk_relators(k))
    # apply_schedule recomputes H1 for every surgered model, but this one is
    # kept: ManifoldModel.__post_init__ compares it with b1 = 2k + 4, the
    # only check that X_k's stated b1 agrees with its presentation.
    h1 = abelian_invariants(presentation)
    char = CharNumbers(4 * k, 0, 2 * k + 4)
    return ManifoldModel(
        params=None,
        presentation=presentation,
        char=char,
        h1=h1,
        form_basis=_xk_basis(k),
        symplectic_flag=True,
    )


def apply_schedule(base: ManifoldModel, moves) -> ManifoldModel:
    """Apply surgery moves as in-place relation swaps and redo the bookkeeping.

    Torus surgery preserves e and sigma (axiom recorded in reports); H1 and b1
    are recomputed from the abelianization of the rewritten presentation.  A
    move that adds a relation of more than MAX_RELATOR_LENGTH letters is
    refused with a ValueError naming the move and the cap, before the
    presentation is rewritten.  The result carries no family parameters,
    form basis, symplectic flag or notes: `build_Mkn` and `build_Zk` attach
    those.
    """
    relators = list(base.presentation.relators)
    # Each relator's syllables, kept in step with `relators`: a relation is
    # found by comparing tuples, without a Word.__eq__ call per relator.
    keys = [rel.syllables for rel in relators]
    for mv in moves:
        for rel in mv.added_relations:
            _check_length(mv.torus_label, rel.length)
        slot = None
        for rel in mv.removed_relations:
            try:
                i = keys.index(rel.syllables)
            except ValueError:
                raise ScheduleMismatchError(
                    f"move {mv.torus_label!r} removes {rel}, which is not a relator"
                ) from None
            del relators[i], keys[i]
            slot = i if slot is None else min(slot, i)
        if slot is None:
            slot = len(relators)
        relators[slot:slot] = mv.added_relations
        keys[slot:slot] = [rel.syllables for rel in mv.added_relations]
    presentation = Presentation(base.presentation.generators, relators)
    h1 = abelian_invariants(presentation)
    return ManifoldModel(
        params=None,
        presentation=presentation,
        char=CharNumbers(base.char.e, base.char.sigma, h1.free_rank),
        h1=h1,
    )


def build_Mkn(params: FamilyParams) -> ManifoldModel:
    """X_k surgered along the full family schedule, with m = 1 (the
    multiplicity-m transform is `apply_log_transform`).

    On top of `apply_schedule` it attaches the family fields: `params` with
    m = 1; the symplectic flag n == 1, the one owner of the family's flag
    (n = 1 keeps the symplectic structure for every (p, r), n >= 2 provably
    destroys it through its basic-class count); the k = 1 note; and, when
    p = r = 1 and H1 is trivial, the labeled (2k-1)-pair basis, whose
    pairing is the model's `form`; the report classifies it, checks it
    against e, sigma and b1, and reads the spin parity and the homeomorphism
    type off it.  Full pi1 certification is still enumeration's job.
    """
    params = replace(params, m=1)
    model = apply_schedule(build_Xk(params.k), schedule_Mkn(params))
    notes = ()
    if params.k == 1:
        notes = ("k=1: pi1 and classification claims are not certified; "
                 "the surgered relation list is modeled for k >= 2 only",)
    model = replace(model, params=params, symplectic_flag=params.n == 1, notes=notes)
    if params.p == 1 and params.r == 1 and model.h1.trivial:
        model = replace(model, form_basis=_mkn_basis(params.k))
    return model


def build_Zk(k: int) -> ManifoldModel:
    """The schedule minus its single -n move: b1 = 1, b2 = 4k, b2plus = 2k.

    Every remaining move has coefficient -1 (p = r = 1), so Z_k is
    symplectic; its flag is stated True, not computed."""
    moves = [mv for mv in schedule_Mkn(FamilyParams(k, 1, 1, 1)) if mv.coefficient != "-n"]
    return replace(apply_schedule(build_Xk(k), moves), symplectic_flag=True)


def claimed_invariants(p: int, r: int) -> AbelianInvariants:
    """Invariant factors of Z/p + Z/r (Z/0 = Z), via the two-generator
    abelian presentation so the normalization is the SNF's own."""
    x, y = gen("x"), gen("y")
    pres = Presentation(("x", "y"), (commutator(x, y), x ** p, y ** r))
    return abelian_invariants(pres)


@dataclass(frozen=True)
class Pi1Verdict:
    """Outcome of the fundamental-group check for a family model.

    `h1_check` compares the model's H1 (the abelianization its builder
    computed) against the claimed Z/p + Z/r.
    `enumeration` is the coset-enumeration certificate (None if the claimed
    group is infinite and enumeration was skipped), and `enumerated` names
    the presentation it ran on and so its subgroup: "as-built" for the
    model's own, enumerated over the trivial subgroup; "complement" for a
    passed torus-complement certificate, enumerated over <b2>, whose index 1
    together with the complement's H1 = 0 proved the complement group
    trivial, and that group maps onto pi1; and None when nothing was
    enumerated.  Either way index 1 proves pi1 trivial.  `simplification`
    carries the generator-elimination evidence.  The rest is read off these
    fields: `expected_index` is the claimed group's order, `passed` needs
    the H1 check and, when something was enumerated, a completed enumeration
    with that index, and `certifies_trivial` is True exactly when the
    enumeration completed with index 1.
    """

    claimed: AbelianInvariants
    h1_check: bool
    simplification: TietzeResult
    enumeration: EnumerationOutcome | None
    enumerated: str | None

    @property
    def expected_index(self) -> int | None:
        return self.claimed.order

    @property
    def passed(self) -> bool:
        e = self.enumeration
        return self.h1_check and (
            e is None or (e.completed and e.index == self.expected_index)
        )

    @property
    def certifies_trivial(self) -> bool:
        return self.enumeration is not None and self.enumeration.index == 1


def verify_pi1(
    model: ManifoldModel,
    *,
    limit: int = DEFAULT_LIMIT,
    complement: ComplementVerdict | None = None,
) -> Pi1Verdict:
    """Check the claimed pi1 = Z/p + Z/r of a family model.

    Enumeration runs on the as-built presentation only: its redundant
    parallel-copy commuting relators make coset collapse fast, whereas the
    Tietze-simplified remainders (balanced near-trivial presentations) stall,
    and at no limit tried did the simplified presentation complete where the
    as-built one had not.  The simplification is kept as elimination
    evidence.

    A passed `complement` certificate replaces that enumeration.  Its
    presentation must have the model's generators and a subset of its
    relators (CertificateError otherwise): the identity on generators then
    maps the complement group onto pi1, so the certificate's proof that the
    complement group is trivial proves pi1 trivial too.  A certificate that
    did not pass leaves the as-built enumeration to run.
    """
    if model.params is None:
        raise ParameterError("pi1 verification needs family parameters")
    if model.params.k < 2:
        raise ParameterError("pi1 claims are certified for k >= 2 only")
    if complement is not None:
        _check_quotient(complement.presentation, model.presentation)
    claimed = claimed_invariants(model.params.p, model.params.r)
    simplification = tietze_simplify(model.presentation)
    enumeration = enumerated = None
    if claimed.order is not None:
        if complement is not None and complement.passed:
            enumeration, enumerated = complement.enumeration, "complement"
        else:
            enumeration = enumerate_cosets(model.presentation, limit=limit)
            enumerated = "as-built"
    return Pi1Verdict(claimed, model.h1 == claimed, simplification, enumeration, enumerated)


def _check_quotient(source: Presentation, target: Presentation) -> None:
    """Refuse unless the identity on generators maps the group of `source`
    onto the group of `target`: same generators, and every source relator a
    target relator."""
    if source.generators != target.generators:
        raise CertificateError(
            f"certificate generators {source.generators} are not the model's "
            f"{target.generators}"
        )
    extra = set(source.relators) - set(target.relators)
    if extra:
        raise CertificateError(
            f"certificate relators {sorted(map(str, extra))} are not the model's"
        )


def with_pi1_certificate(model: ManifoldModel, verdict: Pi1Verdict) -> ManifoldModel:
    """Attach the pi1-trivial certificate when the verdict provides one."""
    if not verdict.certifies_trivial:
        return model
    return replace(model, certifications=model.certifications | {PI1_TRIVIAL})


_MERIDIAN_RELATOR = commutator(gen("b1"), gen("d2"))


def complement_presentation(model: ManifoldModel) -> Presentation:
    """Presentation of the complement of the a1' x c2' torus.

    That torus meets exactly one other surgery torus (b1 x d2), once, so
    removing its tube kills exactly the relation [b1, d2] = 1; every meridian
    is a conjugate of that commutator.  Only defined for family models with
    k >= 2 and p = r = 1.
    """
    if model.params is None or model.params.k < 2:
        raise ParameterError("complement model needs a family model with k >= 2")
    if model.params.p != 1 or model.params.r != 1:
        raise ParameterError("complement model is defined for p = r = 1")
    try:
        return model.presentation.without_relator(_MERIDIAN_RELATOR)
    except ValueError:
        raise ScheduleMismatchError(
            f"presentation has no relator {_MERIDIAN_RELATOR}"
        ) from None


# The complement is enumerated over the cyclic subgroup this generates: of
# the generators tried, it needs the fewest definitions.
COMPLEMENT_SUBGROUP = gen("b2")


@dataclass(frozen=True)
class ComplementVerdict:
    """The torus-complement enumeration over <b2> and the presentation it
    ran on; `h1` is read off that presentation.

    It passed exactly when the enumeration completed with index 1 and H1 is
    0.  Index 1 over <b2> proves the complement group G = <b2>, so G is
    cyclic and therefore isomorphic to its abelianization H1; H1 = 0 then
    proves G trivial.  H1 is computed, not assumed from the dropped relator
    being a commutator.
    """

    presentation: Presentation
    enumeration: EnumerationOutcome

    @cached_property
    def h1(self) -> AbelianInvariants:
        return abelian_invariants(self.presentation)

    @property
    def passed(self) -> bool:
        return self.enumeration.index == 1 and self.h1.trivial


def verify_complement(
    model: ManifoldModel, *, limit: int = DEFAULT_LIMIT
) -> ComplementVerdict:
    """Certify that the torus complement is simply connected."""
    pres = complement_presentation(model)
    enumeration = enumerate_cosets(pres, limit=limit, subgroup=(COMPLEMENT_SUBGROUP,))
    return ComplementVerdict(pres, enumeration)


def with_complement_certificate(
    model: ManifoldModel, verdict: ComplementVerdict
) -> ManifoldModel:
    if not verdict.passed:
        return model
    return replace(model, certifications=model.certifications | {COMPLEMENT_TRIVIAL})


def apply_log_transform(model: ManifoldModel, m: int) -> ManifoldModel:
    """Multiplicity-m torus surgery on the a1' x c2' torus of a certified model.

    Requires both the pi1-trivial and the complement-trivial certificates:
    only then is the surgery a transform on a torus with simply connected
    complement, so pi1 stays trivial for every m and the characteristic
    numbers are preserved.  m = 1 is the identity by convention.  The
    presentation of the result is the certified-trivial one (filling a
    simply connected complement adds no generators or relations).  The
    result carries no form basis, so no `form`: its form type is
    `transformed_form` of the certified model's, which holds the m-parity
    rule.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ParameterError(f"constraint violated: m >= 1 (got {m})")
    if model.params is None:
        raise ParameterError("log transform needs a family model")
    if m == 1:
        return model
    missing = [c for c in (PI1_TRIVIAL, COMPLEMENT_TRIVIAL) if c not in model.certifications]
    if missing:
        raise CertificateError(
            f"log transform refused: missing certificates {missing}; run verify_pi1 "
            "and verify_complement first"
        )
    return replace(
        model,
        params=replace(model.params, m=m),
        presentation=Presentation((), ()),
        h1=AbelianInvariants((), 0),
        form_basis=(),
        certifications=frozenset({PI1_TRIVIAL}),
        notes=model.notes
        + (
            "multiplicity-m transform on the certified simply connected complement; "
            "presentation replaced by the certified trivial one",
        ),
    )


def transformed_form(form: FormType, m: int) -> FormType:
    """The form type after the multiplicity-m transform of a model whose
    form is `form`: rank and signature are kept, and the form turns odd
    exactly when m is even, because w2 = (m-1)T mod 2 for the primitive
    core-torus class T (the `torus-class-primitivity` ledger entry).  A form
    of kind "other" keeps that kind: it may not be unimodular, and the
    transform does not make it so."""
    if m % 2 == 1:
        return form
    kind = "other" if form.kind == "other" else "odd"
    return FormType(kind, form.rank, form.signature, "odd")
