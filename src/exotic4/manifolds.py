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

from dataclasses import dataclass, replace

from .coset import DEFAULT_LIMIT, EnumerationOutcome, enumerate_cosets
from .intlinalg import AbelianInvariants, IntMatrix, abelian_invariants
from .presentations import Presentation, TietzeResult, tietze_simplify
from .words import Word, commutator, gen, relator


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
    """(e, sigma, b1, b2, b2plus) with the defining identities enforced."""

    e: int
    sigma: int
    b1: int
    b2: int
    b2plus: int

    def __post_init__(self):
        if self.b1 < 0 or self.b2 < 0 or self.b2plus < 0:
            raise ValueError("betti numbers must be nonnegative")
        if self.e != 2 - 2 * self.b1 + self.b2:
            raise ValueError(
                f"e = 2 - 2*b1 + b2 violated: e={self.e}, b1={self.b1}, b2={self.b2}"
            )
        if (self.b2 + self.sigma) % 2 != 0 or self.b2plus != (self.b2 + self.sigma) // 2:
            raise ValueError(
                f"b2plus = (b2 + sigma)/2 violated: b2={self.b2}, sigma={self.sigma}, "
                f"b2plus={self.b2plus}"
            )

    @classmethod
    def from_e_sigma_b1(cls, e: int, sigma: int, b1: int) -> "CharNumbers":
        """Fill in b2 and b2plus from the closed-oriented identities."""
        b2 = e - 2 + 2 * b1
        if (b2 + sigma) % 2 != 0:
            raise ValueError(f"b2 + sigma = {b2 + sigma} is odd; no integer b2plus")
        return cls(e, sigma, b1, b2, (b2 + sigma) // 2)


@dataclass(frozen=True)
class SurgeryMove:
    """One torus surgery as a declarative relation swap.

    Removes `removed_relations` from the presentation (each must be present
    verbatim as a freely reduced relator) and inserts `added_relations` in
    their place.  `symplectic` is True for moves that preserve a symplectic
    structure (coefficient -1/q with q >= 1, or -n with n = 1), False when
    the move is known not to, and None when unknown (custom moves).
    """

    torus_label: str
    surgery_curve: str
    coefficient: str
    removed_relations: tuple[Word, ...]
    added_relations: tuple[Word, ...]
    symplectic: bool | None


@dataclass(frozen=True)
class ManifoldModel:
    """An immutable (presentation, characteristic numbers, form) bundle.

    `form_basis` lists labeled geometrically-dual pairs; `form` is the
    pairing matrix in that basis (one hyperbolic block per pair) or an
    abstract representative when no labeled basis is attached.
    `h1` is the abelianization of `presentation`.  `certifications` records
    which machine checks have succeeded; verdicts attach certificates via a
    rebuild, never mutation.
    """

    name: str
    params: FamilyParams | None
    presentation: Presentation
    char: CharNumbers
    h1: AbelianInvariants
    form_basis: tuple[tuple[str, str], ...] = ()
    form: IntMatrix | None = None
    sw_profile: tuple[int, int, int] | None = None
    symplectic_flag: bool | None = None
    certifications: frozenset = frozenset()
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.form is not None and not self.form.is_symmetric():
            raise ValueError("intersection pairing matrix must be symmetric")
        if self.char.b1 != self.h1.free_rank:
            raise ValueError(
                f"b1 = {self.char.b1} disagrees with H1 free rank {self.h1.free_rank}"
            )

    def certified(self, *certs: str) -> bool:
        return all(c in self.certifications for c in certs)


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


def odd_diagonal_form(b_plus: int, b_minus: int) -> IntMatrix:
    """Diagonal form with b_plus entries +1 followed by b_minus entries -1."""
    diag = [1] * b_plus + [-1] * b_minus
    n = len(diag)
    return IntMatrix([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)], cols=n)


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


def schedule_Mkn(params: FamilyParams) -> tuple[SurgeryMove, ...]:
    """The 2k+4 torus surgery moves producing M(k, n, p, r) from X_k.

    Each move trades the pre-surgery commuting relation of its torus for the
    surgered relation.  The -1/p, -1/r moves exist only for k >= 2 (their
    tori live on the c2/d2 handles), so k = 1 has just 6 moves.
    """
    k, n, p, r = params.k, params.n, params.p, params.r
    a1, b1, a2, b2 = gen("a1"), gen("b1"), gen("a2"), gen("b2")
    ct, dk1 = gen("ct"), gen(f"d{k + 1}")
    c1, d1 = gen("c1"), gen("d1")

    def move(torus, curve, coeff, pre, post, symplectic):
        return SurgeryMove(torus, curve, coeff, (pre,), (post,), symplectic)

    moves = [
        move("a1' x c1'", "a1", "-1",
             commutator(b1.inverse(), d1.inverse()),
             relator(commutator(b1.inverse(), d1.inverse()), a1), True),
        move("b1' x c1''", "b1", "-1",
             commutator(a1.inverse(), d1),
             relator(commutator(a1.inverse(), d1), b1), True),
        move("a2' x c1'", "c1", "-1",
             commutator(b2.inverse(), d1.inverse()),
             relator(commutator(b2.inverse(), d1.inverse()), c1), True),
        move("a2'' x d1'", "d1", "-n",
             commutator(b2, c1.inverse()),
             relator(commutator(b2, c1.inverse()) ** n, d1), n == 1),
    ]
    if k >= 2:
        c2, d2 = gen("c2"), gen("d2")
        moves += [
            move("a2' x c2'", "c2", "-1/p",
                 commutator(b2.inverse(), d2.inverse()),
                 relator(commutator(b2.inverse(), d2.inverse()), c2 ** p), p >= 1),
            move("a2'' x d2'", "d2", "-1/r",
                 commutator(b2, c2.inverse()),
                 relator(commutator(b2, c2.inverse()), d2 ** r), r >= 1),
        ]
    for j in range(3, k + 1):
        cj, dj = gen(f"c{j}"), gen(f"d{j}")
        moves += [
            move(f"a2' x c{j}'", f"c{j}", "-1",
                 commutator(b2.inverse(), dj.inverse()),
                 relator(commutator(b2.inverse(), dj.inverse()), cj), True),
            move(f"a2'' x d{j}'", f"d{j}", "-1",
                 commutator(b2, cj.inverse()),
                 relator(commutator(b2, cj.inverse()), dj), True),
        ]
    moves += [
        move(f"b1'' x d{k + 1}'", f"d{k + 1}", "-1",
             ct.inverse() * a1 * a2 * ct * a1.inverse() * a2.inverse(),
             relator(ct.inverse() * a1 * a2 * ct * a1.inverse() * a2.inverse(), dk1), True),
        move("(b1~ b2~) x ct'", "ct", "-1",
             commutator(a1, dk1.inverse()),
             relator(commutator(a1, dk1.inverse()), ct), True),
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


def build_Xk(k: int) -> ManifoldModel:
    """The unsurgered model surface X_k.

    Characteristic numbers (4k, 0, 2k+4, 8k+6, 4k+3); intersection form
    (4k+3) hyperbolic blocks in the labeled dual-pair basis; presentation
    carrying every relation that the surgery schedule may later trade away.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ParameterError(f"constraint violated: k >= 1 (got {k})")
    pre = [mv.removed_relations[0] for mv in schedule_Mkn(FamilyParams(k, 1, 1, 1))]
    relators = _common_relators(k) + pre + _surface_relators(k)
    presentation = Presentation(family_generators(k), relators)
    h1 = abelian_invariants(presentation)
    char = CharNumbers(4 * k, 0, 2 * k + 4, 8 * k + 6, 4 * k + 3)
    basis = _xk_basis(k)
    return ManifoldModel(
        name=f"X_{k}",
        params=None,
        presentation=presentation,
        char=char,
        h1=h1,
        form_basis=basis,
        form=hyperbolic_form(len(basis)),
        sw_profile=None,
        symplectic_flag=True,
        notes=("minimal complex surface of general type; symplectic",),
    )


def apply_schedule(base: ManifoldModel, moves, *, name: str | None = None) -> ManifoldModel:
    """Apply surgery moves as in-place relation swaps and redo the bookkeeping.

    Torus surgery preserves e and sigma (axiom recorded in reports); H1 and b1
    are recomputed from the abelianization of the rewritten presentation and
    b2 from e = 2 - 2*b1 + b2.  The result keeps the base's symplectic flag
    when every move is symplectic (None otherwise), drops X_k's
    complex-surface note, and carries no family parameters, form basis or
    Seiberg-Witten profile: `build_Mkn` attaches those for family members.
    The default name is "<base name>/surgered".
    """
    relators = list(base.presentation.relators)
    for mv in moves:
        slot = None
        for rel in mv.removed_relations:
            try:
                i = relators.index(rel)
            except ValueError:
                raise ScheduleMismatchError(
                    f"move {mv.torus_label!r} removes {rel}, which is not a relator"
                ) from None
            del relators[i]
            slot = i if slot is None else min(slot, i)
        if slot is None:
            relators.extend(mv.added_relations)
        else:
            relators[slot:slot] = mv.added_relations
    presentation = Presentation(base.presentation.generators, relators)
    h1 = abelian_invariants(presentation)
    symplectic = (
        base.symplectic_flag if all(mv.symplectic is True for mv in moves) else None
    )
    return ManifoldModel(
        name=f"{base.name}/surgered" if name is None else name,
        params=None,
        presentation=presentation,
        char=CharNumbers.from_e_sigma_b1(base.char.e, base.char.sigma, h1.free_rank),
        h1=h1,
        symplectic_flag=symplectic,
        notes=tuple(n for n in base.notes if not n.startswith("minimal complex surface")),
    )


def build_Mkn(params: FamilyParams) -> ManifoldModel:
    """X_k surgered along the full family schedule, named by its parameters
    with m = 1 (the multiplicity-m transform is `apply_log_transform`).

    On top of `apply_schedule` it attaches the family fields: `params` with
    m = 1; the symplectic flag n == 1 (n = 1 keeps the symplectic structure
    for every (p, r), n >= 2 provably destroys it through its basic-class
    count); the k = 1 note; and, when p = r = 1 and H1 is trivial, the
    labeled (2k-1)-pair basis with its hyperbolic form and the
    Seiberg-Witten profile (k, n, 1).  Full pi1 certification is still
    enumeration's job.
    """
    params = replace(params, m=1)
    model = apply_schedule(build_Xk(params.k), schedule_Mkn(params), name=params.name)
    notes = model.notes
    if params.k == 1:
        notes += ("k=1: pi1 and classification claims are not certified; "
                  "the surgered relation list is modeled for k >= 2 only",)
    model = replace(model, params=params, symplectic_flag=params.n == 1, notes=notes)
    if params.p == 1 and params.r == 1 and model.h1.trivial:
        basis = _mkn_basis(params.k)
        model = replace(
            model,
            form_basis=basis,
            form=hyperbolic_form(len(basis)),
            sw_profile=(params.k, params.n, 1),
        )
    return model


def build_Zk(k: int) -> ManifoldModel:
    """The schedule minus its single -n move: b1 = 1, b2 = 4k, b2plus = 2k."""
    moves = [mv for mv in schedule_Mkn(FamilyParams(k, 1, 1, 1)) if mv.coefficient != "-n"]
    return apply_schedule(build_Xk(k), moves, name=f"Z_{k}")


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
    `enumeration` is the coset-enumeration certificate over the trivial
    subgroup (None if the claimed group is infinite and enumeration was
    skipped), and `enumerated` names the presentation it ran on:
    "as-built" for the model's own, "complement" when a torus-complement
    certificate whose group maps onto pi1 proved that group trivial, and None
    when nothing was enumerated.  `simplification` carries the
    generator-elimination evidence.  `certifies_trivial` is True exactly when
    the enumeration completed with index 1.
    """

    claimed: AbelianInvariants
    h1_check: bool
    simplification: TietzeResult
    enumeration: EnumerationOutcome | None
    enumerated: str | None
    expected_index: int | None
    passed: bool
    certifies_trivial: bool


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
    maps the complement group onto pi1, so the complement's Completed(1)
    proves pi1 trivial too.  A certificate that did not pass leaves the
    as-built enumeration to run.
    """
    if model.params is None:
        raise ParameterError("pi1 verification needs family parameters")
    if model.params.k < 2:
        raise ParameterError("pi1 claims are certified for k >= 2 only")
    if complement is not None:
        _check_quotient(complement.presentation, model.presentation)
    p, r = model.params.p, model.params.r
    claimed = claimed_invariants(p, r)
    h1_check = model.h1 == claimed
    simplification = tietze_simplify(model.presentation)
    enumeration = None
    enumerated = None
    expected = None
    if p >= 1 and r >= 1:
        expected = p * r
        if complement is not None and complement.passed:
            enumeration, enumerated = complement.enumeration, "complement"
        else:
            enumeration = enumerate_cosets(model.presentation, limit=limit)
            enumerated = "as-built"
    enum_ok = enumeration is None or (
        enumeration.completed and enumeration.index == expected
    )
    certifies_trivial = (
        enumeration is not None and enumeration.completed and enumeration.index == 1
    )
    return Pi1Verdict(
        claimed=claimed,
        h1_check=h1_check,
        simplification=simplification,
        enumeration=enumeration,
        enumerated=enumerated,
        expected_index=expected,
        passed=h1_check and enum_ok,
        certifies_trivial=certifies_trivial,
    )


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


@dataclass(frozen=True)
class ComplementVerdict:
    """The torus-complement enumeration and the presentation it ran on."""

    presentation: Presentation
    enumeration: EnumerationOutcome
    passed: bool


def verify_complement(
    model: ManifoldModel, *, limit: int = DEFAULT_LIMIT
) -> ComplementVerdict:
    """Certify that the torus complement is simply connected."""
    pres = complement_presentation(model)
    outcome = enumerate_cosets(pres, limit=limit)
    return ComplementVerdict(pres, outcome, outcome.completed and outcome.index == 1)


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
    simply connected complement adds no generators or relations).
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
    params = replace(model.params, m=m)
    char = model.char
    if m % 2 == 1:
        form = hyperbolic_form(char.b2 // 2)
        parity_note = "form even (spin): abstract hyperbolic representative attached"
    else:
        form = odd_diagonal_form(char.b2plus, char.b2 - char.b2plus)
        parity_note = "form odd (nonspin): abstract diagonal representative attached"
    return replace(
        model,
        name=params.name,
        params=params,
        presentation=Presentation((), ()),
        h1=AbelianInvariants((), 0),
        form_basis=(),
        form=form,
        sw_profile=(params.k, params.n, m),
        certifications=frozenset({PI1_TRIVIAL}),
        notes=model.notes
        + (
            "multiplicity-m transform on the certified simply connected complement; "
            "presentation replaced by the certified trivial one",
            parity_note,
        ),
    )
