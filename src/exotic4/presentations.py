"""Finite presentations and Tietze simplification by generator elimination."""

from __future__ import annotations

from dataclasses import dataclass

from .words import Word


class Presentation:
    """An ordered list of generators and a list of freely reduced relators.

    Relators are reduced on construction; relators that reduce to the empty
    word are dropped.  Every symbol used in a relator must be a generator.
    """

    __slots__ = ("generators", "relators")

    def __init__(self, generators, relators=()):
        gens = tuple(generators)
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate generator names")
        rels = tuple(r for r in relators if not r.is_identity())
        known = set(gens)
        for r in rels:
            stray = r.symbols() - known
            if stray:
                raise ValueError(f"relator {r} uses unknown symbols {sorted(stray)}")
        self.generators = gens
        self.relators = rels

    def without_relator(self, rel: Word) -> "Presentation":
        """Drop the first relator equal (as a reduced word) to `rel`."""
        target = Word(rel.syllables)
        for i, r in enumerate(self.relators):
            if r == target:
                return Presentation(self.generators, self.relators[:i] + self.relators[i + 1:])
        raise ValueError(f"relator {rel} not present")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Presentation)
            and self.generators == other.generators
            and self.relators == other.relators
        )

    def __hash__(self) -> int:
        return hash((self.generators, self.relators))

    def __repr__(self) -> str:
        rels = ", ".join(str(r) for r in self.relators)
        return f"<{', '.join(self.generators)} | {rels}>"


@dataclass(frozen=True)
class TietzeResult:
    presentation: Presentation
    # (generator, defining relator, substituted word) per elimination, in order.
    eliminations: tuple[tuple[str, Word, Word], ...]
    steps: int
    completed: bool


def _to_letters(w: Word, col: dict[str, int]) -> str:
    """The one letter encoding of a relator: generator i is letter 2i, its
    inverse 2i+1, and a word is the str of those letters' code points.
    `col` maps each generator name to 2i."""
    return "".join(
        chr(col[name] + (0 if exp > 0 else 1)) * abs(exp) for name, exp in w.syllables
    )


def _from_letters(letters: str, names: list[str]) -> Word:
    return Word((names[ord(c) >> 1], 1 if ord(c) % 2 == 0 else -1) for c in letters)


def _shorten_pass(relators: list[Word], generators, cap: int) -> tuple[list[Word], int]:
    """Shorten relators against each other.

    If some cyclic rotation of a relator (or its inverse) splits as u*v with
    |u| > |v| and u occurs in another relator, that occurrence may be replaced
    by v^-1, strictly shortening it.  This is a Tietze move (multiply by a
    conjugate of the relator) and is what unlocks eliminations the plain
    substitution pass cannot see.
    """
    names = list(generators)
    col = {n: 2 * i for i, n in enumerate(names)}
    swap = {c: c ^ 1 for c in range(2 * len(names))}

    def inverse(letters: str) -> str:
        return letters[::-1].translate(swap)

    words = [_to_letters(r, col) for r in relators]
    rewrites = 0
    changed = True
    while changed and rewrites < cap:
        changed = False
        for si in range(len(words)):
            s = words[si]
            if not s:
                continue
            best = None  # (position in s, source index, variant, offset)
            doubled_s = s + s
            for ri in range(len(words)):
                if ri == si:
                    continue
                r = words[ri]
                h = len(r) // 2 + 1
                if len(r) < 2 or h > len(s):
                    continue
                for variant, base in enumerate((r, inverse(r))):
                    dd = base + base
                    for off in range(len(r)):
                        u = dd[off:off + h]
                        q = doubled_s.find(u)
                        if q < 0 or q >= len(s):
                            continue
                        key = (q, ri, variant, off)
                        if best is None or key < best:
                            best = key
            if best is None:
                continue
            q, ri, variant, off = best
            r = words[ri] if variant == 0 else inverse(words[ri])
            dd = r + r
            h = len(r) // 2 + 1
            u = dd[off:off + h]
            v = dd[off + h:off + len(r)]
            rotated = doubled_s[q:q + len(s)]
            new = inverse(v) + rotated[h:]
            w = _from_letters(new, names).cyclically_reduced()
            words[si] = _to_letters(w, col)
            rewrites += 1
            changed = True
    out = [_from_letters(wl, names) for wl in words]
    return out, rewrites


def _canonical(w: Word) -> tuple:
    """Representative of {w, w^-1} used to drop duplicate relators."""
    return min(w.syllables, w.inverse().syllables)


def _cleanup(relators: list[Word]) -> list[Word]:
    out, seen = [], set()
    for r in relators:
        r = r.cyclically_reduced()
        if r.is_identity():
            continue
        key = _canonical(r)
        if key in seen:
            continue
        seen.add(key)
        out.append(r)
    return out


def _find_candidate(relators: list[Word], gen_index: dict[str, int]):
    """Best (relator position, syllable position) where a generator occurs
    exactly once with exponent +-1, so the relator defines it.

    Candidates are ranked by the worst-case total length the substitution can
    add, (len(r) - 1) * (occurrences of g outside r), so cheap eliminations
    (length <= 2 defining relators cost 0 growth per site) go first; ties
    break by relator length, then generator index, for determinism.
    """
    best = None
    best_key = None
    occurrences: dict[str, int] = {}
    for r in relators:
        for name, exp in r.syllables:
            occurrences[name] = occurrences.get(name, 0) + abs(exp)
    for ri, r in enumerate(relators):
        counts: dict[str, int] = {}
        for name, _ in r.syllables:
            counts[name] = counts.get(name, 0) + 1
        for pos, (name, exp) in enumerate(r.syllables):
            if abs(exp) == 1 and counts[name] == 1:
                cost = (r.length - 1) * (occurrences[name] - 1)
                key = (cost, r.length, gen_index[name], ri, pos)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (ri, pos)
    return best


def tietze_simplify(presentation: Presentation, budget: int = 100_000) -> TietzeResult:
    """Simplify a presentation by generator elimination plus relator shortening.

    A relator x g^e y with e = +-1 and no other g lets us solve for g and
    substitute everywhere, dropping both g and the relator; generators with a
    length <= 2 defining relator go first, then longer ones, ordered by
    generator index.  Between eliminations, relators are shortened against
    each other (see _shorten_pass), cyclically reduced and deduplicated.
    `budget` caps the total number of eliminations plus rewrites; on
    exhaustion the best presentation so far is returned with completed=False.
    """
    gens = list(presentation.generators)
    gen_index = {n: i for i, n in enumerate(presentation.generators)}
    relators = _cleanup(list(presentation.relators))
    log: list[tuple[str, Word, Word]] = []
    steps = 0
    completed = True
    while True:
        relators, rewrites = _shorten_pass(relators, gens, cap=max(0, budget - steps))
        steps += rewrites
        relators = _cleanup(relators)
        cand = _find_candidate(relators, gen_index)
        if cand is None:
            break
        if steps >= budget:
            completed = False
            break
        ri, pos = cand
        r = relators[ri]
        name, exp = r.syllables[pos]
        before = Word(r.syllables[:pos])
        after = Word(r.syllables[pos + 1:])
        # r = before * g^e * after = 1  solves to the replacement below.
        if exp == 1:
            replacement = before.inverse() * after.inverse()
        else:
            replacement = after * before
        del relators[ri]
        relators = _cleanup([w.substitute(name, replacement) for w in relators])
        gens.remove(name)
        log.append((name, r, replacement))
        steps += 1
    return TietzeResult(Presentation(gens, relators), tuple(log), steps, completed)
