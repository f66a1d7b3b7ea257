"""Finite presentations and Tietze simplification by generator elimination.

This module owns the letter encoding that Tietze simplification and coset
enumeration work on: generator i is letter 2i, its inverse 2i+1, and a
relator is the str of its letters' code points (see `relator_letters`).
Inversion is a reversal plus `translate`, substitution one `translate`.
"""

from __future__ import annotations

from collections import Counter
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


def _reduced(letters: str) -> str:
    """Free and then cyclic reduction of a letter string."""
    out: list[str] = []
    for c in letters:
        if out and ord(out[-1]) == ord(c) ^ 1:
            out.pop()
        else:
            out.append(c)
    i, j = 0, len(out) - 1
    while i < j and ord(out[i]) == ord(out[j]) ^ 1:
        i, j = i + 1, j - 1
    return "".join(out[i:j + 1])


def relator_letters(presentation: Presentation) -> list[str]:
    """The relators as freely and cyclically reduced letter strings, in order."""
    col = {name: 2 * i for i, name in enumerate(presentation.generators)}
    return [
        _reduced("".join(
            chr(col[name] + (0 if exp > 0 else 1)) * abs(exp) for name, exp in r.syllables
        ))
        for r in presentation.relators
    ]


def _from_letters(letters: str, names: tuple[str, ...]) -> Word:
    return Word((names[ord(c) >> 1], 1 if ord(c) % 2 == 0 else -1) for c in letters)


def _shorten_pass(
    words: list[str], inverse, cap: int, misses: dict[str, set[str]]
) -> tuple[int, bool]:
    """Shorten relators against each other, in place.

    If some cyclic rotation of a relator (or its inverse) splits as u*v with
    |u| > |v| and u occurs in another relator, that occurrence may be replaced
    by v^-1, strictly shortening it.  This is a Tietze move (multiply by a
    conjugate of the relator) and is what unlocks eliminations the plain
    substitution pass cannot see.  Returns (rewrites, finished); finished is
    False when a rewrite was due after `cap` rewrites had been made.

    `misses` maps a target relator to the source relators whose scan against
    it found no occurrence.  Scanning a (target, source) pair reads only
    those two strings, so a recorded miss stays a miss for as long as both
    strings are relators, and the pair is skipped.  The caller keeps the
    dict across passes; each pass first prunes it to the current relators.
    """
    live = set(words)
    for s in list(misses):
        if s in live:
            misses[s] &= live
        else:
            del misses[s]
    rewrites = 0
    changed = True
    while changed:
        changed = False
        for si in range(len(words)):
            s = words[si]
            if not s:
                continue
            best = None  # (position in s, source index, variant, offset)
            doubled_s = s + s
            known = misses.setdefault(s, set())
            for ri in range(len(words)):
                if ri == si:
                    continue
                r = words[ri]
                h = len(r) // 2 + 1
                if len(r) < 2 or h > len(s) or r in known:
                    continue
                hit = False
                for variant, base in enumerate((r, inverse(r))):
                    dd = base + base
                    for off in range(len(r)):
                        u = dd[off:off + h]
                        q = doubled_s.find(u)
                        if q < 0 or q >= len(s):
                            continue
                        hit = True
                        key = (q, ri, variant, off)
                        if best is None or key < best:
                            best = key
                if not hit:
                    known.add(r)
            if best is None:
                continue
            if rewrites >= cap:
                return rewrites, False
            q, ri, variant, off = best
            r = words[ri] if variant == 0 else inverse(words[ri])
            dd = r + r
            h = len(r) // 2 + 1
            v = dd[off + h:off + len(r)]
            rotated = doubled_s[q:q + len(s)]
            words[si] = _reduced(inverse(v) + rotated[h:])
            rewrites += 1
            changed = True
    return rewrites, True


def _cleanup(words: list[str], inverse) -> list[str]:
    """Drop empty relators and repeats of a relator or of its inverse."""
    out, seen = [], set()
    for s in words:
        key = min(s, inverse(s))
        if s and key not in seen:
            seen.add(key)
            out.append(s)
    return out


def _find_candidate(words: list[str]):
    """Best (relator position, letter position) whose generator occurs
    exactly once in that relator, so the relator defines it.

    Candidates are ranked by the worst-case total length the substitution can
    add, (len(r) - 1) * (occurrences of g outside r), so cheap eliminations
    (length <= 2 defining relators cost 0 growth per site) go first; ties
    break by relator length, then generator index, for determinism.
    """
    best = None
    best_key = None
    occurrences = Counter(ord(c) >> 1 for s in words for c in s)
    for ri, s in enumerate(words):
        counts = Counter(ord(c) >> 1 for c in s)
        for pos, c in enumerate(s):
            g = ord(c) >> 1
            if counts[g] == 1:
                key = ((len(s) - 1) * (occurrences[g] - 1), len(s), g, ri)
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
    each other (see _shorten_pass) and deduplicated.  `budget` caps the total
    number of eliminations plus rewrites; when it stops one, the presentation
    reached so far is returned with completed=False.

    One `misses` dict serves every shortening pass of the call: it records,
    per target relator, the sources already shown not to occur in it, so a
    pass rescans only pairs in which a string is new since that scan.
    """
    names = presentation.generators
    swap = {c: c ^ 1 for c in range(2 * len(names))}

    def inverse(s: str) -> str:
        return s[::-1].translate(swap)

    words = _cleanup(relator_letters(presentation), inverse)
    eliminated: list[tuple[int, str, str]] = []
    misses: dict[str, set[str]] = {}
    steps = 0
    while True:
        rewrites, completed = _shorten_pass(words, inverse, budget - steps, misses)
        steps += rewrites
        words = _cleanup(words, inverse)
        if not completed:
            break
        cand = _find_candidate(words)
        if cand is None:
            break
        if steps >= budget:
            completed = False
            break
        ri, pos = cand
        s = words.pop(ri)
        letter = ord(s[pos])
        g = letter >> 1
        # s = before * g^e * after = 1 solves to g^-e = after * before.
        replacement = s[pos + 1:] + s[:pos]
        if letter == 2 * g:  # e = +1
            replacement = inverse(replacement)
        table = {2 * g: replacement, 2 * g + 1: inverse(replacement)}
        words = _cleanup([_reduced(w.translate(table)) for w in words], inverse)
        eliminated.append((g, s, replacement))
        steps += 1
    gone = {g for g, _, _ in eliminated}
    return TietzeResult(
        Presentation(
            [name for i, name in enumerate(names) if i not in gone],
            [_from_letters(w, names) for w in words],
        ),
        tuple(
            (names[g], _from_letters(s, names), _from_letters(rep, names))
            for g, s, rep in eliminated
        ),
        steps,
        completed,
    )
