"""Finite presentations and Tietze simplification by generator elimination.

Simplification only eliminates generators that a relator defines; it never
shortens one relator by another.  A round counts the letters of all
relators once, and rewrites only the relators that hold the eliminated
generator.  Its result is evidence for the report (the generators left and
the eliminations made); no verdict reads it.

This module owns the letter encoding that Tietze simplification and coset
enumeration work on: generator i is letter 2i, its inverse 2i+1, and a
word is the str of its letters' code points (see `word_letters`).
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
        for i, r in enumerate(self.relators):
            if r == rel:
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

    @property
    def steps(self) -> int:
        """Tietze moves made: one per elimination."""
        return len(self.eliminations)


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


def word_letters(word: Word, generators: tuple[str, ...]) -> str:
    """The letter string of a word over `generators`: freely reduced, like
    every Word, but not cyclically."""
    col = {name: 2 * i for i, name in enumerate(generators)}
    return "".join(chr(col[name] + (exp < 0)) * abs(exp) for name, exp in word.syllables)


def relator_letters(presentation: Presentation) -> list[str]:
    """The relators as freely and cyclically reduced letter strings, in order."""
    return [_reduced(word_letters(r, presentation.generators)) for r in presentation.relators]


def _from_letters(letters: str, names: tuple[str, ...]) -> Word:
    """The Word of a freely reduced letter string over `names`.  A run of
    one letter becomes one syllable, and nothing can cancel, so the word is
    built as it stands."""
    out: list[tuple[str, int]] = []
    prev = None
    for c in letters:
        if c == prev:
            name, exp = out[-1]
            out[-1] = (name, exp + 1 if exp > 0 else exp - 1)
        else:
            out.append((names[ord(c) >> 1], -1 if ord(c) & 1 else 1))
            prev = c
    return Word._of(tuple(out))


def _cleanup(words: list[str], canonical) -> list[str]:
    """Drop empty relators and repeats of a relator or of its inverse.

    `canonical[s]` is the lesser of s and its inverse, one key for both."""
    out, seen = [], set()
    for s in words:
        key = canonical[s]
        if s and key not in seen:
            seen.add(key)
            out.append(s)
    return out


class _Memo(dict):
    """A dict that fills a missing key with `build(key)`."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def _defined(s: str) -> tuple[tuple[int, int], ...]:
    """(generator, position) for each generator that occurs exactly once in
    `s`, in either sign: the generators the relator `s` defines."""
    counts = Counter(s)
    return tuple(
        (ord(c) >> 1, s.index(c))
        for c, n in counts.items()
        if n == 1 and chr(ord(c) ^ 1) not in counts
    )


def _find_candidate(words: list[str], defined=None):
    """Best (relator position, letter position) whose generator occurs
    exactly once in that relator, so the relator defines it.

    Candidates are ranked by the worst-case total length the substitution can
    add, (len(r) - 1) * (occurrences of g outside r), so cheap eliminations
    (length <= 2 defining relators cost 0 growth per site) go first; ties
    break by relator length, then generator index, for determinism.
    `defined` memoizes `_defined` per relator string across calls.
    """
    if defined is None:
        defined = _Memo(_defined)
    occurrences = Counter()
    for c, n in Counter("".join(words)).items():
        occurrences[ord(c) >> 1] += n
    best = None
    best_key = None
    for ri, s in enumerate(words):
        for g, pos in defined[s]:
            key = ((len(s) - 1) * (occurrences[g] - 1), len(s), g, ri)
            if best_key is None or key < best_key:
                best_key = key
                best = (ri, pos)
    return best


def tietze_simplify(presentation: Presentation) -> TietzeResult:
    """Simplify a presentation by generator elimination, and nothing else.

    A relator x g^e y with e = +-1 and no other g lets us solve for g and
    substitute everywhere, dropping both g and the relator.  Each round
    takes the cheapest such relator (see _find_candidate), substitutes it
    into the relators that hold g and reduces those, and then drops empty
    and repeated relators (see _cleanup).  Rounds repeat until no relator
    defines a generator; each one removes a generator, so there are at
    most as many rounds as generators.  Relators are never rewritten by one
    another.  A round counts the letters of all relators once, and finds
    the generators a relator defines (see _defined), and the key under
    which _cleanup spots a repeat, only for a relator string it has not
    seen, so a relator without g costs no rewrite and no rescan.  Each
    round takes time linear in the relators' length.
    """
    names = presentation.generators
    swap = {c: c ^ 1 for c in range(2 * len(names))}

    def inverse(s: str) -> str:
        return s[::-1].translate(swap)

    canonical = _Memo(lambda s: min(s, inverse(s)))
    words = _cleanup(relator_letters(presentation), canonical)
    defined = _Memo(_defined)
    eliminated: list[tuple[int, str, str]] = []
    while (cand := _find_candidate(words, defined)) is not None:
        ri, pos = cand
        s = words.pop(ri)
        letter = ord(s[pos])
        g = letter >> 1
        # s = before * g^e * after = 1 solves to g^-e = after * before.
        replacement = s[pos + 1:] + s[:pos]
        if letter == 2 * g:  # e = +1
            replacement = inverse(replacement)
        table = {2 * g: replacement, 2 * g + 1: inverse(replacement)}
        plus, minus = chr(2 * g), chr(2 * g + 1)
        # A relator without g is already freely and cyclically reduced.
        words = _cleanup(
            [_reduced(w.translate(table)) if plus in w or minus in w else w for w in words],
            canonical,
        )
        eliminated.append((g, s, replacement))
    gone = {g for g, _, _ in eliminated}
    # _from_letters needs freely reduced strings: each relator is one, and a
    # replacement is the rest of a cyclically reduced relator read from the
    # letter after g (or that rest's inverse), which is one too.
    return TietzeResult(
        Presentation(
            [name for i, name in enumerate(names) if i not in gone],
            [_from_letters(w, names) for w in words],
        ),
        tuple(
            (names[g], _from_letters(s, names), _from_letters(rep, names))
            for g, s, rep in eliminated
        ),
    )
