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


def _source_windows(r: str, inverse) -> tuple[int, dict[str, int]]:
    """(h, windows) for a source relator r, h = |r|//2 + 1.

    The dict maps each length-h window of a rotation of r or of r^-1 to the
    least rotation that starts with it: rotation i < |r| is r rotated left by
    i, rotation |r| + i is r^-1 rotated left by i.  A relator shorter than 2
    offers no window.
    """
    h = len(r) // 2 + 1
    if len(r) < 2:
        return h, {}
    dd, ii = r + r, inverse(r) * 2
    starts = [dd[i:i + h] for i in range(len(r))] + [ii[i:i + h] for i in range(len(r))]
    # Built back to front, so the least rotation of a window wins.
    return h, {u: i for i, u in reversed(list(enumerate(starts)))}


def _shorten_pass(
    words: list[str], inverse, cap: int, clean: set[str],
    windows: dict[str, tuple[int, dict[str, int]]],
) -> tuple[int, bool]:
    """Shorten relators against each other, in place.

    If some cyclic rotation of a relator (or its inverse) splits as u*v with
    |u| > |v| and u occurs in another relator, that occurrence may be replaced
    by v^-1, strictly shortening it.  This is a Tietze move (multiply by a
    conjugate of the relator) and is what unlocks eliminations the plain
    substitution pass cannot see.  Returns (rewrites, finished); finished is
    False when a rewrite was due after `cap` rewrites had been made.

    Sweeps run over the targets in order and rewrite each target once, at
    the least (position in target, source index, rotation) among all
    occurrences; they repeat until a sweep rewrites nothing.  A source r
    offers the windows of `_source_windows` (cached in `windows`, keyed by
    string); the target s offers, per window length h, each window of s+s
    starting below |s|, with its first start.  An occurrence at q >= |s|
    has a twin at q - |s|, so the pair hits exactly when the two key sets
    intersect, and the least common window gives the pair's best rewrite.

    Scanning a (target, source) pair reads only those two strings.  So a
    target whose scan found nothing is marked with the length of the log of
    rewritten indices, and later sweeps rescan it only against the indices
    logged since; a rewrite of the target drops its mark.  No two strings in
    `clean` shorten each other, so the log starts with the other indices and
    a clean target starts marked at 0.  Those seeded entries count neither
    as rewrites nor towards `cap`.  The caller keeps `windows` across
    passes; each pass first prunes it to the current relators.
    """
    live = set(words)
    for r in list(windows):
        if r not in live:
            del windows[r]
    rewritten = [i for i, s in enumerate(words) if s not in clean]
    seeded = len(rewritten)
    # Target index -> len(rewritten) at its last miss.
    marks = {i: 0 for i, s in enumerate(words) if s in clean}
    changed = True
    while changed:
        changed = False
        for si in range(len(words)):
            s = words[si]
            if not s:
                continue
            mark = marks.get(si)
            if mark is None:
                sources = range(len(words))
            elif mark == len(rewritten):
                continue
            else:
                sources = set(rewritten[mark:])
            best = None  # (position in s, source index, source rotation)
            n = len(s)
            doubled_s = s + s
            by_h: dict[int, dict[str, int]] = {}
            for ri in sources:
                if ri == si:
                    continue
                r = words[ri]
                source = windows.get(r)
                if source is None:
                    source = windows[r] = _source_windows(r, inverse)
                h, wr = source
                if h > n:
                    continue
                ws = by_h.get(h)
                if ws is None:
                    ws = by_h[h] = {
                        doubled_s[q:q + h]: q for q in range(n - 1, -1, -1)
                    }
                common = wr.keys() & ws.keys()
                if not common:
                    continue
                key = min((ws[u], ri, wr[u]) for u in common)
                if best is None or key < best:
                    best = key
            if best is None:
                marks[si] = len(rewritten)
                continue
            if len(rewritten) - seeded >= cap:
                return len(rewritten) - seeded, False
            q, ri, rotation = best
            variant, off = divmod(rotation, len(words[ri]))
            r = inverse(words[ri]) if variant else words[ri]
            dd = r + r
            h = len(r) // 2 + 1
            v = dd[off + h:off + len(r)]
            words[si] = _reduced(inverse(v) + doubled_s[q + h:q + n])
            if s not in words:  # s is gone: keep its windows off the peak
                windows.pop(s, None)
            marks.pop(si, None)
            rewritten.append(si)
            changed = True
    return len(rewritten) - seeded, True


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

    A shortening pass that finishes ends with a sweep that rewrote nothing,
    so no two of its relators shorten each other, and deduplication only
    drops relators.  Their strings are handed to the next pass as `clean`:
    a relator that elimination leaves unchanged is scanned again only
    against the new ones (see _shorten_pass).  `windows` holds each source's
    window dict (see _source_windows), keyed by string, so a relator that
    survives a pass is not re-sliced in the next.
    """
    names = presentation.generators
    swap = {c: c ^ 1 for c in range(2 * len(names))}

    def inverse(s: str) -> str:
        return s[::-1].translate(swap)

    words = _cleanup(relator_letters(presentation), inverse)
    eliminated: list[tuple[int, str, str]] = []
    clean: set[str] = set()
    windows: dict[str, tuple[int, dict[str, int]]] = {}
    steps = 0
    while True:
        rewrites, completed = _shorten_pass(
            words, inverse, budget - steps, clean, windows
        )
        steps += rewrites
        words = _cleanup(words, inverse)
        if not completed:
            break
        clean = set(words)
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
