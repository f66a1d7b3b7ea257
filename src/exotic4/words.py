"""Words in a free group, stored as run-length encoded syllables.

A word is a tuple of (generator name, nonzero exponent) pairs with no two
adjacent pairs sharing a name, so every group element has exactly one
representation and equality is tuple equality.

`Word(...)` validates its syllables and fully reduces them.  Arithmetic on
words that are already reduced does less: a product reduces only where the
two words meet, since no other part of either can cancel, and the inverse
of a reduced word is reduced as it stands.
"""

from __future__ import annotations

import re
from typing import Iterable


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# The most letters a relator may have.  A power of a word of two or more
# syllables is refused before it is built past this, and a custom relation
# past it is a spec error.  Family relators have at most a few dozen letters.
MAX_RELATOR_LENGTH = 1_000_000


def _reduce(syllables: Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    # Stack-based free reduction: merging two runs can expose a new
    # cancellation with the run below, so popping must cascade.
    out: list[list] = []
    for name, exp in syllables:
        if not isinstance(exp, int):
            raise TypeError(f"exponent must be an integer, got {exp!r}")
        if exp == 0:
            continue
        if out and out[-1][0] == name:
            out[-1][1] += exp
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([name, exp])
    return tuple((name, exp) for name, exp in out)


class Word:
    """A freely reduced word. Immutable and hashable.

    `Word(syllables)` checks that every exponent is an integer and reduces
    freely.  A product `u * v` cancels or merges only the syllables where u
    ends and v begins, and `inverse()` reverses and negates without
    reducing again.
    """

    __slots__ = ("syllables",)

    def __init__(self, syllables: Iterable[tuple[str, int]] = ()):
        object.__setattr__(self, "syllables", _reduce(syllables))

    @classmethod
    def _of(cls, syllables: tuple[tuple[str, int], ...]) -> "Word":
        """The word of a syllable tuple that is already freely reduced,
        taken as it is."""
        word = object.__new__(cls)
        object.__setattr__(word, "syllables", syllables)
        return word

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        # Rebuild through __init__: the default slot restore would go
        # through __setattr__, which refuses.
        return (Word, (self.syllables,))

    @property
    def length(self) -> int:
        """Number of letters, counting multiplicity."""
        return sum(abs(e) for _, e in self.syllables)

    def is_identity(self) -> bool:
        return not self.syllables

    def symbols(self) -> set[str]:
        return {name for name, _ in self.syllables}

    def __mul__(self, other: "Word") -> "Word":
        left, right = self.syllables, other.syllables
        # Both sides are reduced, so only the junction can cancel: step past
        # syllable pairs that cancel outright, and stop at the first pair
        # that merges to a nonzero exponent or has two names.
        i, j = len(left), 0
        while i and j < len(right) and left[i - 1][0] == right[j][0]:
            exp = left[i - 1][1] + right[j][1]
            if exp:
                return Word._of(left[:i - 1] + ((right[j][0], exp),) + right[j + 1:])
            i, j = i - 1, j + 1
        return Word._of(left[:i] + right[j:])

    def inverse(self) -> "Word":
        return Word._of(tuple((name, -exp) for name, exp in reversed(self.syllables)))

    def __pow__(self, n: int) -> "Word":
        if len(self.syllables) == 1:
            # One run: scale its exponent rather than repeat it |n| times.
            ((name, exp),) = self.syllables
            return Word(((name, exp * n),))
        if n == 0:
            return Word()
        length = self.length * abs(n)
        if length > MAX_RELATOR_LENGTH:
            raise ValueError(
                f"a power of {length} letters is longer than the {MAX_RELATOR_LENGTH} allowed"
            )
        base = self if n > 0 else self.inverse()
        return Word(base.syllables * abs(n))

    def substitute(self, name: str, replacement: "Word") -> "Word":
        """Replace every occurrence of generator `name` by `replacement`."""
        parts: list[tuple[str, int]] = []
        for sym, exp in self.syllables:
            if sym == name:
                parts.extend((replacement ** exp).syllables)
            else:
                parts.append((sym, exp))
        return Word(parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.syllables == other.syllables

    def __hash__(self) -> int:
        return hash(self.syllables)

    def __repr__(self) -> str:
        return f"Word({self})"

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        return "*".join(
            name if exp == 1 else f"{name}^{exp}" for name, exp in self.syllables
        )


def gen(name: str) -> Word:
    if not _NAME_RE.fullmatch(name):
        raise ValueError(f"invalid generator name {name!r}")
    return Word(((name, 1),))


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u^-1 v^-1 u v.  This convention is fixed everywhere."""
    return u.inverse() * v.inverse() * u * v


def relator(lhs: Word, rhs: Word = Word()) -> Word:
    """Normalize the relation lhs = rhs to the relator lhs * rhs^-1."""
    return lhs * rhs.inverse()


class WordSyntaxError(ValueError):
    """Parse failure with the 0-based offset of the offending character."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (column {pos + 1})")
        self.pos = pos


class _Parser:
    """Recursive descent for the word syntax.

    relation := word ("=" word)?
    word     := atom ("*" atom)*
    atom     := factor ("^" int)?
    factor   := name | "1" | "[" word "," word "]" | "(" word ")"
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch: str):
        if self._peek() != ch:
            raise WordSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def _int(self) -> int:
        self._skip_ws()
        start = self.pos
        if self._peek() == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise WordSyntaxError("expected an integer exponent", start)
        return int(self.text[start:self.pos])

    def _factor(self) -> Word:
        ch = self._peek()
        if ch == "[":
            self.pos += 1
            u = self._word()
            self._expect(",")
            v = self._word()
            self._expect("]")
            return commutator(u, v)
        if ch == "(":
            self.pos += 1
            w = self._word()
            self._expect(")")
            return w
        m = _NAME_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return gen(m.group())
        if ch == "1":
            self.pos += 1
            return Word()
        raise WordSyntaxError("expected a generator, '[', '(' or '1'", self.pos)

    def _atom(self) -> Word:
        w = self._factor()
        if self._peek() == "^":
            self.pos += 1
            return w ** self._int()
        return w

    def _word(self) -> Word:
        w = self._atom()
        while self._peek() == "*":
            self.pos += 1
            w = w * self._atom()
        return w

    def parse_relation(self) -> Word:
        self._skip_ws()
        lhs = self._word()
        if self._peek() == "=":
            self.pos += 1
            rhs = self._word()
        else:
            rhs = Word()
        self._skip_ws()
        if self.pos != len(self.text):
            raise WordSyntaxError("trailing input after relation", self.pos)
        return relator(lhs, rhs)


def parse_relation(text: str) -> Word:
    """Parse `u = v` (or a bare word meaning u = 1) into a relator."""
    return _Parser(text).parse_relation()
