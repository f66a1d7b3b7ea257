"""Todd-Coxeter coset enumeration over the trivial subgroup.

HLT-style relator tracing (Haselgrove-Leech-Trotter: define cosets to close
every relator scan) with one lookahead pass each time the table fills, as
presented in Holt, "Handbook of Computational Group Theory", section 5.2.
Table columns are the letters of `presentations.relator_letters`: generator
i is column 2i and its inverse 2i+1.  Coincidences are handled by union-find
with path compression, keeping the smallest coset id as survivor.

Coset ids are permanent: a coset keeps the id it was defined with for the
whole enumeration, and a dead coset's row is freed (set to None) as soon as
its coincidence has drained it.  That is safe because the table keeps
table[a][x] = b exactly when table[b][x^1] = a, so every pointer to a dead
coset g is matched by an entry of g's row; draining the row clears those
pointers, and once `coincidence` returns no row points at a dead coset.

A lookahead pass skips the trace of relator w (length >= 2) at coset a when
both a.w[0] and a.w[-1]^-1 are undefined: the forward trace then stops at
letter 0 and the backward trace at letter len(w)-1, leaving a gap of two or
more letters, so the trace could neither close, deduce nor coincide.  The
test is made at trace time, because a coincidence from an earlier relator
can fill the row of a.  Skipping changes no table entry, so results and
counters are those of tracing every relator.

A lookahead pass also skips every coset below the HLT pointer `ptr`.  Each
live one has been scanned closed by HLT: every relator traces from it back
to it.  A closed trace stays closed through coincidences, because an edge
c -> d always survives as rep(c) -> rep(d), so tracing it again would
define, deduce and merge nothing.

Hitting the coset limit is an outcome, not an error: callers receive
LimitExceeded and decide what to do.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .presentations import Presentation, relator_letters

DEFAULT_LIMIT = 1_000_000


@dataclass(frozen=True)
class Completed:
    index: int


@dataclass(frozen=True)
class LimitExceeded:
    cosets_used: int


@dataclass(frozen=True)
class EnumerationStats:
    definitions: int
    coincidences: int
    max_live: int
    lookahead_passes: int


@dataclass(frozen=True)
class EnumerationOutcome:
    result: Completed | LimitExceeded
    stats: EnumerationStats

    @property
    def completed(self) -> bool:
        return isinstance(self.result, Completed)

    @property
    def index(self) -> int | None:
        return self.result.index if isinstance(self.result, Completed) else None


class _Overflow(Exception):
    pass


class _Enumerator:
    def __init__(self, presentation: Presentation, limit: int):
        self.ncols = 2 * len(presentation.generators)
        # Cyclically reduced relators as column tuples, duplicates and empty
        # relators (whose trace closes at once) dropped, each paired with its
        # inverse columns for tracing backwards.
        self.relators = [
            (w, tuple(x ^ 1 for x in w))
            for w in dict.fromkeys(tuple(map(ord, s)) for s in relator_letters(presentation) if s)
        ]
        self.limit = limit
        self.table: list[list[int | None]] = [[None] * self.ncols]
        self.p = [0]
        self.live = 1
        self.definitions = 0
        self.coincidences = 0
        self.max_live = 1
        self.lookahead_passes = 0

    def define(self, a: int, x: int):
        if self.live >= self.limit:
            raise _Overflow
        b = len(self.table)
        self.table.append([None] * self.ncols)
        self.p.append(b)
        self.live += 1
        self.definitions += 1
        self.max_live = max(self.max_live, self.live)
        self.table[a][x] = b
        self.table[b][x ^ 1] = a

    def coincidence(self, a: int, b: int):
        """Merge cosets a and b and every coincidence that follows.  A merge
        queues the larger root; draining a queued coset's row moves each of
        its edges onto the survivors, queueing further merges."""
        table, p = self.table, self.p

        def rep(k: int) -> int:
            l = k
            while p[l] != l:
                l = p[l]
            while p[k] != l:
                p[k], k = l, p[k]
            return l

        if p[a] != a:
            a = rep(a)
        if p[b] != b:
            b = rep(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        p[b] = a
        q = deque((b,))
        killed = 0
        while q:
            g = q.popleft()
            killed += 1
            row = table[g]
            mu = p[g]
            for x, d in enumerate(row):
                if d is None:
                    continue
                y = x ^ 1
                table[d][y] = None
                if p[mu] != mu:
                    mu = rep(mu)
                nu = d if p[d] == d else rep(d)
                e = table[mu][x]
                if e is not None:
                    # merge nu with mu.x
                    k = nu
                elif (e := table[nu][y]) is not None:
                    # merge mu with nu.x^-1
                    k = mu
                else:
                    table[mu][x] = nu
                    table[nu][y] = mu
                    continue
                if p[e] != e:
                    e = rep(e)
                if e != k:
                    if e < k:
                        k, e = e, k
                    p[e] = k
                    q.append(e)
            table[g] = None
        self.live -= killed
        self.coincidences += killed

    def scan(self, a: int, w: tuple[int, ...], inv: tuple[int, ...]):
        """Trace relator w at coset a, defining cosets to close the scan."""
        table, p = self.table, self.p
        f, i = a, 0
        b, j = a, len(w) - 1
        while True:
            while i <= j and (e := table[f][w[i]]) is not None:
                f, i = e, i + 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and (e := table[b][inv[j]]) is not None:
                b, j = e, j - 1
            if j < i:
                if f != b:
                    self.coincidence(f, b)
                return
            if i == j:
                table[f][w[i]] = b
                table[b][inv[i]] = f
                return
            # Define f.w[i], as `define` does, and step onto it.
            live = self.live
            if live >= self.limit:
                raise _Overflow
            e = len(table)
            row = [None] * self.ncols
            row[inv[i]] = f
            table.append(row)
            p.append(e)
            table[f][w[i]] = e
            self.live = live = live + 1
            self.definitions += 1
            if live > self.max_live:
                self.max_live = live
            f, i = e, i + 1

    def _lookahead(self, start: int) -> bool:
        """Trace every relator at every live coset from `start` on without
        defining, hoping coincidences free enough room to continue.  Returns
        whether the table has room for another coset.

        Cosets below `start` are skipped: HLT has scanned each of them
        closed, and a closed trace stays closed through coincidences, so
        tracing there would change nothing.

        The trace is inlined and skips relator w at coset a when w has two or
        more letters and a.w[0] and a.w[-1]^-1 are both undefined: the
        forward trace would stop at i = 0 and the backward one at
        j = len(w) - 1 > i, so it could not close, deduce or coincide.  The
        rule is tested per trace, since an earlier relator's coincidence can
        fill row a.  Traces, deductions and coincidences happen in the same
        order as when every relator is traced at every coset."""
        self.lookahead_passes += 1
        table, p = self.table, self.p
        relators = [(w, inv, w[0], inv[-1], len(w) - 1) for w, inv in self.relators]
        for a in range(start, len(table)):
            row = table[a]
            if row is None:
                continue
            for w, inv, first, last, end in relators:
                if end and row[first] is None and row[last] is None:
                    continue
                f, i = a, 0
                b, j = a, end
                while i <= j and (e := table[f][w[i]]) is not None:
                    f, i = e, i + 1
                while j >= i and (e := table[b][inv[j]]) is not None:
                    b, j = e, j - 1
                if i == j:
                    table[f][w[i]] = b
                    table[b][inv[i]] = f
                elif j < i and f != b:
                    self.coincidence(f, b)
                    if p[a] != a:
                        break
        return self.live < self.limit

    def run(self) -> Completed | LimitExceeded:
        p = self.p
        ptr = 0
        while ptr < len(self.table):
            if p[ptr] != ptr:
                ptr += 1
                continue
            try:
                for w, inv in self.relators:
                    self.scan(ptr, w, inv)
                    if p[ptr] != ptr:
                        break
                else:
                    for x in range(self.ncols):
                        if self.table[ptr][x] is None:
                            self.define(ptr, x)
                ptr += 1
            except _Overflow:
                # Cosets below ptr are fully traced and ids never change, so
                # resume at ptr (rescanning a survivor is harmless), and the
                # lookahead need not trace below it.
                if not self._lookahead(ptr):
                    return LimitExceeded(self.live)
        return Completed(self.live)


def enumerate_cosets(
    presentation: Presentation, limit: int = DEFAULT_LIMIT
) -> EnumerationOutcome:
    """Enumerate cosets of the trivial subgroup.

    Completed(index) proves the presented group has order `index`.  The
    enumeration completes in bounded time for finite groups given a large
    enough limit; for infinite groups it always returns LimitExceeded.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    enum = _Enumerator(presentation, limit)
    result = enum.run()
    stats = EnumerationStats(
        definitions=enum.definitions,
        coincidences=enum.coincidences,
        max_live=enum.max_live,
        lookahead_passes=enum.lookahead_passes,
    )
    return EnumerationOutcome(result, stats)
