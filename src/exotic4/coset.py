"""Todd-Coxeter coset enumeration over a subgroup given by words.

HLT-style relator tracing (Haselgrove-Leech-Trotter: define cosets to close
every relator scan) that processes the deductions of its scans, with a
lookahead pass each time the live count reaches a soft ceiling, as presented
in Holt, "Handbook of Computational Group Theory", sections 5.2 and 5.3, and
in the ACE enumerator of Havas and Ramsay.
Table columns are the letters of `presentations.word_letters`: generator
i is column 2i and its inverse 2i+1.  Coincidences are handled by union-find
with path compression, keeping the smallest coset id as survivor.

The subgroup is the trivial one unless words are given.  Each subgroup word
is scanned at coset 0, with definitions, before any relator is.  Coset 0
always survives a coincidence (the smallest id does), and a closed trace
stays closed through coincidences, so one scan is enough.

Coset ids are permanent: a coset keeps the id it was defined with for the
whole enumeration, and a dead coset's row is freed (set to None) as soon as
its coincidence has drained it.  That is safe because the table keeps
table[a][x] = b exactly when table[b][x^1] = a, so every pointer to a dead
coset g is matched by an entry of g's row; draining the row clears those
pointers, and once `coincidence` returns no row points at a dead coset.  So
outside `coincidence` a coset c is dead exactly when table[c] is None, and
the union-find parents `p` are `coincidence`'s own bookkeeping.  Only
`define` creates a coset.

Each coset id c also has a column mask, mask[c]: bit x is set whenever
table[c][x] is defined, and bits are never cleared, so a mask is a superset
of the defined columns.  Every write of a table entry sets its bit:
`define`, deductions in `scan`, `deduce` and lookahead, merges in
`coincidence`.  A coincidence can clear an entry of a live row for a moment
and refill it later; a stale bit is harmless, because every reader of a
mask still reads the entry itself and skips None.  A coincidence drains a
dead row over its mask's columns only: that walk meets the same entries in
the same order as one over the whole row, because a row being drained only
loses entries (see `coincidence`).  Masks live in an array("I") up to 32
columns, an array("Q") up to 64, and a list of Python ints beyond; all three
go through the same code.

When a scan closes a relator with a one-letter gap, the entry it fills is
queued, and after each scan `deduce` drains the queue.  For each queued
entry a.x whose coset is still live, it traces at a, without defining, every
cyclic conjugate of every relator and of every relator's inverse that starts
with x.  A one-letter gap is filled and queued in turn; a closed trace that
meets two cosets is a coincidence, whose merges queue every entry they
write.  These are the operations of a lookahead trace, so every entry filled
is forced by a relator and every merge is a real coincidence; and
`Completed` still needs HLT to scan every live coset closed, so deductions
change how soon a table collapses, not what a result proves.  Every relator
cycle through an edge, in either direction, is one of those conjugates read
from the edge's start, and every entry a trace can newly meet while the
queue drains is queued too.  So when `deduce` returns, every conjugate
through an entry it traced at a live coset closes there or leaves a gap of
two or more letters.  Coincidences found by `scan` and lookahead queue
nothing; the entry a.x of a queued live coset is defined, because a
coincidence refills every entry of a survivor that it clears.

A lookahead pass skips the trace of relator w (length >= 2) at coset a when
both a.w[0] and a.w[-1]^-1 are undefined: the forward trace then stops at
letter 0 and the backward trace at letter len(w)-1, leaving a gap of two or
more letters, so the trace could neither close, deduce nor coincide.  It
finds the relators left to trace from mask[a], through a memo from a mask
to the relators with length 1 or with the bit of w[0] or of w[-1]^-1 set;
a stale bit only lets through a trace that then stops at once.  A
coincidence or deduction can fill row a, so the mask is read again after
either.  Skipping changes no table entry, so results and counters are those
of tracing every relator.

A lookahead pass also skips every coset below the HLT pointer `ptr`.  Each
live one has been scanned closed by HLT: every relator traces from it back
to it.  A closed trace stays closed through coincidences, because an edge
c -> d always survives as rep(c) -> rep(d), so tracing it again would
define, deduce and merge nothing.

The soft ceiling runs lookahead long before the table reaches `limit`, so
a table that collapses does so while small.  It starts at min(limit,
SOFT_START), and after each lookahead pass it doubles, capped at `limit`,
while more than half of it is live.  Start and growth depend on counts
only, so results and counters are exact and repeatable.  The ceiling is not
an outcome: when it has reached `limit`, a pass that leaves `limit` cosets
live ends the enumeration, as a full table always did, and below `limit` a
pass always leaves room.  An enumeration whose limit is at most SOFT_START
runs with its ceiling at `limit` from the start.  Deductions make nearly
every merge before a table holds SOFT_START cosets: a pass at 10,000 freed
at most 1.2% of the live cosets in every family enumeration measured.

Hitting the coset limit is an outcome, not an error: callers receive
LimitExceeded and decide what to do.  So is hitting the work bound of
WORK_BOUND * limit definitions, which is what ends an enumeration whose
coincidences keep the live count below the limit.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass

from .presentations import Presentation, _Memo, relator_letters, word_letters
from .words import Word

DEFAULT_LIMIT = 1_000_000
# An enumeration returns LimitExceeded once it has defined WORK_BOUND times
# `limit` cosets, whatever the live count.  A completed run needs more
# definitions per unit of limit the larger its index and the nearer its limit
# to the lowest one that completes; the most measured on the family models
# is 1.79 (pi1 of order 16; 6.77 before deductions were processed), so 12
# leaves a wide margin.  The bound counts definitions, not the deduction
# traces that follow each one, so a run that churns to it spends most of its
# time in `deduce`: M(2,1) with p = 0, r = 1 at limit 100,000 takes about
# 6 s, over 4 s of it in `deduce`, and peaks at 55 MiB (2-vCPU VM, Python
# 3.11).
WORK_BOUND = 12
# The soft ceiling's start (see the module docstring).  It also sets the
# ceilings that follow: from 20,000 they are 40,000 and 80,000, and the
# M(2,2) complement collapses below 80,000, from 73,007 live cosets.
# Starting at 80,000 lets it grow to 124,514, and starting at 16,000
# (ceilings 32,000, 64,000, then 128,000) to 128,000.  Leaving out the pass
# at 10,000 moved max_live only for the M(2,1) complement, 14,738 -> 14,848.
SOFT_START = 20_000


@dataclass(frozen=True)
class Completed:
    index: int


@dataclass(frozen=True)
class LimitExceeded:
    """`cosets_used` is the live count when the enumeration stopped: the
    limit when the table was full, fewer when the work bound stopped it."""

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
    def __init__(self, presentation: Presentation, limit: int, subgroup: tuple[Word, ...] = ()):
        self.ncols = 2 * len(presentation.generators)
        # Cyclically reduced relators as column tuples, duplicates and empty
        # relators (whose trace closes at once) dropped.  Each is the record
        # (w, inv, w[0], w[-1]^-1, len(w) - 1), inv being the inverse columns
        # for tracing backwards.
        relators = self.relators = []
        for w in dict.fromkeys(tuple(map(ord, s)) for s in relator_letters(presentation) if s):
            inv = tuple(x ^ 1 for x in w)
            relators.append((w, inv, w[0], inv[-1], len(w) - 1))
        # The subgroup words in the same record shape.  They are not
        # cyclically reduced (a conjugate of a word generates another
        # subgroup), and an empty word's record closes at once.
        self.subgroup = []
        for s in (word_letters(word, presentation.generators) for word in subgroup):
            w = tuple(map(ord, s))
            self.subgroup.append((w, tuple(x ^ 1 for x in w), None, None, len(w) - 1))
        self.limit = limit
        self.soft = min(limit, SOFT_START)
        self.max_definitions = WORK_BOUND * limit
        self.table: list[list[int | None]] = [[None] * self.ncols]
        # mask[c] has bit x set whenever table[c][x] is defined (see above),
        # in the narrowest container that holds ncols bits.
        if self.ncols <= 32:
            self.mask = array("I", (0,))
        elif self.ncols <= 64:
            self.mask = array("Q", (0,))
        else:
            self.mask = [0]
        # The relators worth a lookahead trace under a mask, in relator
        # order, and a mask's columns.  The builders close over locals only:
        # a closure over self would be a reference cycle that keeps the
        # table alive until a GC run.
        self.eligible = _Memo(
            lambda m: tuple(r for r in relators if not r[4] or m >> r[2] & 1 or m >> r[3] & 1)
        )
        ncols = self.ncols
        self.columns = _Memo(lambda m: tuple(x for x in range(ncols) if m >> x & 1))
        # deducible[x] maps mask[d] << ncols | mask[a], for an edge a.x = d,
        # to the records (w, inv, len(w) - 1, w[-1]^-1) of the distinct
        # cyclic conjugates w of the relators and of their inverses that
        # start with x and are worth tracing at a (see `deduce`).
        conjugates = [{} for _ in range(ncols)]
        for w, inv, *_ in relators:
            for v in (w, inv[::-1]):
                for k in range(len(v)):
                    conjugates[v[k]].setdefault(v[k:] + v[:k])

        def deducible(words):
            records = [
                (
                    (v, tuple(y ^ 1 for y in v), len(v) - 1, v[-1] ^ 1),
                    1 << (v[1] + ncols) | 1 << (v[-1] ^ 1) if len(v) > 2 else -1,
                )
                for v in words
            ]
            return _Memo(lambda key: tuple(rec for rec, bits in records if key & bits))

        self.deducible = [deducible(words) for words in conjugates]
        # The entries (a, x) written by scan deductions and by `deduce`, not
        # yet traced by `deduce`.
        self.deductions = []
        self.p = [0]
        self.live = 1
        self.definitions = 0
        self.coincidences = 0
        self.max_live = 1
        self.lookahead_passes = 0

    def define(self, a: int, x: int) -> int:
        """Define a new coset b = a.x and return it; raise _Overflow when
        the table holds `soft` live cosets or `WORK_BOUND * limit` cosets
        have been defined."""
        live = self.live
        if live >= self.soft or self.definitions >= self.max_definitions:
            raise _Overflow
        table = self.table
        b = len(table)
        row = [None] * self.ncols
        row[x ^ 1] = a
        table.append(row)
        table[a][x] = b
        self.mask[a] |= 1 << x
        self.mask.append(1 << (x ^ 1))
        self.p.append(b)
        self.live = live = live + 1
        self.definitions += 1
        if live > self.max_live:
            self.max_live = live
        return b

    def coincidence(self, a: int, b: int, deduced: list | None = None):
        """Merge cosets a and b and every coincidence that follows.  A merge
        queues the larger root; draining a queued coset's row moves each of
        its edges onto the survivors, queueing further merges.

        The drain visits only the columns of the row's mask, in ascending
        order, and still skips None entries.  That yields the (x, d) pairs
        a walk over the whole row would: while a row is drained it can only
        lose entries (a self-loop clears the row's own inverse entry), never
        gain any, because every entry written here belongs to mu or nu, and
        both are live representatives.  A merge sets the bits of the entries
        it writes; nu's bit y is already set when nu is d, whose entry y
        pointed at the dead coset.

        When `deduced` is given, each entry mu.x = nu a merge writes is
        appended to it.

        a and b must be distinct live cosets."""
        table, p, mask, columns = self.table, self.p, self.mask, self.columns

        def rep(k: int) -> int:
            l = k
            while p[l] != l:
                l = p[l]
            while p[k] != l:
                p[k], k = l, p[k]
            return l

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
            for x in columns[mask[g]]:
                d = row[x]
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
                    mask[mu] |= 1 << x
                    if nu != d:
                        mask[nu] |= 1 << y
                    if deduced is not None:
                        deduced.append((mu, x))
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

    def scan(self, a: int, rel: tuple):
        """Trace relator record rel at coset a, defining cosets to close the
        scan.  An entry it deduces is queued for `deduce`."""
        w, inv, _, _, j = rel
        table, mask = self.table, self.mask
        f, i = a, 0
        b = a
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
                mask[f] |= 1 << w[i]
                mask[b] |= 1 << inv[i]
                self.deductions.append((f, w[i]))
                return
            f, i = self.define(f, w[i]), i + 1

    def deduce(self):
        """Drain the deduction queue.  For each queued entry a.x = d whose
        coset a is still live, trace at a, without defining, every relator
        conjugate w that starts with x.  A one-letter gap is filled and the
        entry queued; a closed trace that meets two cosets is a coincidence,
        and each entry its merges write is queued.

        The conjugates come from deducible[x] under the masks of d and a.
        A conjugate of length 3 or more with d.w[1] and a.w[-1]^-1 both
        undefined stops forwards at i = 1 and backwards at j = len(w) - 1,
        a gap of two or more letters, so its trace could neither deduce nor
        coincide; a stale bit only lets such a trace through.  The list is
        read once per entry: a conjugate it skipped can only come to need a
        trace through an entry written since, and that entry is queued."""
        table, mask, queue, deducible = self.table, self.mask, self.deductions, self.deducible
        ncols = self.ncols
        while queue:
            a, x = queue.pop()
            row = table[a]
            if row is None:
                continue
            d = row[x]
            for w, inv, end, last in deducible[x][mask[d] << ncols | mask[a]]:
                f, i = d, 1
                while i <= end and (e := table[f][w[i]]) is not None:
                    f, i = e, i + 1
                b, j = a, end
                if i <= end and (e := row[last]) is not None:
                    b, j = e, end - 1
                    while j >= i and (e := table[b][inv[j]]) is not None:
                        b, j = e, j - 1
                if i == j:
                    table[f][w[i]] = b
                    table[b][inv[i]] = f
                    mask[f] |= 1 << w[i]
                    mask[b] |= 1 << inv[i]
                    queue.append((f, w[i]))
                elif j < i and f != b:
                    self.coincidence(f, b, queue)
                    if table[a] is None:
                        break
                    d = row[x]

    def _lookahead(self, start: int) -> bool:
        """Trace every relator at every live coset from `start` on without
        defining, hoping coincidences free enough room to continue.  Then
        double the soft ceiling, capped at `limit`, while more than half of
        it is live.  Returns whether the table has room for another coset,
        which below `limit` it always has.

        Cosets below `start` are skipped: HLT has scanned each of them
        closed, and a closed trace stays closed through coincidences, so
        tracing there would change nothing.

        The trace is inlined.  At coset a it visits only the relators
        `eligible[mask[a]]`: length 1, or a.w[0] or a.w[-1]^-1 possibly
        defined.  Any other relator w would stop forwards at i = 0 and
        backwards at j = len(w) - 1 > i, so it could not close, deduce or
        coincide.  A stale mask bit only lets through a trace whose two ends
        are undefined, which the trace below drops after two reads.  A trace
        reads a.w[-1]^-1 only when the forward walk stops short.  A
        deduction or coincidence can fill row a, so after one that leaves a
        alive the mask is read again and the relators after the current one
        come from the new mask's list.  Traces, deductions and coincidences
        happen in the same order as when every relator is traced at every
        coset."""
        self.lookahead_passes += 1
        table, mask, eligible = self.table, self.mask, self.eligible
        for a in range(start, len(table)):
            row = table[a]
            if row is None:
                continue
            m = mask[a]
            rels = eligible[m]
            while rels is not None:
                todo, rels = rels, None
                for rel in todo:
                    w, inv, first, last, end = rel
                    f = row[first]
                    if f is None:
                        f, i = a, 0
                    else:
                        i = 1
                        while i <= end and (e := table[f][w[i]]) is not None:
                            f, i = e, i + 1
                    b, j = a, end
                    if i <= end:
                        e = row[last]
                        if e is None:
                            if i != end:
                                continue
                        else:
                            b, j = e, end - 1
                            while j >= i and (e := table[b][inv[j]]) is not None:
                                b, j = e, j - 1
                    if i == j:
                        table[f][w[i]] = b
                        table[b][inv[i]] = f
                        mask[f] |= 1 << w[i]
                        mask[b] |= 1 << inv[i]
                    elif j > i or f == b:
                        continue
                    else:
                        self.coincidence(f, b)
                        if table[a] is None:
                            break
                    if mask[a] != m:
                        m = mask[a]
                        rels = eligible[m]
                        rels = rels[rels.index(rel) + 1:]
                        break
        while self.live > self.soft // 2 and self.soft < self.limit:
            self.soft = min(2 * self.soft, self.limit)
        return self.live < self.limit

    def run(self) -> Completed | LimitExceeded:
        table = self.table
        ptr = 0
        while ptr < len(table):
            if table[ptr] is None:
                ptr += 1
                continue
            try:
                if ptr == 0:
                    # Close each subgroup word at coset 0 before its
                    # relators; after an overflow the scan resumes
                    # (rescanning a closed trace is harmless).
                    for rec in self.subgroup:
                        self.scan(0, rec)
                        if self.deductions:
                            self.deduce()
                for rel in self.relators:
                    self.scan(ptr, rel)
                    if self.deductions:
                        self.deduce()
                    if table[ptr] is None:
                        break
                else:
                    for x in range(self.ncols):
                        if table[ptr][x] is None:
                            self.define(ptr, x)
                ptr += 1
            except _Overflow:
                # Cosets below ptr are fully traced and ids never change, so
                # resume at ptr (rescanning a survivor is harmless), and the
                # lookahead need not trace below it.
                if self.definitions >= self.max_definitions or not self._lookahead(ptr):
                    return LimitExceeded(self.live)
        return Completed(self.live)


def enumerate_cosets(
    presentation: Presentation, limit: int = DEFAULT_LIMIT, subgroup: tuple[Word, ...] = ()
) -> EnumerationOutcome:
    """Enumerate the cosets of the subgroup generated by the `subgroup`
    words, the trivial subgroup when there are none.

    Completed(index) proves the subgroup has that index in the presented
    group: over the trivial subgroup, that the group has order `index`, and
    over <g>, index 1 proves the group is <g>.  It is returned once every
    subgroup word traces closed at coset 0 and every live coset is scanned
    closed under every relator, which happens for a finite index given a
    large enough limit.

    A lookahead pass runs whenever a definition is due with the soft
    ceiling's count of cosets live: min(limit, SOFT_START) at first, then
    doubled after a pass, up to `limit`, while more than half of it is live.
    LimitExceeded is returned when a pass leaves `limit` cosets live, or
    when a definition is due after WORK_BOUND * limit of them.
    The second rule makes every enumeration end, after at most that many
    definitions: without it, an infinite index whose coincidences keep the
    live count below `limit` keeps defining cosets without end, as M(2,1)
    with p = 0, r = 1 does at limit 100,000.  A finite index that needs
    more definitions than that at `limit` is reported LimitExceeded; a
    larger limit raises the bound with the table.
    """
    if limit < 1:
        raise ValueError("limit must be positive")
    enum = _Enumerator(presentation, limit, subgroup)
    result = enum.run()
    stats = EnumerationStats(
        definitions=enum.definitions,
        coincidences=enum.coincidences,
        max_live=enum.max_live,
        lookahead_passes=enum.lookahead_passes,
    )
    return EnumerationOutcome(result, stats)
