"""Properness and antiproperness of ternary words.

A ternary word is proper when it contains none of the seven forbidden
factors 00, 11, 22, 20, 10101, 2121, 10210210 and no factor of the shape
x y x y x whose x-piece strictly Parikh-dominates its y-piece (this covers
cubes, where y is empty).  A word is antiproper when its reverse is proper.

A dominated occurrence with |x| = x_len and |y| = y_len is exactly a run
of x_len + y_len + x_len consecutive agreements at distance p = x_len +
y_len, and dominance forces x_len > y_len, so every occurrence sits inside
an agreement run of length at least p + p//2 + 1.  The detector therefore
first collects the runs of exponent above 5/2, from ``repetitions._runs``;
words whose factors all have exponent at most 5/2 produce no candidates at
all and are dismissed in this first phase.  Only the surviving stretches are
enumerated, in tie-break order.  At each start of a stretch, x dominates
from some least length on, which a bisection of the prefix counts finds,
and that least x is the only candidate there that can matter.  The search
reads one bound, where the checked word ends, at each start; candidates are
drawn in start order, so no start bound is needed.

``forgiving_scan`` is the one checker behind ``is_proper``,
``is_antiproper`` and the decomposition reports, and returns the
``PropernessReport`` itself.  One rule forgives the violations that start
before a bound and reports the first after it, over one lazy stream in
checker order on the word or its reverse, mapped into the word in one place.
The length guard sits only on the three whole-word entry points,
``is_proper``, ``is_antiproper`` and ``find_dominated_xyxyx``.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from itertools import accumulate, count

from .repetitions import _runs
from .words import (DEFAULT_LENGTH_GUARD, AlphabetError, LengthLimitError,
                    Record, Word)

FORBIDDEN_FACTORS = (
    bytes([0, 0]),
    bytes([1, 1]),
    bytes([2, 2]),
    bytes([2, 0]),
    bytes([1, 0, 1, 0, 1]),
    bytes([2, 1, 2, 1]),
    bytes([1, 0, 2, 1, 0, 2, 1, 0]),
)


class XyxyxOccurrence(Record):
    """Factor u[start : start + 3*x_length + 2*y_length] of shape xyxyx."""

    start: int
    x_length: int
    y_length: int

    @property
    def total_length(self) -> int:
        return 3 * self.x_length + 2 * self.y_length


class Violation(Record):
    """Why a word fails the properness test and where.

    ``kind`` is "forbidden_factor" (detail: the factor's digit string) or
    "xyxyx" (detail: the occurrence).  ``position`` is the start index of
    the offending stretch.
    """

    kind: str
    position: int
    detail: object


class PropernessReport(Record):
    """One-sided properness evidence on a finite level word.

    Structure is only promised for a final segment, so violations that
    start before the front-trim bound are forgiven.  ``trim`` is one past
    the start of the last one forgiven (0 when none was), and the level
    word from there on, ``checked_length`` letters, is what the report
    covers.  ``violation`` is the first violation of that segment, which
    starts at or after the bound, or None when the segment is clean;
    positions are in the level word's own coordinates.  The result equals
    re-running the checker on the segment after each forgiveness, but
    comes from one scan.
    """

    checked_length: int
    trim: int
    violation: Violation | None

    @property
    def clean(self) -> bool:
        return self.violation is None


def _guard(u: Word, max_length: int | None) -> None:
    if max_length is not None and len(u) > max_length:
        raise LengthLimitError(
            f"input of length {len(u)} exceeds the {max_length}-letter guard")


def _xyxyx_search(data: bytes, k: int, end):
    """Every candidate (s, x, y) - a factor of shape xyxyx with x > y - whose
    x-piece strictly Parikh-dominates its y-piece, in tie-break order, but
    only the first in x order of each stretch and start, and only those
    ending by ``end()``, read at each start.

    The first dominated x at a start is the only one that can matter: one
    ending past ``end()`` ends past every later bound, and once that
    candidate is reported or forgiven, every later x there ends later
    (3x + 2y = 2p + x) inside a forgiven start.  No start bound is read:
    the merge draws each stretch's first candidate before the caller
    forgives any, and each next one only after the caller has handled the
    last s, by when it has forgiven no start past s.  An empty tuple, with
    no prefix counts built, when no run in ``data`` can host a candidate.
    """
    # Phase 1: per period p, the runs of length >= p + x_min, where
    # x_min = p//2 + 1 is the least x with x > y.
    stretches = list(_runs(data, lambda p: p + p // 2 + 1))
    if not stretches:
        return ()

    # Phase 2: prefix letter counts.  Every candidate has x >= p//2 + 1 >
    # p - x = y, so the pieces never share a Parikh vector, and x
    # dominates iff 2 * row[s + x] >= row[s] + row[s + p] for every
    # letter's row: this grows with x, so the least x is a bisection.
    prefix = []
    for c in range(k):
        marks = data.translate(bytes(c) + b"\1" + bytes(255 - c))  # 1 at c
        prefix.append(list(accumulate(marks, initial=0)))

    def candidates(p: int, a: int, b: int):
        x_min = p // 2 + 1
        for s in count(a):
            top = min(p, b - s - p, end() - s - 2 * p)     # the largest x
            if top < x_min:     # and smaller at every later start
                return
            x = max(bisect_left(row, (row[s] + row[s + p] + 1) // 2,
                                s + x_min, s + top + 1) for row in prefix) - s
            if x <= top:
                yield s, x, p - x

    return heapq.merge(*(candidates(*st) for st in stretches))


def find_dominated_xyxyx(u: Word, *,
                         max_length: int | None = DEFAULT_LENGTH_GUARD
                         ) -> XyxyxOccurrence | None:
    """First xyxyx occurrence with Parikh-dominant x, or None.

    "First" means smallest start, then smallest x length, then smallest
    y length.  y may be empty; x may not.
    """
    _guard(u, max_length)
    for s, x, y in _xyxyx_search(u.letters, u.alphabet_size, u.__len__):
        return XyxyxOccurrence(s, x, y)
    return None


def forgiving_scan(u: Word, trim_bound: int = 0, *, mirrored: bool = False,
                   xyxyx: bool = True) -> PropernessReport:
    """Check a final segment of u, forgiving violations near the front.

    Returns ``PropernessReport(len(u) - trim, trim, violation)``, with no
    length guard.  ``violation`` is the first violation of u[trim:] - of
    its properness, or with ``mirrored`` of its antiproperness - which
    starts at or after ``trim_bound``, or None.  ``trim`` is one past the
    start of the last violation forgiven for starting before the bound,
    or 0.  Positions are u's own.  The result is what re-running is_proper
    (is_antiproper) on u[trim:] after each forgiven violation gives,
    precedence and tie-breaks included, because the violations of u[trim:]
    are exactly those of u that start at or after trim.

    One lazy stream yields each violation of u, or with ``mirrored`` of
    its reverse, in checker order as (position, length, (x, y) or None)
    there: forbidden factors from a heap, then the xyxyx candidates of one
    search on what the trim leaves, re-read at each start.  The loop maps
    them into u in one expression; one rule skips a start before the
    trim, reports one at or past the bound and forgives any other.

    With ``xyxyx`` False the stream stops after the forbidden factors and
    runs no xyxyx search: the same report when u holds no dominated xyxyx,
    which ``decompose``'s docstring shows below a level that holds none.
    """
    if u.alphabet_size != 3:
        raise AlphabetError("properness is defined for ternary words")
    n = len(u)
    data = u.letters[::-1] if mirrored else u.letters
    trim = 0

    def violations():   # (position in data, length, (x, y) or None)
        heap = [(pos, len(pat), pat) for pat in FORBIDDEN_FACTORS
                if (pos := data.find(pat)) != -1]
        heapq.heapify(heap)
        while heap:
            pos, length, pat = heap[0]
            yield pos, length, None
            pos = data.find(pat, pos + 1)
            if pos == -1:
                heapq.heappop(heap)
            else:
                heapq.heapreplace(heap, (pos, length, pat))
        if not xyxyx:
            return
        offset = 0 if mirrored else trim   # the searched slice's start in data
        # the slices only skip work; this is where the trim's segment ends
        for s, x, y in _xyxyx_search(
                data[:n - trim] if mirrored else data[trim:], 3,
                lambda: n - (trim if mirrored else offset)):
            yield offset + s, 3 * x + 2 * y, (x, y)

    for pos, length, xy in violations():
        start = n - pos - length if mirrored else pos
        if start < trim:    # inside a forgiven stretch
            continue
        if start >= trim_bound:
            violation = (Violation("xyxyx", start, XyxyxOccurrence(start, *xy))
                         if xy else Violation("forbidden_factor", start,
                                              str(u[start:start + length])))
            return PropernessReport(n - trim, trim, violation)
        trim = start + 1
    return PropernessReport(n - trim, trim, None)


def is_proper(u: Word, *,
              max_length: int | None = DEFAULT_LENGTH_GUARD) -> Violation | None:
    """None when u is proper; otherwise the earliest violation.

    Forbidden-factor screening takes precedence over the xyxyx check;
    among forbidden hits the earliest position wins, ties going to the
    shorter factor.
    """
    _guard(u, max_length)
    return forgiving_scan(u).violation


def is_antiproper(u: Word, *,
                  max_length: int | None = DEFAULT_LENGTH_GUARD) -> Violation | None:
    """None when reverse(u) is proper; positions map back to u.

    A reported occurrence starts at the index in u where the mirrored
    stretch begins; forbidden-factor details are given as they read in u
    (the reverse of the proper-side pattern).  An xyxyx occurrence mirrors
    to another xyxyx occurrence with the same piece lengths, so the mapped
    report is directly meaningful in u's coordinates.
    """
    _guard(u, max_length)
    return forgiving_scan(u, mirrored=True).violation
