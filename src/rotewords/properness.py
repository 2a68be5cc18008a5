"""Properness and antiproperness of ternary words.

A ternary word is proper when it contains none of the seven forbidden
factors 00, 11, 22, 20, 10101, 2121, 10210210 and no factor of the shape
x y x y x whose x-piece strictly Parikh-dominates its y-piece (this covers
cubes, where y is empty).  A word is antiproper when its reverse is proper.

A dominated occurrence with |x| = x_len and |y| = y_len is exactly a run
of x_len + y_len + x_len consecutive agreements at distance p = x_len +
y_len, and dominance forces x_len > y_len, so every occurrence sits inside
an agreement run of length at least p + p//2 + 1.  The detector therefore
first collects, per period, the agreement runs long enough to host an
occurrence, with the sampled scan of ``repetitions._agreement_runs``
(about 4n/3p window probes at period p, so O(n log n) in all); words
whose factors all have exponent at most 5/2 produce no candidates at all
and are dismissed in this first phase.  Only the surviving stretches are
enumerated, in tie-break order, with O(1) Parikh comparisons against
prefix counts.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .repetitions import _agreement_runs
from .words import AlphabetError, LengthLimitError, Word, reverse

FORBIDDEN_FACTORS = (
    bytes([0, 0]),
    bytes([1, 1]),
    bytes([2, 2]),
    bytes([2, 0]),
    bytes([1, 0, 1, 0, 1]),
    bytes([2, 1, 2, 1]),
    bytes([1, 0, 2, 1, 0, 2, 1, 0]),
)

DEFAULT_LENGTH_GUARD = 20000


@dataclass(frozen=True)
class XyxyxOccurrence:
    """Factor u[start : start + 3*x_length + 2*y_length] of shape xyxyx."""

    start: int
    x_length: int
    y_length: int

    @property
    def total_length(self) -> int:
        return 3 * self.x_length + 2 * self.y_length

    def to_json(self) -> dict:
        return {"start": self.start, "x_length": self.x_length,
                "y_length": self.y_length}


@dataclass(frozen=True)
class Violation:
    """Why a word fails the properness test and where.

    ``kind`` is "forbidden_factor" (detail: the factor's digit string) or
    "xyxyx" (detail: the occurrence).  ``position`` is the start index of
    the offending stretch.
    """

    kind: str
    position: int
    detail: object

    def to_json(self) -> dict:
        detail = (self.detail.to_json()
                  if isinstance(self.detail, XyxyxOccurrence) else self.detail)
        return {"kind": self.kind, "position": self.position, "detail": detail}


def _guard(u: Word, max_length: int | None) -> None:
    if max_length is not None and len(u) > max_length:
        raise LengthLimitError(
            f"input of length {len(u)} exceeds the {max_length}-letter guard")


def find_dominated_xyxyx(u: Word, *,
                         max_length: int | None = DEFAULT_LENGTH_GUARD
                         ) -> XyxyxOccurrence | None:
    """First xyxyx occurrence with Parikh-dominant x, or None.

    "First" means smallest start, then smallest x length, then smallest
    y length.  y may be empty; x may not.
    """
    _guard(u, max_length)
    n = len(u)
    data = u.letters
    k = u.alphabet_size

    # Phase 1: per period p, agreement runs of length >= p + x_min where
    # x_min = p//2 + 1 is the least x with x > y.
    stretches = []
    p = 1
    while 2 * p + p // 2 + 1 <= n:
        need = p + p // 2 + 1
        for a, b in _agreement_runs(data, p, need):
            stretches.append((p, a, b))
        p += 1
    if not stretches:
        return None

    # Phase 2: enumerate candidates in (start, x, y) order, checking
    # dominance against prefix letter counts.
    prefix = [[0] * (n + 1) for _ in range(k)]
    for i, b in enumerate(data):
        for c in range(k):
            prefix[c][i + 1] = prefix[c][i]
        prefix[b][i + 1] += 1

    def piece_counts(lo: int, hi: int) -> list[int]:
        return [prefix[c][hi] - prefix[c][lo] for c in range(k)]

    def candidates(p: int, a: int, b: int):
        x_min = p // 2 + 1
        need = p + x_min
        for s in range(a, b - need + 1):
            x_max = min(p, (b - s) - p)
            for x in range(x_min, x_max + 1):
                yield (s, x, p - x)

    for s, x, y in heapq.merge(*(candidates(*st) for st in stretches)):
        cx = piece_counts(s, s + x)
        cy = piece_counts(s + x, s + x + y)
        if all(a >= b for a, b in zip(cx, cy)) and cx != cy:
            return XyxyxOccurrence(s, x, y)
    return None


def _forbidden_violation(data: bytes) -> Violation | None:
    best = None
    for pat in FORBIDDEN_FACTORS:
        pos = data.find(pat)
        if pos != -1 and (best is None or (pos, len(pat)) < best[:2]):
            best = (pos, len(pat), pat)
    if best is None:
        return None
    pos, _, pat = best
    return Violation("forbidden_factor", pos, "".join(str(b) for b in pat))


def is_proper(u: Word, *,
              max_length: int | None = DEFAULT_LENGTH_GUARD) -> Violation | None:
    """None when u is proper; otherwise the earliest violation.

    Forbidden-factor screening takes precedence over the xyxyx check;
    among forbidden hits the earliest position wins, ties going to the
    shorter factor.
    """
    if u.alphabet_size != 3:
        raise AlphabetError("properness is defined for ternary words")
    _guard(u, max_length)
    hit = _forbidden_violation(u.letters)
    if hit is not None:
        return hit
    occ = find_dominated_xyxyx(u, max_length=max_length)
    if occ is not None:
        return Violation("xyxyx", occ.start, occ)
    return None


def is_antiproper(u: Word, *,
                  max_length: int | None = DEFAULT_LENGTH_GUARD) -> Violation | None:
    """None when reverse(u) is proper; positions map back to u.

    A reported occurrence starts at the index in u where the mirrored
    stretch begins; forbidden-factor details are given as they read in u
    (the reverse of the proper-side pattern).  An xyxyx occurrence mirrors
    to another xyxyx occurrence with the same piece lengths, so the mapped
    report is directly meaningful in u's coordinates.
    """
    v = is_proper(reverse(u), max_length=max_length)
    if v is None:
        return None
    n = len(u)
    if v.kind == "forbidden_factor":
        length = len(v.detail)
        return Violation(v.kind, n - v.position - length, v.detail[::-1])
    occ: XyxyxOccurrence = v.detail
    start = n - v.position - occ.total_length
    mirrored = XyxyxOccurrence(start, occ.x_length, occ.y_length)
    return Violation("xyxyx", start, mirrored)
