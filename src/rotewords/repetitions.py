"""Exact periodicity and power analysis.

The exponent of a nonempty word of length l with smallest period p is the
rational l/p, compared exclusively by integer cross-multiplication (never
floating point).  A word "avoids k-powers" when every factor has exponent
< k, and "avoids k+-powers" when every factor has exponent <= k; the
boundary case of a factor whose exponent is exactly k is permitted only
in the latter reading.

Scanning all O(n^2) factors one smallest-period computation at a time is
far too slow, so the whole-word scans synchronise on the period instead:
a factor of length l with period p is a run of l - p consecutive
positions i where w[i] == w[i+p].  Every threshold question therefore
asks, per period, for the maximal agreement runs of at least some length
L, and L grows linearly with p.  ``_agreement_runs`` answers it by
sampling: every run of length >= L contains a window of length
s = L - q + 1 starting at a multiple of q = ceil(L/2), so comparing
w[i:i+s] with w[i+p:i+p+s] at i = 0, q, 2q, ... finds every such run, and
a hit is extended to its maximal ends with a local mismatch mask (XOR of
the two shifted byte strings as big integers, zero bytes marking
agreement).  That is about 2n/L probes per period, O(n log n) in all.
Short runs, below a stride of ``_DENSE_STRIDE``, are read off one full mask
of the period with a regex instead.  ``_runs`` is the one period loop both
whole-word scans walk, each with its own L as a function of p.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering

from .words import Record, Word


@total_ordering
@dataclass(frozen=True, eq=False)
class Exponent:
    """Exact word exponent: ``length`` over smallest ``period``.

    The pair is kept unreduced so that ``length`` always equals the length
    of the witnessing word; comparisons use the rational value.
    """

    length: int
    period: int

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be at least 1")
        if self.length < self.period:
            raise ValueError("length must be at least the period")

    @property
    def value(self) -> Fraction:
        return Fraction(self.length, self.period)

    @staticmethod
    def _rational(other) -> Fraction | None:
        if isinstance(other, Exponent):
            return other.value
        if isinstance(other, (int, Fraction)):
            return Fraction(other)
        return None

    def __eq__(self, other) -> bool:
        r = self._rational(other)
        if r is None:
            return NotImplemented
        return self.length * r.denominator == r.numerator * self.period

    def __lt__(self, other) -> bool:
        r = self._rational(other)
        if r is None:
            return NotImplemented
        return self.length * r.denominator < r.numerator * self.period

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return f"Exponent({self.length}/{self.period})"


@dataclass(frozen=True)
class RepetitionWitness(Record):
    """A factor [start, start+length) whose smallest period is ``period``."""

    start: int
    length: int
    period: int


def smallest_period(w: Word) -> int:
    """Least p >= 1 with w[i] == w[i+p] for all valid i.

    That is n minus the longest proper border of w, read off the KMP
    failure function in one O(n) pass.
    """
    n = len(w)
    if n == 0:
        raise ValueError("the empty word has no period")
    data = w.letters
    fail = [0] * n          # fail[i]: longest proper border of data[:i+1]
    k = 0
    for i in range(1, n):
        c = data[i]
        while k and data[k] != c:
            k = fail[k - 1]
        if data[k] == c:
            k += 1
        fail[i] = k
    return n - k


def exponent(w: Word) -> Exponent:
    """Exact exponent |w| / smallest_period(w)."""
    return Exponent(len(w), smallest_period(w))


def _mismatch_mask(data: bytes, p: int) -> bytes:
    # Byte i is zero iff data[i] == data[i+p]; big-int XOR keeps this at
    # C speed for the whole position range at once.
    m = len(data) - p
    a = int.from_bytes(data[:m], "big")
    b = int.from_bytes(data[p:], "big")
    return (a ^ b).to_bytes(m, "big")


# Below this stride the probes of _agreement_runs cost more than one full
# mask of the period read with a regex.
_DENSE_STRIDE = 32


def _agreement_runs(data: bytes, p: int, min_len: int):
    """Yield, left to right, the maximal runs [a, b) with b - a >= min_len
    and data[i] == data[i+p] for every a <= i < b.

    Probes a window of length s = min_len - q + 1 at multiples of the
    stride q = ceil(min_len/2).  A hit is extended left by less than q
    letters (the previous probe, or the mismatch ending the previous run,
    lies within q of it) and right in doubling chunks.
    """
    m = len(data) - p
    q = (min_len + 1) // 2
    if q < _DENSE_STRIDE:
        for hit in re.finditer(b"\x00{%d,}" % min_len, _mismatch_mask(data, p)):
            yield hit.start(), hit.end()
        return
    s = min_len - q + 1
    i = 0
    while i + s <= m:
        if data[i:i + s] != data[i + p:i + p + s]:
            i += q
            continue
        lo = max(i - q, 0)
        a = lo + len(_mismatch_mask(data[lo:i + p], p).rstrip(b"\x00"))
        b, step = i + s, s
        while b < m:
            hi = min(b + step, m)
            tail = _mismatch_mask(data[b:hi + p], p).lstrip(b"\x00")
            b = hi - len(tail)
            if tail:
                break
            step *= 2
        if b - a >= min_len:
            yield a, b
        i = (b // q + 1) * q


def _runs(data: bytes, need):
    """Yield (p, a, b) for each maximal run [a, b) of period p with
    b - a >= need(p), for p = 1, 2, ... until p + need(p) > len(data).

    need(p) is read once, on reaching p; callers keep p + need(p) from
    falling as p grows, so no later period can hold such a run."""
    p = 1
    while p + (k := need(p)) <= len(data):
        for a, b in _agreement_runs(data, p, k):
            yield p, a, b
        p += 1


def _normalize_threshold(threshold) -> Fraction:
    if isinstance(threshold, tuple):
        threshold = Fraction(*threshold)
    t = Fraction(threshold)
    if t < 1:
        raise ValueError("power threshold must be at least 1")
    return t


def is_power_free(w: Word, threshold, strict: bool) -> RepetitionWitness | None:
    """Check whether every factor's exponent stays below the threshold.

    Returns None iff w avoids the given powers: every factor has exponent
    < threshold (strict=False) or <= threshold (strict=True).  Otherwise
    returns a witness for one violating factor, found at the smallest
    violating period and there at the leftmost minimal length.
    """
    t = _normalize_threshold(threshold)
    num, den = t.numerator, t.denominator

    def need(p):    # least l with l/p > t (l/p >= t if not strict), minus p;
        # 0 at t = 1 not strict, where the first letter is the witness
        return (num * p - (not strict)) // den + 1 - p

    for p, a, _ in _runs(w.letters, need):
        return RepetitionWitness(a, p + need(p), p)
    return None


def _suffix_52plus(buf) -> bool:
    """True iff some suffix of ``buf`` is a 5/2+ power.

    For each period p gated by 5p < 2n, only the minimal witness length
    2p + ceil((p+1)/2) is checked; a longer period-p power suffix always
    contains that minimal one as a suffix.
    """
    n = len(buf)
    p = 1
    while 5 * p < 2 * n:
        c = (p + 2) // 2
        if buf[n - c - p:] == buf[n - c - 2 * p:n - p]:
            return True
        p += 1
    return False


def suffix_is_52plus_power(w: Word) -> bool:
    """True iff some suffix of w has exponent strictly greater than 5/2."""
    return _suffix_52plus(w.letters)


def max_factor_exponent(w: Word) -> tuple[Exponent, RepetitionWitness]:
    """Maximum exponent over all nonempty factors, with one witness.

    Ties are broken by smallest start index, then shortest length.  A
    factor of maximal exponent is a whole maximal run (extending it by one
    letter of its period would raise its exponent), so one pass over the
    runs that at least tie the best so far finds the maximum and the
    tie-break witness together.
    """
    if not w:
        raise ValueError("the empty word has no factors")
    length, period, start = 1, 1, 0

    def need(p):        # least run length whose factor ties length/period
        return max(1, -((p * (period - length)) // period))

    for p, a, b in _runs(w.letters, need):
        span = b - a + p
        if (span * period, -a, -span) > (length * p, -start, -length):
            length, period, start = span, p, a
    return Exponent(length, period), RepetitionWitness(start, length, period)
