"""Exact periodicity and power analysis.

The exponent of a nonempty word of length l with smallest period p is the
rational l/p, compared exactly as Fractions, never in floating point.  A
word "avoids k-powers" when every factor has exponent < k, and "avoids
k+-powers" when every factor has exponent <= k; the boundary case of a
factor whose exponent is exactly k is permitted only in the latter reading.

Scanning all O(n^2) factors one smallest-period computation at a time is
far too slow, so the whole-word scans synchronise on the period instead:
a factor of length l with period p is a run of l - p consecutive
positions i where w[i] == w[i+p].  Every threshold question therefore
asks, per period, for the maximal agreement runs of at least some length
L = need(p), and ``_runs`` is the one period loop every whole-word scan
walks, each with its own need.  Every run of length >= L contains a window
of s = L - q + 1 letters starting at a multiple of q = ceil(L/2).  So from
the first period whose stride q reaches ``_BAND_STRIDE``, ``_runs`` takes
a whole octave of periods [P, 2P) at once with L = need(P): it looks for
each sample w[i:i+s] with one ``bytes.find`` over w[i+P:i+2P-1+s], and each
hit j names a period j - i, so a sample costs one find per hit, not one
compare per period.  As s >= q, hits in a row lie in one run: the scan
walks them, then reads both ends off the packed word (below) XORed with
itself shifted by the period, over the failed samples on either side, in
period order and only once the run is asked for.  With about 2n/L samples
per octave and log n octaves this is near n log n unless runs abound.
One need per octave is exact because every caller's need never falls as p
grows (``max_factor_exponent``'s follows its best exponent so far, which
only rises): need(P) finds every run a later period asks for, and a run is
kept if it reaches need(p).  Both branches read need(p) anew after each
run they yield.  Shorter strides read each period off one full mask with
``bytes.find``, but only once the period passes a cheaper test: the word
is packed once into an int of w = 1, 2 or 4 bits per letter: one XOR
marks the positions that agree at p, and shift-ANDs that double the span
while it fits in L = need(p), then one last shift to L, tell whether any
L in a row agree, stopping once none is left.  Most periods hold no such
run and build no mask.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import partialmethod

from .words import _TO_DIGITS, MAX_ALPHABET, Record, Word


class Exponent(Record):
    """Exact word exponent: ``length`` over smallest ``period``.

    The pair is kept unreduced so that ``length`` always equals the length
    of the witnessing word; every comparison is that of its Fraction value.
    """

    length: int
    period: int

    def __init__(self, length: int, period: int):
        if period < 1:
            raise ValueError("period must be at least 1")
        if length < period:
            raise ValueError("length must be at least the period")
        self.__dict__.update(length=length, period=period)

    @property
    def value(self) -> Fraction:
        return Fraction(self.length, self.period)

    def _compare(self, other, op) -> bool:
        return op(self.value,
                  other.value if isinstance(other, Exponent) else other)

    __eq__ = partialmethod(_compare, op=operator.eq)
    __lt__ = partialmethod(_compare, op=operator.lt)
    __le__ = partialmethod(_compare, op=operator.le)
    __gt__ = partialmethod(_compare, op=operator.gt)
    __ge__ = partialmethod(_compare, op=operator.ge)

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return f"Exponent({self.length}/{self.period})"


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


# From the period whose stride ceil(need/2) reaches this, _runs scans a
# whole octave of periods at once; below it one mask per period costs less.
_BAND_STRIDE = 48
_ZERO_ONE = bytes([0] + [1] * 255)      # translate: nonzero bytes to 1
_FOUR_BITS = [bytes([c]) for c in range(4, MAX_ALPHABET)]


def _packed(data: bytes) -> tuple[int, int, int]:
    """(x, w, ones): ``data`` as one int of w bits per letter, first letter
    highest, with w = 1, 2 or 4 the fewest that hold every letter (a power
    of two, so the parse is linear), and ones the low bit of each lane."""
    w = 4 if any(c in data for c in _FOUR_BITS) else \
        2 if b"\2" in data or b"\3" in data else 1
    x = int(data.translate(_TO_DIGITS) or b"0", 1 << w)
    return x, w, ((1 << w * len(data)) - 1) // ((1 << w) - 1)


def _holds_run(packed: tuple[int, int, int], p: int, k: int) -> bool:
    """Whether some k positions i in a row have data[i] == data[i+p], read
    off the packed word: lane j of x ^ (x >> w*p) is zero iff position
    n-p-1-j agrees.  z keeps the lanes that start span agreements in a
    row: z &= z >> w*span doubles span while it fits in k, one last shift
    of k - span brings it to k, and the ladder stops once no lane is left.
    True for k = 0."""
    x, w, ones = packed
    d = x ^ (x >> w * p)
    if w > 1:                   # fold each lane into its low bit
        d |= d >> 1
    if w > 2:
        d |= d >> 2
    z, span = (ones >> w * p) & ~d, 1
    while z and span + span <= k:
        z &= z >> w * span
        span += span
    if z and span < k:
        z &= z >> w * (k - span)
    return z != 0 or k == 0


def _band_runs(data: bytes, packed: tuple[int, int, int], low: int,
               top: int, min_len: int):
    """Yield (p, a, b), sorted, for each maximal run [a, b) of period p
    with low <= p < top, b - a >= min_len and data[i] == data[i+p] on it.

    Each window of s = min_len - q + 1 letters at a multiple i of the
    stride q = ceil(min_len/2) is looked for once over the whole band, and
    each hit j names the period j - i.  A hit whose period's last walk
    already passed i is skipped; any other walks on by q while the samples
    still agree at that period.  The run's ends fall in the failed samples
    on either side, read off ``packed`` once the walks are sorted and a run
    is asked for: cut to positions [lo, hi + p), lane j of d is nonzero,
    that is, holds a set bit, iff position hi - 1 - j disagrees.
    """
    n, (x, w, _) = len(data), packed
    q = (min_len + 1) // 2
    s = min_len - q + 1
    reach, walks = {}, []
    for i in range(0, n - low - s + 1, q):
        window, end = data[i:i + s], i + top - 1 + s
        j = data.find(window, i + low, end)
        while j >= 0:
            p = j - i
            if reach.get(p, 0) <= i:
                k = i + q
                while data.startswith(data[k:k + s], k + p):
                    k += q
                reach[p] = k
                walks.append((p, i, k))
            j = data.find(window, j + 1, end)
    walks.sort()
    for p, i, k in walks:
        lo, hi = max(i - q, 0), min(k + s, n - p)
        y = (x >> w * (n - hi - p)) & ((1 << w * (hi + p - lo)) - 1)
        d = (y ^ (y >> w * p)) & ((1 << w * (hi - lo)) - 1)
        left = d >> w * (hi - i)
        a = i - ((left & -left).bit_length() - 1) // w if left else lo
        right = d & ((1 << w * (hi - k + q)) - 1)
        b = hi - 1 - (right.bit_length() - 1) // w if right else hi
        if b - a >= min_len:
            yield p, a, b


def _runs(data: bytes, need):
    """Yield (p, a, b) for each maximal run [a, b) of period p with
    b - a >= need(p), for p = 1, 2, ... until p + need(p) > len(data).

    need(p) is read on reaching p and after each run yielded there, in
    both branches.  As callers keep it from falling, a band's first need
    finds every run its later periods ask for, and no period past the stop
    can hold one.  A period below the band builds its one mask only once
    the packed word shows a run of need(p) there."""
    p, k, packed = 1, need(1), _packed(data)
    while p + k <= len(data):
        top = p + 1
        if (k + 1) // 2 >= _BAND_STRIDE:
            top = min(2 * p, len(data) - k + 1)
            for run in _band_runs(data, packed, p, top, k):
                if run[0] != p:
                    p, k = run[0], need(run[0])
                    if p + k > len(data):
                        return
                if run[2] - run[1] >= k:
                    yield run
                    k = need(p)
        elif _holds_run(packed, p, k):
            mask, b = _mismatch_mask(data, p).translate(_ZERO_ONE), -1
            while (a := mask.find(bytes(k), b + 1)) >= 0:
                b = mask.find(1, a + k)
                b = len(mask) if b < 0 else b
                yield p, a, b
                k = need(p)
        p, k = top, need(top)


def _normalize_threshold(threshold) -> Fraction:
    if isinstance(threshold, tuple):
        threshold = Fraction(*threshold)
    t = Fraction(threshold)
    if t < 1:
        raise ValueError("power threshold must be at least 1")
    return t


def is_power_free(w: Word, threshold,
                  strict: bool) -> RepetitionWitness | None:
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


def suffix_is_52plus_power(w: Word) -> bool:
    """True iff some suffix of w has exponent strictly greater than 5/2.

    For each period p gated by 5p < 2n, only the minimal witness length
    2p + ceil((p+1)/2) is checked; a longer period-p power suffix always
    contains that minimal one as a suffix.  The search does not call it:
    from one int of runs per depth, it decides the same test for both
    children of a node when it pushes it.
    """
    buf, n = w.letters, len(w)
    p = 1
    while 5 * p < 2 * n:
        c = (p + 2) // 2
        if buf[n - c - p:] == buf[n - c - 2 * p:n - p]:
            return True
        p += 1
    return False


def max_factor_exponent(w: Word) -> tuple[Exponent, RepetitionWitness]:
    """Maximum exponent over all nonempty factors, with one witness.

    Ties are broken by smallest start index, then shortest length.  A
    factor of maximal exponent is a whole maximal run (extending it by one
    letter of its period would raise its exponent), so one pass over the
    first run of each period that ties the best so far, and the runs after
    it that beat it, finds the maximum and the tie-break witness together.
    """
    if not w:
        raise ValueError("the empty word has no factors")
    length, period, start, last = 1, 1, 0, 0

    def need(p):    # least run length to tie, or to beat at a period seen
        return max(1, -((p * (period - length)) // period) + (p == last))

    for last, a, b in _runs(w.letters, need):
        span = b - a + last
        if (span * period, -a, -span) > (length * last, -start, -length):
            length, period, start = span, last, a
    return Exponent(length, period), RepetitionWitness(start, length, period)
