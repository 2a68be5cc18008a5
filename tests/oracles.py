"""Brute-force reference implementations used to pin expected values.

Everything here follows the definitions directly (enumerate, compare,
count) and stays independent of the library's optimised code paths.  One
uses a plain library helper: ``brute_longest_avoiding`` checks its nodes
with the library's ``suffix_is_52plus_power``, which the repetition tests
compare with ``brute_suffix_has_52plus`` on every binary word of up to 14
letters.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from rotewords.repetitions import suffix_is_52plus_power
from rotewords.words import Word


def all_words(alphabet_size: int, max_len: int, min_len: int = 0):
    for length in range(min_len, max_len + 1):
        for letters in product(range(alphabet_size), repeat=length):
            yield bytes(letters)


def brute_smallest_period(data: bytes) -> int:
    n = len(data)
    for p in range(1, n):
        if all(data[i] == data[i + p] for i in range(n - p)):
            return p
    return n


def brute_agreement_runs(data: bytes, p: int, min_len: int):
    """Maximal runs [a, b) with data[i] == data[i+p] for a <= i < b and
    b - a >= min_len, left to right."""
    runs = []
    start = None
    for i in range(len(data) - p + 1):
        agree = i < len(data) - p and data[i] == data[i + p]
        if agree and start is None:
            start = i
        elif not agree and start is not None:
            if i - start >= min_len:
                runs.append((start, i))
            start = None
    return runs


def brute_max_exponent(data: bytes):
    """(value, (start, length, period)) with the smallest-start,
    shortest-length tie-break; period is the factor's smallest period."""
    best = None
    n = len(data)
    for start in range(n):
        for length in range(1, n - start + 1):
            p = brute_smallest_period(data[start:start + length])
            value = Fraction(length, p)
            key = (-value, start, length)
            if best is None or key < best[0]:
                best = (key, value, (start, length, p))
    return best[1], best[2]


def brute_best_run(data: bytes):
    """(length, period, start) of the highest-exponent factor that is a
    whole maximal run data[a:b+p] of some period p, smallest start then
    shortest length first; (1, 1, 0) when no letter repeats at any
    period."""
    best = (Fraction(-1), 0, 1, 1)
    for p in range(1, len(data)):
        for a, b in brute_agreement_runs(data, p, 1):
            length = b - a + p
            best = min(best, (-Fraction(length, p), a, length, p))
    _, start, length, period = best
    return length, period, start


def brute_suffix_has_52plus(data: bytes) -> bool:
    n = len(data)
    for start in range(n):
        suffix = data[start:]
        p = brute_smallest_period(suffix)
        if 2 * len(suffix) > 5 * p:
            return True
    return False


def brute_avoids(data: bytes, threshold: Fraction, strict: bool) -> bool:
    """Whole-word scan: no factor exponent above (or at, if not strict)
    the threshold."""
    n = len(data)
    for start in range(n):
        for length in range(1, n - start + 1):
            p = brute_smallest_period(data[start:start + length])
            e = Fraction(length, p)
            if (e > threshold) if strict else (e >= threshold):
                return False
    return True


def brute_dominated_xyxyx(data: bytes, alphabet_size: int = 3):
    """First (start, x_len, y_len) occurrence in tie-break order, or None."""
    n = len(data)
    for s in range(n):
        for x in range(1, (n - s) // 3 + 1):
            for y in range(0, min(x - 1, (n - s - 3 * x) // 2) + 1):
                xs = data[s:s + x]
                ys = data[s + x:s + x + y]
                if (data[s + x + y:s + 2 * x + y] != xs
                        or data[s + 2 * x + 2 * y:s + 3 * x + 2 * y] != xs
                        or data[s + 2 * x + y:s + 2 * x + 2 * y] != ys):
                    continue
                cx = [xs.count(c) for c in range(alphabet_size)]
                cy = [ys.count(c) for c in range(alphabet_size)]
                if all(a >= b for a, b in zip(cx, cy)) and cx != cy:
                    return (s, x, y)
    return None


_FORBIDDEN_TEXTS = ("00", "11", "22", "20", "10101", "2121", "10210210")


def brute_proper(data: bytes):
    """None when proper, else ("forbidden_factor", pos, text) or
    ("xyxyx", start, occurrence) mirroring the library's precedence."""
    best = None
    for text in _FORBIDDEN_TEXTS:
        pat = bytes(int(c) for c in text)
        pos = data.find(pat)
        if pos != -1 and (best is None or (pos, len(pat)) < best[:2]):
            best = (pos, len(pat), text)
    if best is not None:
        return ("forbidden_factor", best[0], best[2])
    occ = brute_dominated_xyxyx(data)
    if occ is not None:
        return ("xyxyx", occ[0], occ)
    return None


def brute_factor_count(data: bytes, n: int) -> int:
    return len({tuple(data[i:i + n]) for i in range(len(data) - n + 1)})


def brute_factors(data: bytes, n: int) -> set[bytes]:
    """The distinct length-n factors of data, one slice per position."""
    return {data[i:i + n] for i in range(len(data) - n + 1)}


def brute_report(data: bytes, trim_bound: int, mirrored: bool):
    """(trim, violation) of a properness report on a level word, by the
    re-run loop: check the suffix data[trim:] with brute_proper (on its
    reverse when ``mirrored``), and while the violation found starts before
    ``trim_bound``, forgive it by setting trim to one past its start.

    The violation is (kind, position, detail) in data's coordinates: a
    forbidden factor's text as it reads in data, or an xyxyx occurrence's
    (start, x_len, y_len)."""
    trim = 0
    while True:
        suffix = data[trim:]
        v = brute_proper(suffix[::-1] if mirrored else suffix)
        if v is None:
            return trim, None
        kind, pos, detail = v
        if kind == "forbidden_factor":
            length = len(detail)
            if mirrored:
                detail = detail[::-1]
        else:
            length = 3 * detail[1] + 2 * detail[2]
        if mirrored:
            pos = len(suffix) - pos - length
        start = trim + pos
        if start >= trim_bound:
            if kind == "xyxyx":
                detail = (start, detail[1], detail[2])
            return trim, (kind, start, detail)
        trim = start + 1


def brute_decode(m, w):
    """(preimage, dropped, truncated) of w under the morphism m, or
    (position, message) of the DecodeError that refuses it.

    Drops the letters before the first start letter (the letter every
    image begins with), at most the longest image length minus one of
    them, then tries every parse of the rest into images followed by a
    proper prefix of an image, and keeps the parse that truncates the
    fewest letters.  With no parse, the error is at the last position the
    parses reach where a block can begin: any position for a code whose
    images end with their one marker (h), and a position holding the start
    letter for a code whose images begin with it, as a shorter image can
    match the front of a block there (g, f, tau)."""
    images = [img.letters for img in m.images]
    data = w.letters
    start = images[0][0]
    dropped = next((i for i, c in enumerate(data) if c == start), len(data))
    if dropped > max(len(img) for img in images) - 1:
        return 0, (f"leading segment of {dropped} letters is too long to be "
                   f"the tail of an image")
    marker_first = all(img.count(start) == 1 for img in images)
    best = None
    reached = dropped

    def search(i, preimage):
        nonlocal best, reached
        rest = data[i:]
        if not marker_first or rest[:1] == bytes([start]):
            reached = max(reached, i)
        if any(img != rest and img[:len(rest)] == rest for img in images):
            if best is None or len(rest) < best[2]:
                best = (bytes(preimage), dropped, len(rest))
        for a, img in enumerate(images):
            if rest[:len(img)] == img:
                search(i + len(img), preimage + [a])

    search(dropped, [])
    return best or (reached, f"block at position {reached} is not an image, "
                             f"nor a proper prefix of one ending the word")


def brute_apply(m, data: bytes) -> bytes:
    """The image of data under the morphism m, one letter at a time."""
    return b"".join(m.images[a].letters for a in data)


def brute_fixed_point_prefix(m, seed: int, n: int) -> bytes:
    """The first n letters of m's fixed point from ``seed``: the image of
    the whole previous iterate, taken until it has n letters."""
    images = [img.letters for img in m.images]
    current = images[seed]
    while len(current) < n:
        current = b"".join(images[c] for c in current)
    return current[:n]


def brute_longest_avoiding(forbidden: list[bytes], target: int):
    """The search as a plain loop over a bytearray: every node checks each
    forbidden factor by slicing and its 5/2+ suffixes period by period.
    Returns (max_length, witness letters, reached_target, nodes_explored),
    the fields of ``SearchOutcome``."""
    w = bytearray()
    best_len = 0
    best = b""
    nodes = 0

    def good() -> bool:
        n = len(w)
        for f in forbidden:
            k = len(f)
            if n >= k and w[-k:] == f:
                return False
        return not suffix_is_52plus_power(Word(bytes(w), 2))

    reached = False
    while len(w) <= target:
        nodes += 1
        if good():
            if len(w) > best_len:
                best_len = len(w)
                best = bytes(w)
            if len(w) == target:
                reached = True
                break
            w.append(0)
        else:
            while w and w[-1] == 1:
                w.pop()
            if not w:
                break
            w[-1] = 1
    return best_len, best, reached, nodes


def brute_runs(data: bytes, need):
    """(p, a, b) for each maximal run [a, b) of period p with b - a >=
    need(p), for p = 1, 2, ... until p + need(p) > len(data), each period's
    runs from brute_agreement_runs.  need(p) is read on reaching p and
    again after each run yielded at p, as ``repetitions._runs`` reads it,
    so a need that reads state the consumer updates sees the same state."""
    p = 1
    while p + (k := need(p)) <= len(data):
        for a, b in brute_agreement_runs(data, p, k):
            if b - a >= k:
                yield p, a, b
                k = need(p)
        p += 1


CASE_ORDER = ("F", "Fbar", "Frev", "FbarRev")


def _case_factor_sets() -> dict[str, set[str]]:
    base = {"0110", "1001", "0011", "1100", "0010", "0100", "1101", "1010"}
    bar = {t.translate(str.maketrans("01", "10")) for t in base}
    return dict(zip(CASE_ORDER, (base, bar, {t[::-1] for t in base},
                                 {t[::-1] for t in bar})))


def brute_classify(data: bytes):
    """(tag, compatible, offenders) of a binary word, as FactorClass holds
    them but with tags by value and offenders as digit strings.

    The observed set is every length-4 window.  A case whose set equals it
    is the tag; else every case whose set holds it is compatible; else the
    offenders are the observed factors outside the case that shares the
    most of them, ties going to the earliest in CASE_ORDER."""
    observed = {"".join(map(str, f)) for f in brute_factors(data, 4)}
    sets = _case_factor_sets()
    for tag in CASE_ORDER:
        if observed == sets[tag]:
            return tag, (), ()
    compatible = tuple(t for t in CASE_ORDER if observed <= sets[t])
    if compatible:
        return None, compatible, ()
    best = max(CASE_ORDER, key=lambda t: (len(observed & sets[t]),
                                          -CASE_ORDER.index(t)))
    return None, (), tuple(sorted(observed - sets[best]))
