"""Brute-force reference implementations used to pin expected values.

Everything here follows the definitions directly (enumerate, compare,
count) and stays independent of the library's optimised code paths.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


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
    """(preimage, dropped, truncated) of w under the morphism m, or None.

    Drops the letters before the first start letter (the letter every
    image begins with), at most the longest image length minus one of
    them, then tries every parse of the rest into images followed by a
    proper prefix of an image, and keeps the parse that truncates the
    fewest letters."""
    images = [img.letters for img in m.images]
    data = w.letters
    start = images[0][0]
    dropped = next((i for i, c in enumerate(data) if c == start), len(data))
    if dropped > max(len(img) for img in images) - 1:
        return None
    best = None

    def search(i, preimage):
        nonlocal best
        rest = data[i:]
        if any(img != rest and img[:len(rest)] == rest for img in images):
            if best is None or len(rest) < best[2]:
                best = (bytes(preimage), dropped, len(rest))
        for a, img in enumerate(images):
            if rest[:len(img)] == img:
                search(i + len(img), preimage + [a])

    search(dropped, [])
    return best


def brute_fixed_point_prefix(m, seed: int, n: int) -> bytes:
    """The first n letters of m's fixed point from ``seed``: the image of
    the whole previous iterate, taken until it has n letters."""
    images = [img.letters for img in m.images]
    current = images[seed]
    while len(current) < n:
        current = b"".join(images[c] for c in current)
    return current[:n]
