"""Differential tests: the agreement-run readers (one mask per short
period in the period loop, and the banded scan of an octave of periods),
the packed test that lets a short period skip its mask, the period loop
itself, the whole-word checks built on them, the properness reports, the
block decoder, the length-4 classification, the factor-complexity table
and factor sets (cut from samples of the word at any stride) and the class
words, against the brute-force oracles.

The whole-word checks band their periods only once runs of 2 *
_BAND_STRIDE - 1 letters are asked for, which short words never reach, so
those tests run with the band cutover at 1, where every period is banded,
and at 10**9, where none is.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotewords import (FORBIDDEN_FACTORS, CaseTag, DecodeError,
                       RepetitionWitness, Word, classify_by_length4,
                       complexity_profile, decode, factors_of_length,
                       find_dominated_xyxyx, forgiving_scan,
                       generate_case_word, is_power_free, max_factor_exponent,
                       named, smallest_period)
from rotewords import repetitions, words
from rotewords.repetitions import (_BAND_STRIDE, _band_runs, _holds_run,
                                   _packed, _runs)

from oracles import (brute_agreement_runs, brute_apply, brute_avoids,
                     brute_best_run, brute_classify, brute_decode,
                     brute_dominated_xyxyx, brute_factor_count, brute_factors,
                     brute_fixed_point_prefix, brute_max_exponent,
                     brute_report, brute_runs, brute_smallest_period)

CROSSOVER = 2 * _BAND_STRIDE - 1       # least min_len banded by default


def letters(k: int, min_size: int = 0, max_size: int | None = None):
    return st.binary(min_size=min_size, max_size=max_size).map(
        lambda raw: bytes(b % k for b in raw))


@st.composite
def planted(draw):
    """A word made of random filler and stretches of period up to 150,
    with a period to scan at: the planted one or a multiple of it."""
    k = draw(st.sampled_from([2, 3]))
    period = draw(st.integers(1, 150))
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        pieces.append(draw(letters(k, max_size=60)))
        base = draw(letters(k, period, period))
        length = draw(st.integers(period, 4 * period + 10))
        pieces.append((base * (length // period + 1))[:length])
    data = b"".join(pieces)
    p = min(period * draw(st.sampled_from([1, 1, 2])), len(data) - 1)
    return data, max(p, 1)


@st.composite
def random_word(draw):
    data = draw(letters(draw(st.sampled_from([2, 3])), min_size=2,
                        max_size=400))
    return data, draw(st.integers(1, len(data) - 1))


@st.composite
def scan_case(draw):
    data, p = draw(st.one_of(planted(), random_word()))
    # planted runs are shorter than 3p + 10, so banded lengths stop near
    # there to leave something to find
    min_len = draw(st.one_of(
        st.integers(1, CROSSOVER - 1),
        st.integers(CROSSOVER, max(CROSSOVER, 2 * p + 20))))
    return data, p, min_len


# every period banded, or none
cutover = st.sampled_from([1, 10**9])


def stretch_in_filler(period: int, repeats: int, filler: int, seed: int):
    """Random binary filler around ``repeats`` copies of a random block."""
    rng = random.Random(seed)
    noise = [bytes(rng.randrange(2) for _ in range(n))
             for n in (period, filler, filler)]
    return noise[1] + noise[0] * repeats + noise[2]


@settings(max_examples=300, deadline=None)
@given(scan_case())
# runs that cross dozens of samples: one reaching both ends of the word, one
# ending inside it
@example((stretch_in_filler(300, 10, 0, 1), 300, 100))
@example((stretch_in_filler(300, 10, 150, 2), 300, 100))
def test_agreement_runs_match_brute_force(case):
    # both readers of one period: its mask in the period loop with no band,
    # and a band of that period alone
    data, p, min_len = case
    expected = brute_agreement_runs(data, p, min_len)
    with mock.patch.object(repetitions, "_BAND_STRIDE", 10**9):
        runs = itertools.takewhile(lambda r: r[0] <= p,
                                   _runs(data, lambda _: min_len))
        assert [(a, b) for q, a, b in runs if q == p] == expected
    assert list(_band_runs(data, p, p + 1, min_len)) == [
        (p, a, b) for a, b in expected]


def test_agreement_runs_read_each_run_off_one_mask():
    # the band's extension walks the 40 periods' samples, then reads both
    # ends of the run off one mask
    data = stretch_in_filler(100, 40, 1000, 3)
    with mock.patch.object(repetitions, "_mismatch_mask",
                           wraps=repetitions._mismatch_mask) as mask:
        runs = list(_band_runs(data, 100, 200, 150))
    assert runs == [(p, a, b) for p in range(100, 200)
                    for a, b in brute_agreement_runs(data, p, 150)]
    assert len(runs) == 1 and runs[0][2] - runs[0][1] >= 3900
    assert mask.call_count == 1


@st.composite
def packed_case(draw):
    """A word over 1 to 10 letters, periodic with up to 6 letters redrawn
    or random, a period p <= n (so n - p may be 0) and a run length k from
    0 to one past the longest possible."""
    size = draw(st.integers(1, 10))
    n = draw(st.integers(1, 200))
    if draw(st.booleans()):
        base = draw(letters(size, 1, 12))
        data = bytearray((base * (n // len(base) + 1))[:n])
        for i in draw(st.lists(st.integers(0, n - 1), max_size=6)):
            data[i] = draw(st.integers(0, size - 1))
    else:
        data = draw(letters(size, n, n))
    p = draw(st.integers(1, n))
    return bytes(data), p, draw(st.integers(0, n - p + 1))


def one_run(base: bytes, m: int, k: int):
    """(data, p, k): base repeated to len(base) + m letters between two
    letters that break its period, so that at p = len(base) the word's one
    run has m agreements."""
    p = len(base)
    body = (base * (m // p + 2))[:p + m]
    return bytes([base[-1] ^ 1]) + body + bytes([base[m % p] ^ 1]), p, k


@settings(max_examples=500, deadline=None)
@given(packed_case())
# a run of k and one of k - 1 at k = 2**m - 1, 2**m and 2**m + 1, in lanes
# of 1, 2 and 4 bits: the doubling fills k exactly, or stops short and one
# last shift of k - span (2**(m-1) - 1 or 1) ends it
@example(one_run(b"\0\1\1", 7, 7))
@example(one_run(b"\3\0\2\1\2", 7, 8))
@example(one_run(b"\7\0\4\2", 8, 8))
@example(one_run(b"\0\1\1", 8, 9))
@example(one_run(b"\3\0\2\1\2", 9, 9))
@example(one_run(b"\7\0\4\2", 6, 7))
@example(one_run(b"\7\0\4\2", 63, 63))
@example(one_run(b"\0\1\1", 63, 64))
@example(one_run(b"\3\0\2\1\2", 64, 64))
@example(one_run(b"\7\0\4\2", 64, 65))
@example(one_run(b"\0\1\1", 65, 65))
@example(one_run(b"\3\0\2\1\2", 62, 63))
# lanes of 1, 2 and 4 bits; k = 0 and n - p = 0
@example((b"\0\1" * 20, 2, 38))
@example((b"\0\1\3\2" * 10 + b"\1", 4, 37))
@example((b"\0\4\1\4" * 10, 4, 36))
@example((b"\0", 1, 0))
@example((b"\3\3\3", 3, 0))
@example((b"\0\0", 2, 1))
# 3-bit lanes would fold in the low bit of the lane before: 1 ^ 0 at
# position 0 would mark position 1's agreement a mismatch
@example((b"\1\0\0\4", 1, 1))
def test_packed_run_test_matches_brute_force(case):
    # True iff some k positions in a row agree at p: the short periods
    # whose test fails are the ones with no run of k
    data, p, k = case
    assert _holds_run(_packed(data), p, k) == (
        k == 0 or bool(brute_agreement_runs(data, p, k)))


def test_packed_lanes_are_the_fewest_power_of_two_bits():
    for size in range(1, 11):
        x, w, ones = _packed(bytes(range(size)))
        assert w == (1 if size <= 2 else 2 if size <= 4 else 4)
        assert x == int("".join(map(str, range(size))), 1 << w)
        assert ones == int("1" * size, 1 << w)
    assert _packed(b"") == (0, 1, 0)


@st.composite
def band_case(draw):
    """Filler and stretches of a short period d, with a band [low, top) of
    at most an octave and a least run length: the band holds several
    multiples of d, so one sample hits several of its periods."""
    k = draw(st.sampled_from([2, 3]))
    d = draw(st.integers(1, 8))
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        pieces.append(draw(letters(k, max_size=40)))
        base = draw(letters(k, d, d))
        length = draw(st.integers(d, 300))
        pieces.append((base * (length // d + 1))[:length])
    data = b"".join(pieces)
    low = draw(st.integers(1, 80))
    top = draw(st.integers(low + 1, 2 * low))
    return data, low, top, draw(st.integers(1, 2 * low + 20))


@settings(max_examples=300, deadline=None)
@given(band_case())
@example((b"\0\1" * 150, 20, 40, 31))               # every even period
@example((b"\0\1\2" * 40 + b"\1" + b"\0\1\2" * 40, 30, 60, 45))
@example((stretch_in_filler(7, 30, 50, 4), 14, 28, 16))
def test_band_runs_match_brute_force(case):
    data, low, top, min_len = case
    assert list(_band_runs(data, low, top, min_len)) == [
        (p, a, b) for p in range(low, top)
        for a, b in brute_agreement_runs(data, p, min_len)]


@st.composite
def noisy_periodic(draw):
    """A periodic word over 2 or 3 letters with up to 4 letters redrawn."""
    k = draw(st.sampled_from([2, 3]))
    base = draw(letters(k, 1, 40))
    n = draw(st.integers(1, 240))
    data = bytearray((base * (n // len(base) + 1))[:n])
    for i in draw(st.lists(st.integers(0, n - 1), max_size=4)):
        data[i] = draw(st.integers(0, k - 1))
    return bytes(data)


def scan_runs(runs, data: bytes, kind: str):
    """Every (p, a, b) that ``runs`` yields for one of the callers' needs.
    "tying" is max_factor_exponent's: it reads the best exponent so far,
    which this loop raises as runs arrive, and the period of the last run,
    past which a tie at that period no longer counts."""
    best = [1, 1, 0]       # length, period, period of the last run
    need = {
        "phase 1": lambda p: p + p // 2 + 1,                # xyxyx, x > y
        "5/2+": lambda p: (5 * p) // 2 + 1 - p,             # is_power_free
        "5/2": lambda p: (5 * p - 1) // 2 + 1 - p,          # not strict
        "2+": lambda p: p + 1,
        "tying": lambda p: max(1, -((p * (best[1] - best[0])) // best[1])
                               + (p == best[2])),
    }[kind]
    out = []
    for p, a, b in runs(data, need):
        out.append((p, a, b))
        best[2] = p
        if (b - a + p) * best[1] > best[0] * p:
            best[:2] = [b - a + p, p]
    return out


@settings(max_examples=300, deadline=None)
@given(noisy_periodic(), st.sampled_from(["phase 1", "5/2+", "5/2", "2+",
                                          "tying"]),
       cutover)
def test_runs_match_brute_force(data, kind, cut):
    with mock.patch.object(repetitions, "_BAND_STRIDE", cut):
        got = scan_runs(_runs, data, kind)
    assert got == scan_runs(brute_runs, data, kind)


G_OF_F = named("g").apply(named("f").iterate_prefix(0, 2500)).letters[:2500]


# at the inner cutover 16 the phase-1 and 5/2+ needs band from p = 20
@pytest.mark.parametrize("cut", [1, 16, 10**9])
@pytest.mark.parametrize("data", [G_OF_F, b"\0\1" * 600,
                                  stretch_in_filler(40, 20, 300, 5)],
                         ids=["g-of-f", "period-2", "period-40"])
@pytest.mark.parametrize("kind", ["phase 1", "5/2+", "tying"])
def test_runs_read_need_once_per_period(data, kind, cut):
    # need(p) is read on reaching p, before any run of p is yielded, and at
    # most once more for each run yielded at p; the reads never go down in p
    reads = []

    def need(p):
        reads.append(p)
        return inner(p)

    inner = {"phase 1": lambda p: p + p // 2 + 1,
             "5/2+": lambda p: (5 * p) // 2 + 1 - p,
             "tying": lambda p: max(1, p // 2)}[kind]
    yielded = Counter()
    with mock.patch.object(repetitions, "_BAND_STRIDE", cut):
        for p, _, _ in _runs(data, need):
            assert reads[-1] == p
            yielded[p] += 1
    assert reads == sorted(reads)
    assert all(n <= 1 + yielded[p] for p, n in Counter(reads).items())


THUE_MORSE = named("mu").iterate_prefix(0, 2500).letters
PERIOD_40 = stretch_in_filler(40, 20, 300, 5)


@pytest.mark.parametrize("data", [G_OF_F, THUE_MORSE, PERIOD_40],
                         ids=["g-of-f", "thue-morse", "period-40"])
@pytest.mark.parametrize("kind", ["phase 1", "5/2+", "tying"])
def test_runs_build_one_mask_per_short_period(data, kind):
    # with no band, a period builds its mask once, after its packed test
    # passes, and reads every run off it however often need is re-read
    # there; a period whose test fails builds none
    passed, masks = [], []
    holds, mismatch = repetitions._holds_run, repetitions._mismatch_mask

    def spy_holds(packed, p, k):
        if holds(packed, p, k):
            passed.append(p)
            return True
        return False

    def spy_mask(data, p):
        masks.append(p)
        return mismatch(data, p)

    with mock.patch.object(repetitions, "_BAND_STRIDE", 10**9), \
            mock.patch.object(repetitions, "_holds_run", spy_holds), \
            mock.patch.object(repetitions, "_mismatch_mask", spy_mask):
        runs = scan_runs(_runs, data, kind)
    assert masks == passed == sorted(set(passed))
    assert {p for p, _, _ in runs} <= set(masks)
    if data is PERIOD_40 and kind != "5/2+":
        assert (len(masks), len(runs)) == \
            {"phase 1": (14, 296), "tying": (2, 5)}[kind]


@pytest.mark.parametrize("cut", [1, _BAND_STRIDE, 10**9])
@pytest.mark.parametrize("word, runs", [
    (Word(G_OF_F, 3), 4), (named("mu").iterate_prefix(0, 2500), 18)],
    ids=["g-of-f", "thue-morse"])
def test_max_factor_exponent_sees_one_run_per_period(word, runs, cut):
    # a tie at a period already seen starts later and loses, so need turns
    # strict there: 4 and 18 runs reach the loop, where reading need once
    # per period handed it 1424 and 2069
    seen, scan = [], repetitions._runs

    def spy(data, need):
        for run in scan(data, need):
            seen.append(run)
            yield run

    with mock.patch.object(repetitions, "_BAND_STRIDE", cut), \
            mock.patch.object(repetitions, "_runs", spy):
        max_factor_exponent(word)
    assert len(seen) == runs == len({p for p, _, _ in seen})


@pytest.mark.parametrize("cut", [1, _BAND_STRIDE, 10**9])
@pytest.mark.parametrize("n", [2500, 20000])
def test_threshold_one_not_strict_asks_for_empty_runs(n, cut):
    # need(1) is 0 there, and the first letter is the witness
    data = named("g").apply(named("f").iterate_prefix(0, n)).letters[:n]
    with mock.patch.object(repetitions, "_BAND_STRIDE", cut):
        witness = is_power_free(Word(data, 3), 1, strict=False)
    assert witness == RepetitionWitness(0, 1, 1)


def test_agreement_runs_with_min_len_zero_end():
    # an empty needle is found at every position: the reader must still
    # move past each run's end, so it yields at most one run for each of
    # the mask's n - 3 positions and one at its end
    with mock.patch.object(repetitions, "_BAND_STRIDE", 10**9):
        scan = itertools.takewhile(lambda r: r[0] <= 3,
                                   _runs(G_OF_F, lambda _: 0))
        runs = [(a, b) for q, a, b in itertools.islice(scan, 3 * len(G_OF_F))
                if q == 3]
    assert len(runs) <= len(G_OF_F) - 2
    assert [(a, b) for a, b in runs if a < b] == brute_agreement_runs(
        G_OF_F, 3, 1)


thresholds = st.builds(Fraction, st.integers(1, 13), st.integers(1, 4)).filter(
    lambda t: t >= 1)


@settings(max_examples=200, deadline=None)
@given(letters(2, 1, 16), thresholds, st.booleans(), cutover)
def test_is_power_free_matches_brute_force(data, threshold, strict, cut):
    with mock.patch.object(repetitions, "_BAND_STRIDE", cut):
        witness = is_power_free(Word(data, 2), threshold, strict)
    assert (witness is None) == brute_avoids(data, threshold, strict)
    if witness is not None:
        piece = data[witness.start:witness.start + witness.length]
        assert len(piece) == witness.length
        assert brute_smallest_period(piece) == witness.period
        e = Fraction(witness.length, witness.period)
        assert e > threshold if strict else e >= threshold


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda k: letters(k, 1, 14)), cutover)
def test_max_factor_exponent_matches_brute_force(data, cut):
    value, (start, length, period) = brute_max_exponent(data)
    with mock.patch.object(repetitions, "_BAND_STRIDE", cut):
        e, witness = max_factor_exponent(Word(data, 3))
    assert e.value == value
    assert (witness.start, witness.length, witness.period) \
        == (start, length, period)


@st.composite
def tied(draw):
    """Filler and stretches that tie in exponent: num/den at periods den*m
    for several m, and squares xx where x begins with a square, so that a
    run of period 1 to 3 and one of period |x| share a start and a value."""
    k = draw(st.sampled_from([2, 3]))
    den = draw(st.integers(1, 4))
    num = draw(st.integers(den + 1, 3 * den))
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        pieces.append(draw(letters(k, max_size=30)))
        if draw(st.booleans()):
            m = draw(st.integers(1, 40 // den))
            base = draw(letters(k, den * m, den * m))
            pieces.append((base * (num // den + 1))[:num * m])
        else:
            x = draw(letters(k, 1, 3)) * 2 + draw(letters(k, 0, 20))
            pieces.append(x * 2)
    return b"".join(pieces)[:300]


@settings(max_examples=150, deadline=None)
@given(st.one_of(tied(), planted().map(lambda case: case[0]),
                 letters(2, 1, 300), letters(3, 1, 300)), cutover)
@example(bytes([0, 0, 1, 0, 0, 1]), _BAND_STRIDE)     # 2/1 twice at start 0
@example(bytes([0, 1, 1, 0, 1, 0, 0, 1]), _BAND_STRIDE)  # 2/1 and 4/2 tie
def test_max_factor_exponent_matches_best_run(data, cut):
    with mock.patch.object(repetitions, "_BAND_STRIDE", cut):
        e, witness = max_factor_exponent(Word(data, 3))
    length, period, start = brute_best_run(data)
    assert (e.length, e.period) == (length, period)
    assert (witness.start, witness.length, witness.period) \
        == (start, length, period)


# a periodic stretch, then a few letters that may break the period
periodic = st.builds(lambda base, n, tail: (base * n)[:n] + tail,
                     st.sampled_from([b"\0\1", b"\0\1\0", b"\0\1\2\1"]),
                     st.integers(1, 120), letters(3, 0, 3))


@st.composite
def periodic_over(draw):
    """A periodic word, its letters shifted cyclically over 3 or 4 letters,
    with that alphabet size; its stretches reach periods of about 44, and
    the band cutover at 1 bands every one of them."""
    k, shift = draw(st.sampled_from([3, 4])), draw(st.integers(0, 3))
    return bytes((c + shift) % k for c in draw(periodic)), k


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.sampled_from([2, 3, 4]).flatmap(
        lambda k: st.tuples(letters(k, 0, 24), st.just(k))),
    periodic_over()), cutover)
def test_find_dominated_xyxyx_matches_brute_force(case, cut):
    data, k = case
    with mock.patch.object(repetitions, "_BAND_STRIDE", cut):
        occ = find_dominated_xyxyx(Word(data, k))
    got = None if occ is None else (occ.start, occ.x_length, occ.y_length)
    assert got == brute_dominated_xyxyx(data, k)


@settings(max_examples=300, deadline=None)
@given(st.one_of(letters(2, 1, 300), letters(3, 1, 300), periodic))
def test_smallest_period_matches_brute_force(data):
    assert smallest_period(Word(data, 3)) == brute_smallest_period(data)


F_POINT = named("f").iterate_prefix(0, 400).letters
H_POINT = named("h").iterate_prefix(1, 400).letters


def clean_blocks(point: bytes, side: int) -> list[bytes]:
    """The windows of 10 to 40 letters of ``point`` whose cube, read
    backwards when ``side`` is -1, holds no forbidden factor: repeated,
    one leaves a stretch that only the xyxyx search can report."""
    return sorted({point[at:at + size] for at in range(360)
                   for size in range(10, 41)
                   if not any(f in (point[at:at + size] * 3)[::side]
                              for f in FORBIDDEN_FACTORS)})


F_BLOCKS, H_BLOCKS = clean_blocks(F_POINT, 1), clean_blocks(H_POINT, -1)


@st.composite
def level_word(draw):
    """A random ternary word, or a stretch of f's or h's fixed point behind
    a planted front of (0121)^k, (01)^k, (10)^k and forbidden factors, and
    often a clean block of either repeated past exponent 5/2: one stretch
    that offers many x at each start."""
    if draw(st.booleans()):
        return draw(letters(3, 0, 40))
    front = b""
    for _ in range(draw(st.integers(0, 3))):
        base = draw(st.sampled_from([b"\0\1\2\1", b"\0\1", b"\1\0",
                                     *FORBIDDEN_FACTORS]))
        front += base * draw(st.integers(1, 8 if len(base) < 5 else 2))
    if draw(st.booleans()):
        block = draw(st.sampled_from(F_BLOCKS + H_BLOCKS))
        size = len(block)
        front += (block * 4)[:draw(st.integers(5 * size // 2 + 1, 4 * size))]
    point = draw(st.sampled_from([F_POINT, H_POINT]))
    start = draw(st.integers(0, 300))
    return front + point[start:start + draw(st.integers(0, 40))]


def report_tuple(report):
    v = report.violation
    if v is None:
        return report.trim, None
    detail = v.detail
    if v.kind == "xyxyx":
        detail = (detail.start, detail.x_length, detail.y_length)
    return report.trim, (v.kind, v.position, detail)


# On the antiproper side a later candidate can start before an earlier
# forgiven one; it must be passed over, not forgiven again.
@example(bytes([0, 1, 2, 1]) * 3 + bytes([0]), None, True, _BAND_STRIDE)
# every start of a repeated block holds a dominated occurrence, forgiven
# or reported, and on the antiproper side the trim caps x
@example(F_BLOCKS[7] * 3, None, False, 1)
@example(F_BLOCKS[7] * 3, 30, False, 10**9)
@example(H_BLOCKS[7] * 3, None, True, 1)
@example(H_BLOCKS[7] * 3, 30, True, 10**9)
@settings(max_examples=400, deadline=None)
@given(level_word(), st.sampled_from([0, 1, 5, 64, None]), st.booleans(),
       cutover)
def test_report_matches_rerun_loop(data, bound, mirrored, cut):
    bound = len(data) if bound is None else bound
    with mock.patch.object(repetitions, "_BAND_STRIDE", cut):
        report = forgiving_scan(Word(data, 3), bound, mirrored=mirrored)
    assert report_tuple(report) == brute_report(data, bound, mirrored)
    assert report.checked_length == len(data) - report.trim


MARKER_MORPHISMS = ["g", "f", "h", "tau"]


@st.composite
def cut_image(draw):
    """A marker morphism and an image of a random word with up to the
    margin (longest image length minus one) cut off each end."""
    m = named(draw(st.sampled_from(MARKER_MORPHISMS)))
    image = m.apply(Word(draw(letters(m.source_alphabet, 0, 30)),
                         m.source_alphabet)).letters
    margin = max(len(img) for img in m.images) - 1
    lo, hi = draw(st.integers(0, margin)), draw(st.integers(0, margin))
    return m, image[lo:max(lo, len(image) - hi)]


@st.composite
def noise(draw):
    m = named(draw(st.sampled_from(MARKER_MORPHISMS)))
    return m, draw(letters(m.target_alphabet, 0, 30))


@settings(max_examples=400, deadline=None)
@given(st.one_of(cut_image(), noise()))
def test_decode_matches_brute_force(case):
    m, data = case
    expected = brute_decode(m, Word(data, m.target_alphabet))
    try:
        result = decode(m, Word(data, m.target_alphabet))
    except DecodeError as exc:
        assert expected == (exc.position, str(exc))
        return
    assert expected == (result.preimage.letters, result.dropped_prefix,
                        result.truncated_suffix)


@pytest.mark.parametrize("name", ["mu", "theta", "sigma", "sigma_inv"])
def test_decode_refuses_morphisms_without_a_marker(name):
    m = named(name)
    with pytest.raises(ValueError, match="cannot be decoded"):
        decode(m, m.apply(Word(bytes(m.source_alphabet), m.source_alphabet)))


# Prefixes of the f and h fixed points and g of the f one, as ternary and
# binary letters.
CLASS_SOURCES = [(named("f").iterate_prefix(0, 1500).letters, 3),
                 (named("h").iterate_prefix(1, 1500).letters, 3),
                 (named("g").apply(named("f").iterate_prefix(0, 800)).letters,
                  2)]


@st.composite
def class_window(draw):
    data, k = draw(st.sampled_from(CLASS_SOURCES))
    start = draw(st.integers(0, len(data) - 1))
    return data[start:start + draw(st.integers(0, 150))], k


# Alphabet 10 puts letter 9 next to the 0xFF padding.
random_letters = st.sampled_from([1, 2, 3, 10]).flatmap(
    lambda k: st.tuples(letters(k, 0, 60), st.just(k)))


@example((b"", 1), 0)
@example((b"", 2), 7)
@settings(max_examples=400, deadline=None)
@given(st.one_of(random_letters, class_window()), st.integers(0, 90))
def test_complexity_profile_matches_brute_force(case, max_n):
    data, k = case
    assert complexity_profile(Word(data, k), max_n) == [
        brute_factor_count(data, n) for n in range(max_n + 1)]


# 2000-letter prefixes of the f and h fixed points and of g of the f one.
LONG_CLASS_SOURCES = [
    (named("f").iterate_prefix(0, 2000).letters, 3),
    (named("h").iterate_prefix(1, 2000).letters, 3),
    (named("g").apply(named("f").iterate_prefix(0, 1100)).letters[:2000], 2)]


@st.composite
def sampled_case(draw):
    """(data, k, max_n) with 1 <= max_n <= |data| / 8, so that ``_windows``
    cuts its windows from samples at least 2 letters apart: a random word over
    1, 2, 3 or 10 letters, a periodic word with up to 3 letters redrawn, or
    a class window of up to 2000 letters."""
    kind = draw(st.sampled_from(["random", "periodic", "window"]))
    n = draw(st.integers(8, 2000))
    if kind == "window":
        data, k = draw(st.sampled_from(LONG_CLASS_SOURCES))
        start = draw(st.integers(0, len(data) - n))
        data = data[start:start + n]
    elif kind == "random":
        k = draw(st.sampled_from([1, 2, 3, 10]))
        data = draw(letters(k, n, n))
    else:
        k = draw(st.sampled_from([1, 2, 3, 10]))
        base = draw(letters(k, 1, 8))
        redrawn = bytearray((base * n)[:n])
        for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            redrawn[i] = draw(st.integers(0, k - 1))
        data = bytes(redrawn)
    return data, k, draw(st.integers(1, min(40, n // 8)))


@settings(max_examples=150, deadline=None)
@given(sampled_case())
@example((bytes(16), 1, 0))
@example((bytes([9, 0]) * 8, 10, 1))
@example((bytes([0, 1, 1, 0]) * 500, 2, 0))
@example((bytes([0, 1, 1, 0]) * 500, 2, 1))
def test_complexity_profile_from_samples_matches_brute_force(case):
    data, k, max_n = case
    assert complexity_profile(Word(data, k), max_n) == [
        brute_factor_count(data, n) for n in range(max_n + 1)]


@settings(max_examples=150, deadline=None)
@given(sampled_case())
@example((bytes(16), 1, 0))
@example((bytes([9, 0]) * 8, 10, 1))
def test_factors_of_length_from_samples_match_brute_force(case):
    data, k, max_n = case
    for n in {0, 1, max_n}:
        factors = factors_of_length(Word(data, k), n)
        assert {f.alphabet_size for f in factors} == {k}
        assert {f.letters for f in factors} == brute_factors(data, n)


# Words of 0 to 40 letters, some shorter than every stride below and some
# ending in letter 9, next to the padding.
FIXED_WORDS = [(b"", 1), (bytes([0]), 2), (bytes([0, 1, 1, 0]), 2),
               (bytes([9] * 5), 10), (bytes(range(10)) * 2, 10),
               (named("g").apply(named("f").iterate_prefix(0, 40))
                .letters[:40], 2),
               (named("h").iterate_prefix(1, 33).letters, 3)]


@pytest.mark.parametrize("stride", range(1, 17))
def test_windows_cut_at_any_stride_match_brute_force(stride):
    with mock.patch.object(words, "_stride", lambda length, size: stride):
        for data, k in FIXED_WORDS:
            w = Word(data, k)
            counts = [brute_factor_count(data, n)
                      for n in range(len(data) + 3)]
            for max_n in range(len(data) + 3):
                assert complexity_profile(w, max_n) == counts[:max_n + 1]
                assert ({f.letters for f in factors_of_length(w, max_n)}
                        == brute_factors(data, max_n))


@st.composite
def class_word(draw):
    """A binary word of 4 to 60 letters: a window of a word of one of the
    four classes, perhaps with a few letters flipped, or a short periodic
    or random word."""
    kind = draw(st.sampled_from(["window", "flipped", "periodic", "random"]))
    if kind == "random":
        return draw(letters(2, 4, 60))
    if kind == "periodic":
        base = draw(letters(2, 1, 6))
        n = draw(st.integers(4, 60))
        return (base * n)[:n]
    w = generate_case_word(draw(st.sampled_from(list(CaseTag))),
                           draw(st.integers(0, 2)), 200).letters
    n = draw(st.integers(4, 60))
    start = draw(st.integers(0, len(w) - n))
    data = bytearray(w[start:start + n])
    if kind == "flipped":
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
            data[i] ^= 1
    return bytes(data)


@settings(max_examples=400, deadline=None)
@given(class_word())
@example(bytes([0, 0, 1, 1]) * 4)           # every case is compatible
@example(bytes([0, 0, 0, 0, 1, 1, 1, 1]))   # inconsistent
@example(bytes([0, 1, 1, 0]))               # one factor
def test_classify_matches_brute_force(data):
    cls = classify_by_length4(Word(data, 2))
    got = (cls.tag and cls.tag.value, tuple(t.value for t in cls.compatible),
           tuple(map(str, cls.offenders)))
    assert got == brute_classify(data)


# |g f^k(0)| = 3, 7, 23, 70 and |g h^k(1)| = 1, 6, 17, 53 for k = 0..3: the
# examples sit one letter under, at and over each, where the number of
# levels built changes
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(CaseTag)), st.integers(0, 16),
       st.integers(0, 3000))
@example(CaseTag.F, 0, 0)
@example(CaseTag.FREV, 0, 0)
@example(CaseTag.F, 0, 2)
@example(CaseTag.F, 0, 3)
@example(CaseTag.F, 0, 4)
@example(CaseTag.F, 1, 6)
@example(CaseTag.F, 1, 7)
@example(CaseTag.F, 1, 8)
@example(CaseTag.FBAR, 2, 22)
@example(CaseTag.FBAR, 2, 23)
@example(CaseTag.FBAR, 2, 24)
@example(CaseTag.FBAR, 3, 69)
@example(CaseTag.FBAR, 3, 70)
@example(CaseTag.FBAR, 3, 71)
@example(CaseTag.FREV, 0, 1)
@example(CaseTag.FREV, 0, 2)
@example(CaseTag.FREV, 1, 5)
@example(CaseTag.FREV, 1, 6)
@example(CaseTag.FREV, 1, 7)
@example(CaseTag.FBARREV, 2, 16)
@example(CaseTag.FBARREV, 2, 17)
@example(CaseTag.FBARREV, 2, 18)
@example(CaseTag.FBARREV, 3, 52)
@example(CaseTag.FBARREV, 3, 53)
@example(CaseTag.FBARREV, 3, 54)
def test_generate_matches_brute_force(case, depth, n):
    reversed_ = case in (CaseTag.FREV, CaseTag.FBARREV)
    inner, seed = (named("h"), 1) if reversed_ else (named("f"), 0)
    expected = brute_apply(named("g"),
                           brute_fixed_point_prefix(inner, seed, n))[:n]
    if case in (CaseTag.FBAR, CaseTag.FBARREV):
        expected = bytes(1 - b for b in expected)
    assert generate_case_word(case, depth, n).letters == expected
