"""Differential tests: the sampled agreement-run scan, the whole-word
checks built on it, the properness reports, the block decoder and the
factor-complexity table, against the brute-force oracles.

The whole-word checks take the sampled path only once runs of 2 *
_DENSE_STRIDE - 1 letters are asked for, which short words never reach, so
those tests also run with the stride threshold lowered to 1, where every
period is sampled.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotewords import (FORBIDDEN_FACTORS, DecodeError, Word,
                       complexity_profile, decode, find_dominated_xyxyx,
                       is_power_free, max_factor_exponent, named,
                       smallest_period)
from rotewords import repetitions, structure
from rotewords.repetitions import _DENSE_STRIDE, _agreement_runs

from oracles import (brute_agreement_runs, brute_avoids, brute_best_run,
                     brute_decode, brute_dominated_xyxyx, brute_factor_count,
                     brute_max_exponent, brute_report, brute_smallest_period)

CROSSOVER = 2 * _DENSE_STRIDE - 1      # least min_len that is sampled


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
    # planted runs are shorter than 3p + 10, so sampled lengths stop near
    # there to leave something to find
    min_len = draw(st.one_of(
        st.integers(1, CROSSOVER - 1),
        st.integers(CROSSOVER, max(CROSSOVER, 2 * p + 20))))
    return data, p, min_len


stride = st.sampled_from([1, _DENSE_STRIDE])


@settings(max_examples=300, deadline=None)
@given(scan_case(), stride)
def test_agreement_runs_match_brute_force(case, dense):
    data, p, min_len = case
    with mock.patch.object(repetitions, "_DENSE_STRIDE", dense):
        runs = list(_agreement_runs(data, p, min_len))
    assert runs == brute_agreement_runs(data, p, min_len)


thresholds = st.builds(Fraction, st.integers(1, 13), st.integers(1, 4)).filter(
    lambda t: t >= 1)


@settings(max_examples=200, deadline=None)
@given(letters(2, 1, 16), thresholds, st.booleans(), stride)
def test_is_power_free_matches_brute_force(data, threshold, strict, dense):
    with mock.patch.object(repetitions, "_DENSE_STRIDE", dense):
        witness = is_power_free(Word(data, 2), threshold, strict)
    assert (witness is None) == brute_avoids(data, threshold, strict)
    if witness is not None:
        piece = data[witness.start:witness.start + witness.length]
        assert len(piece) == witness.length
        assert brute_smallest_period(piece) == witness.period
        e = Fraction(witness.length, witness.period)
        assert e > threshold if strict else e >= threshold


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda k: letters(k, 1, 14)), stride)
def test_max_factor_exponent_matches_brute_force(data, dense):
    value, (start, length, period) = brute_max_exponent(data)
    with mock.patch.object(repetitions, "_DENSE_STRIDE", dense):
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
                 letters(2, 1, 300), letters(3, 1, 300)), stride)
@example(bytes([0, 0, 1, 0, 0, 1]), _DENSE_STRIDE)    # 2/1 twice at start 0
@example(bytes([0, 1, 1, 0, 1, 0, 0, 1]), _DENSE_STRIDE)  # 2/1 and 4/2 tie
def test_max_factor_exponent_matches_best_run(data, dense):
    with mock.patch.object(repetitions, "_DENSE_STRIDE", dense):
        e, witness = max_factor_exponent(Word(data, 3))
    length, period, start = brute_best_run(data)
    assert (e.length, e.period) == (length, period)
    assert (witness.start, witness.length, witness.period) \
        == (start, length, period)


@settings(max_examples=200, deadline=None)
@given(letters(3, 0, 24), stride)
def test_find_dominated_xyxyx_matches_brute_force(data, dense):
    with mock.patch.object(repetitions, "_DENSE_STRIDE", dense):
        occ = find_dominated_xyxyx(Word(data, 3))
    got = None if occ is None else (occ.start, occ.x_length, occ.y_length)
    assert got == brute_dominated_xyxyx(data)


# a periodic stretch, then a few letters that may break the period
periodic = st.builds(lambda base, n, tail: (base * n)[:n] + tail,
                     st.sampled_from([b"\0\1", b"\0\1\0", b"\0\1\2\1"]),
                     st.integers(1, 120), letters(3, 0, 3))


@settings(max_examples=300, deadline=None)
@given(st.one_of(letters(2, 1, 300), letters(3, 1, 300), periodic))
def test_smallest_period_matches_brute_force(data):
    assert smallest_period(Word(data, 3)) == brute_smallest_period(data)


F_POINT = named("f").iterate_prefix(0, 400).letters
H_POINT = named("h").iterate_prefix(1, 400).letters


@st.composite
def level_word(draw):
    """A random ternary word, or a stretch of f's or h's fixed point behind
    a planted front of (0121)^k, (01)^k, (10)^k and forbidden factors."""
    if draw(st.booleans()):
        return draw(letters(3, 0, 40))
    front = b""
    for _ in range(draw(st.integers(1, 3))):
        base = draw(st.sampled_from([b"\0\1\2\1", b"\0\1", b"\1\0",
                                     *FORBIDDEN_FACTORS]))
        front += base * draw(st.integers(1, 8 if len(base) < 5 else 2))
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
@example(bytes([0, 1, 2, 1]) * 3 + bytes([0]), None, True, _DENSE_STRIDE)
@settings(max_examples=400, deadline=None)
@given(level_word(), st.sampled_from([0, 1, 5, 64, None]), st.booleans(),
       stride)
def test_report_matches_rerun_loop(data, bound, mirrored, dense):
    bound = len(data) if bound is None else bound
    with mock.patch.object(repetitions, "_DENSE_STRIDE", dense):
        report = structure._report(Word(data, 3), mirrored, bound, None)
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
    except DecodeError:
        assert expected is None
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
