import random
from fractions import Fraction
from unittest import mock

import pytest

from rotewords import (AlphabetError, LengthLimitError, PropernessReport,
                       Violation, Word, find_dominated_xyxyx, forgiving_scan,
                       is_antiproper, is_power_free, is_proper, named,
                       parse_word, reverse)
from rotewords import properness

from oracles import all_words, brute_dominated_xyxyx, brute_proper


def w3(text):
    return parse_word(text, 3)


def occ_tuple(occ):
    return None if occ is None else (occ.start, occ.x_length, occ.y_length)


def test_find_examples():
    # The worked decomposition x=0121, y=empty exists at (0, 4, 0), but the
    # tie-break (start, then x length, then y length) selects x=012, y=1.
    assert occ_tuple(find_dominated_xyxyx(w3("012101210121"))) == (0, 3, 1)
    assert occ_tuple(find_dominated_xyxyx(w3("2101021010210"))) == (0, 3, 2)
    assert find_dominated_xyxyx(w3("012")) is None


def test_occurrence_total_length_counts_three_x_and_two_y():
    # 012 1 012 1 012
    occ = find_dominated_xyxyx(w3("012101210121"))
    assert occ.total_length == 3 * 3 + 2 * 1 == 11


def test_search_without_stretches_builds_no_counts():
    # 012012 is a square, of exponent 2, so phase 1 finds no run that can
    # host an occurrence and phase 2 is never set up
    with mock.patch.object(properness, "accumulate",
                           side_effect=AssertionError("counts built")):
        assert properness._xyxyx_search(bytes([0, 1, 2, 0, 1, 2]), 3,
                                        lambda: 6) == ()


def test_find_matches_brute_force_exhaustively():
    for data in all_words(3, 8):
        u = Word(data, 3)
        assert occ_tuple(find_dominated_xyxyx(u)) == brute_dominated_xyxyx(data)


def test_find_matches_brute_force_on_longer_samples():
    rng = random.Random(53)
    for _ in range(300):
        data = bytes(rng.randrange(3) for _ in range(rng.randrange(9, 26)))
        assert occ_tuple(find_dominated_xyxyx(Word(data, 3))) \
            == brute_dominated_xyxyx(data)


def test_reported_occurrence_shape():
    rng = random.Random(59)
    for _ in range(400):
        data = bytes(rng.randrange(3) for _ in range(rng.randrange(20)))
        occ = find_dominated_xyxyx(Word(data, 3))
        if occ is None:
            continue
        s, x, y = occ.start, occ.x_length, occ.y_length
        assert x > y >= 0
        assert data[s:s + x] == data[s + x + y:s + 2 * x + y] \
            == data[s + 2 * x + 2 * y:s + 3 * x + 2 * y]
        assert data[s + x:s + x + y] == data[s + 2 * x + y:s + 2 * x + 2 * y]


def test_cubes_are_caught():
    assert occ_tuple(find_dominated_xyxyx(w3("000"))) == (0, 1, 0)
    assert occ_tuple(find_dominated_xyxyx(w3("121212"))) == (0, 2, 0)


def test_is_proper_examples():
    assert is_proper(w3("0121021")) is None
    v = is_proper(w3("010101"))
    assert v.kind == "forbidden_factor" and v.detail == "10101" and v.position == 1
    v = is_proper(w3("012101210121"))
    assert v.kind == "xyxyx" and v.position == 0


def test_is_proper_requires_ternary():
    with pytest.raises(AlphabetError):
        is_proper(parse_word("0101", 2))


def test_is_proper_matches_brute_force():
    for data in all_words(3, 7):
        got = is_proper(Word(data, 3))
        expected = brute_proper(data)
        if expected is None:
            assert got is None
        else:
            assert (got.kind, got.position) == expected[:2]


def test_proper_factor_closed():
    rng = random.Random(61)
    kept = 0
    while kept < 40:
        data = bytes(rng.randrange(3) for _ in range(rng.randrange(1, 14)))
        u = Word(data, 3)
        if is_proper(u) is not None:
            continue
        kept += 1
        for i in range(len(u)):
            for j in range(i, len(u) + 1):
                assert is_proper(u[i:j]) is None


def test_antiproper_examples():
    assert is_antiproper(w3("1201210")) is None
    v = is_antiproper(w3("001201201"))
    assert v is not None        # contains the reverse of 10210210
    assert v.detail == "01201201"
    assert is_antiproper(w3("")) is None


def test_antiproper_positions_map_back():
    rng = random.Random(67)
    for _ in range(300):
        data = bytes(rng.randrange(3) for _ in range(rng.randrange(18)))
        u = Word(data, 3)
        v = is_antiproper(u)
        assert (v is None) == (is_proper(reverse(u)) is None)
        if v is None:
            continue
        if v.kind == "forbidden_factor":
            pat = bytes(int(c) for c in v.detail)
            assert data[v.position:v.position + len(pat)] == pat
        else:
            occ = v.detail
            s, x, y = occ.start, occ.x_length, occ.y_length
            assert v.position == s
            assert data[s:s + x] == data[s + x + y:s + 2 * x + y] \
                == data[s + 2 * x + 2 * y:s + 3 * x + 2 * y]


def test_dominated_xyxyx_forces_power_in_g_image():
    # a dominated xyxyx in u forces a 5/2+ power in g(u); length <= 7 here,
    # the acceptance suite goes to 10
    g = named("g")
    for data in all_words(3, 7):
        u = Word(data, 3)
        if find_dominated_xyxyx(u) is not None:
            assert is_power_free(g.apply(u), Fraction(5, 2), True) is not None


def test_dominated_xyxyx_persists_through_f():
    f = named("f")
    for data in all_words(3, 8):
        v = Word(data, 3)
        if find_dominated_xyxyx(v) is not None:
            assert find_dominated_xyxyx(f.apply(v)) is not None


def test_length_guard():
    long_word = Word(bytes(20001), 3)
    with pytest.raises(LengthLimitError):
        find_dominated_xyxyx(long_word)
    with pytest.raises(LengthLimitError):
        is_proper(long_word, max_length=100)
    with pytest.raises(LengthLimitError):
        is_antiproper(long_word)
    with pytest.raises(LengthLimitError):
        is_antiproper(long_word, max_length=100)
    assert find_dominated_xyxyx(Word(bytes([0, 1] * 60), 3),
                                max_length=None) is not None
    # max_length=None lifts the guard; the forgiving scan behind the
    # checkers and the decomposition reports has none
    violation = Violation("forbidden_factor", 0, "00")
    assert is_proper(long_word, max_length=None) == violation
    assert forgiving_scan(long_word) == PropernessReport(20001, 0, violation)
