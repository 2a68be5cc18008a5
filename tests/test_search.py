import random
from fractions import Fraction

import pytest

from rotewords import (REFERENCE_ROWS, AlphabetError, Word, complement,
                       longest_avoiding, parse_word, reverse,
                       run_reference_table, suffix_is_52plus_power)

from oracles import all_words, brute_avoids


def whole_word_good(data: bytes, forbidden: list[bytes]) -> bool:
    if any(data[i:i + len(f)] == f
           for f in forbidden for i in range(len(data) - len(f) + 1)):
        return False
    return brute_avoids(data, Fraction(5, 2), True)


def oracle_longest(forbidden: list[str], cap: int):
    """Level-by-level enumeration of all good words, fully independent of
    the DFS; returns (max length, lexicographically least maximal word)."""
    forb = [bytes(int(c) for c in f) for f in forbidden]
    level = [b""]
    best = (0, b"")
    for _ in range(cap):
        nxt = [w + bytes([b]) for w in level for b in (0, 1)
               if whole_word_good(w + bytes([b]), forb)]
        if not nxt:
            break
        nxt.sort()
        level = nxt
        best = (len(level[0]), level[0])
    return best


@pytest.mark.parametrize("forbidden,cap", [(["0110"], 15), (["0011", "0101"], 15),
                                           (["0", "1"], 8), (["01"], 8),
                                           (["0010", "0100"], 12)])
def test_against_level_oracle(forbidden, cap):
    length, least = oracle_longest(forbidden, cap)
    outcome = longest_avoiding(forbidden, cap)
    assert outcome.max_length == min(length, cap)
    if not outcome.reached_target:
        assert outcome.max_length == length
    assert outcome.witness.letters == least


def test_incremental_equals_whole_word_checks():
    # given a good parent, the suffix-only checks decide the child exactly
    # like whole-word checks do
    forb = [bytes([0, 1, 1, 0])]
    for data in all_words(2, 10, min_len=1):
        parent = data[:-1]
        if not whole_word_good(parent, forb):
            continue
        suffix_ok = (not any(data[-len(f):] == f for f in forb
                             if len(data) >= len(f))
                     and not suffix_is_52plus_power(Word(data, 2)))
        assert suffix_ok == whole_word_good(data, forb)


def test_reference_rows_shape():
    assert len(REFERENCE_ROWS) == 32
    assert REFERENCE_ROWS[0] == (("0110",), 14)
    assert REFERENCE_ROWS[-1] == (("1011", "1010"), 20)
    assert dict(REFERENCE_ROWS)[("0011", "0101")] == 12
    assert dict(REFERENCE_ROWS)[("0101", "1010", "00110011")] == 52


@pytest.mark.parametrize("forbidden,expected", [(("0110",), 14),
                                                (("0011", "0101"), 12),
                                                (("1011", "1010"), 20)])
def test_quick_reference_rows(forbidden, expected):
    outcome = longest_avoiding(forbidden, 200)
    assert outcome.max_length == expected
    assert not outcome.reached_target


def test_symmetry_of_maxima():
    for forbidden in (["0110"], ["0011", "0101"]):
        base = longest_avoiding(forbidden, 60).max_length
        comp = [str(complement(parse_word(f, 2))) for f in forbidden]
        rev = [str(reverse(parse_word(f, 2))) for f in forbidden]
        assert longest_avoiding(comp, 60).max_length == base
        assert longest_avoiding(rev, 60).max_length == base


def test_known_pair_maxima_match_under_symmetry():
    assert longest_avoiding(["0010", "0100"], 200).max_length == 44
    assert longest_avoiding(["1011", "1101"], 200).max_length == 44


def test_determinism():
    a = longest_avoiding(["0011", "0101"], 200)
    b = longest_avoiding(["0011", "0101"], 200)
    assert a == b


def test_node_counts_are_pinned():
    # the walk order is fully specified, so node counts are exact values;
    # a change here signals an algorithmic regression
    assert longest_avoiding(["0110"], 200).nodes_explored == 281
    assert longest_avoiding(["1011", "1010"], 200).nodes_explored == 441
    assert (longest_avoiding(["0101", "1010", "10110010"], 200).nodes_explored
            == 10765)
    # too deep for the brute-force loop
    assert longest_avoiding(["000", "111"], 2000).nodes_explored == 3860


# (computed, nodes) for each row of REFERENCE_ROWS, in order
REFERENCE_RESULTS = [
    (14, 281), (44, 3253), (28, 913), (13, 187), (13, 187), (28, 913),
    (44, 3253), (15, 263), (31, 1323), (12, 175), (18, 415), (15, 263),
    (31, 1323), (30, 1511), (24, 701), (50, 3713), (33, 1253), (50, 3713),
    (24, 701), (24, 717), (24, 717), (52, 4991), (33, 1253), (50, 3713),
    (24, 701), (24, 717), (24, 717), (24, 701), (88, 10765), (50, 3713),
    (52, 4991), (20, 441),
]


def test_reference_table_is_pinned():
    rows = run_reference_table()
    assert [(r.computed, r.nodes) for r in rows] == REFERENCE_RESULTS


def test_monotone_in_forbidden_set():
    rng = random.Random(71)
    pool = ["0110", "1001", "0011", "0101", "1010", "0010"]
    for _ in range(10):
        base = rng.sample(pool, 2)
        extra = base + [rng.choice([p for p in pool if p not in base])]
        assert (longest_avoiding(extra, 40).max_length
                <= longest_avoiding(base, 40).max_length)


def test_reached_target():
    outcome = longest_avoiding(["0110"], 10)
    assert outcome.reached_target and outcome.max_length == 10
    assert len(outcome.witness) == 10
    outcome = longest_avoiding(["0"], 5)
    assert not outcome.reached_target and outcome.max_length == 2
    assert str(outcome.witness) == "11"


def test_empty_target():
    outcome = longest_avoiding(["0110"], 0)
    assert outcome.reached_target and outcome.max_length == 0


def test_input_validation():
    with pytest.raises(ValueError):
        longest_avoiding(["0110"], -1)
    with pytest.raises(ValueError):
        longest_avoiding([""], 10)
    with pytest.raises(ValueError):
        longest_avoiding(["012"], 10)
    with pytest.raises(AlphabetError,
                       match="^forbidden factor 012 is not binary$"):
        longest_avoiding([parse_word("012", 3)], 10)
    # a bare word is not a set of factors: iterated, "0110" would forbid
    # the letters 0 and 1
    for call in (lambda: longest_avoiding("0110"),
                 lambda: longest_avoiding(parse_word("0110", 2)),
                 lambda: run_reference_table([("0110", 14)])):
        with pytest.raises(TypeError, match="bare (str|Word) '0110'"):
            call()


@pytest.mark.parametrize("target", [2.5, None, "5", Fraction(5)])
def test_target_must_be_an_integer(target):
    # refused before the factors are read: "012" is not binary either
    for call in (lambda: longest_avoiding(["012"], target),
                 lambda: run_reference_table(target=target)):
        with pytest.raises(TypeError, match="^target must be an integer"):
            call()


def test_target_takes_any_integer_type():
    assert longest_avoiding(["0110"], True) == longest_avoiding(["0110"], 1)


def test_run_reference_table_accepts_overrides():
    rows = run_reference_table([(("0110",), 14), (("0110",), 13)], target=40)
    assert rows[0].match and not rows[1].match
    assert rows[0].computed == rows[1].computed == 14
    assert len(rows[0].witness) == 14
