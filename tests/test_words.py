import json
import math
import random
import tracemalloc
from dataclasses import dataclass
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rotewords import words
from rotewords.words import MAX_ALPHABET, Record
from rotewords import (AlphabetError, ParseError, Word, complement,
                       complexity_profile, dominates, factor_complexity,
                       factors_of_length, named, parikh, parse_word, reverse,
                       word)

from oracles import brute_factor_count


def w2(text):
    return parse_word(text, 2)


def w3(text):
    return parse_word(text, 3)


def test_parse_basic():
    assert parse_word("0121", 3).letters == bytes([0, 1, 2, 1])
    assert len(parse_word("", 2)) == 0


def test_parse_rejects_out_of_alphabet_digit():
    with pytest.raises(ParseError) as err:
        parse_word("012", 2)
    assert err.value.position == 2


def test_parse_rejects_non_digit():
    with pytest.raises(ParseError) as err:
        parse_word("01x1", 2)
    assert err.value.position == 2


def test_word_validates_letters():
    with pytest.raises(AlphabetError):
        Word(bytes([0, 3]), 3)
    with pytest.raises(AlphabetError):
        Word(b"\x00", 0)


# mostly small letters, so that some words fit the alphabet
letter_bytes = st.lists(st.one_of(st.integers(0, 11), st.integers(0, 255)),
                        max_size=30).map(bytes)


@given(letter_bytes, st.integers(1, MAX_ALPHABET))
def test_word_refuses_exactly_the_letters_outside_the_alphabet(data, k):
    bad = [i for i, b in enumerate(data) if b >= k]
    if not bad:
        assert Word(data, k).letters == data
        return
    with pytest.raises(AlphabetError) as err:
        Word(data, k)
    assert str(err.value) == (f"letter {data[bad[0]]} at position {bad[0]} "
                              f"is outside the {k}-letter alphabet")


@given(st.text("0123456789x", max_size=20),
       st.sampled_from([-1, 0, 1, 2, 3, 9, 10, 11, 256, 300]))
def test_parse_word_reads_letter_by_letter(text, k):
    # the first non-digit or digit outside the alphabet is the error;
    # with none, the alphabet size itself is checked
    bad = next((i for i, ch in enumerate(text)
                if not ch.isdigit() or int(ch) >= k), None)
    if bad is not None:
        with pytest.raises(ParseError) as err:
            parse_word(text, k)
        assert err.value.position == bad
    elif not 1 <= k <= MAX_ALPHABET:
        with pytest.raises(AlphabetError, match="alphabet size"):
            parse_word(text, k)
    else:
        assert str(parse_word(text, k)) == text


def test_alphabet_is_capped_at_ten_letters():
    # the text format has one digit per letter
    with pytest.raises(AlphabetError):
        Word(b"", 11)
    with pytest.raises(AlphabetError):
        parse_word("0123", 11)
    assert str(Word(bytes(range(10)), 10)) == "0123456789"


@pytest.mark.parametrize("text, k, position, message", [
    ("012", 2, 2, "letter 2 at position 2 is outside the 2-letter alphabet"),
    ("01x1", 2, 2, "non-digit character 'x' at position 2"),
    ("0 1", 2, 1, "non-digit character ' ' at position 1"),
    ("01\u0662", 3, 2, "non-digit character '\u0662' at position 2"),
    ("0\u00b9", 3, 1, "non-digit character '\u00b9' at position 1"),
    ("9x", 3, 0, "letter 9 at position 0 is outside the 3-letter alphabet"),
    ("0120x", 3, 4, "non-digit character 'x' at position 4"),
])
def test_parse_error_positions_and_messages(text, k, position, message):
    with pytest.raises(ParseError) as err:
        parse_word(text, k)
    assert err.value.position == position
    assert str(err.value) == message


def test_word_conveniences():
    u = w3("0121")
    assert u[1] == 1
    assert u[1:3] == w3("12")
    assert str(u) == "0121"
    assert u + w3("0") == w3("01210")
    with pytest.raises(AlphabetError):
        u + w2("0")
    assert word([0, 1, 2], 3) == w3("012")
    assert word("012", 3) == w3("012")
    assert list(u) == [0, 1, 2, 1] and list(w2("")) == []
    assert repr(u) == "Word('0121', k=3)"


@pytest.mark.parametrize("letters", [bytearray([1, 0, 2]), [1, 0, 2]],
                         ids=["bytearray", "list"])
def test_word_stores_any_letter_sequence_as_bytes(letters):
    u = Word(letters, 3)
    assert type(u.letters) is bytes and u.letters == b"\1\0\2"
    assert u == w3("102")


@pytest.mark.parametrize("other", ["01", b"\0\1", [0, 1]],
                         ids=["str", "bytes", "list"])
def test_adding_a_non_word_raises_type_error(other):
    # on either side: Word.__add__ declines, as the operand's own __add__
    # already does
    with pytest.raises(TypeError):
        w2("10") + other
    with pytest.raises(TypeError):
        other + w2("10")


def test_complement():
    assert complement(w2("1101")) == w2("0010")
    assert complement(w2("")) == w2("")
    assert complement(w2("0110")) == w2("1001")
    with pytest.raises(AlphabetError):
        complement(w3("012"))


def test_reverse():
    assert reverse(w2("1101")) == w2("1011")
    assert reverse(w2("")) == w2("")
    assert reverse(w3("021")) == w3("120")


def test_parikh():
    assert parikh(w3("012")) == (1, 1, 1)
    assert parikh(w3("")) == (0, 0, 0)
    assert parikh(w3("10210210")) == (3, 3, 2)


def test_dominates():
    assert dominates((1, 1, 1), (0, 0, 0))
    assert not dominates((1, 1, 1), (1, 1, 1))
    assert not dominates((2, 0, 1), (1, 1, 0))
    with pytest.raises(AlphabetError):
        dominates((1, 0), (1, 0, 0))


def test_dominates_is_strict_partial_order():
    vectors = [(a, b) for a in range(3) for b in range(3)]
    for v in vectors:
        assert not dominates(v, v)
    for a in vectors:
        for b in vectors:
            for c in vectors:
                if dominates(a, b) and dominates(b, c):
                    assert dominates(a, c)
    for a in vectors:
        for b in vectors:
            if dominates(a, b):
                assert sum(a) > sum(b)


def test_factors_of_length():
    u = w2("0110")
    assert factors_of_length(u, 4) == {u}
    assert factors_of_length(u, 2) == {w2("01"), w2("11"), w2("10")}
    assert factors_of_length(u, 5) == set()
    assert factors_of_length(u, 0) == {w2("")}


@pytest.mark.parametrize("count", [factors_of_length, complexity_profile,
                                   factor_complexity],
                         ids=["factors_of_length", "complexity_profile",
                              "factor_complexity"])
def test_negative_factor_length_is_refused(count):
    with pytest.raises(ValueError,
                       match="^factor length must be non-negative$"):
        count(w2("0110"), -1)


def test_factor_complexity_small():
    assert factor_complexity(w2("0110"), 2) == 3
    assert factor_complexity(w2("0110"), 0) == 1
    assert factor_complexity(w2(""), 0) == 1


def test_factor_complexity_past_the_word_builds_no_table():
    # n is past the word, so the answer is 0: a table of n + 1 rows
    # would be 8 MB of list at n = 10**6, and padded windows 5 MB of bytes
    tracemalloc.start()
    try:
        assert factor_complexity(w2("0110"), 10**6) == 0
        assert factors_of_length(w2("0110"), 10**6) == set()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert factor_complexity(w2("0110"), 5) == 0
    assert factor_complexity(w2("0110"), 4) == 1


def test_factor_complexity_on_rote_prefix():
    # 20000-letter prefix of g applied to f's fixed point; the distinct
    # length-10 window count is cross-checked against the brute census.
    prefix = named("g").apply(named("f").iterate_prefix(0, 12000))[:20000]
    assert factor_complexity(prefix, 10) == brute_factor_count(prefix.letters, 10) == 20


def _counting(data: bytes):
    """``data`` as bytes that count every slice taken of them, or of a
    slice or sum of them, in the returned one-item list."""
    taken = [0]

    class Counted(bytes):
        def __getitem__(self, key):
            taken[0] += 1
            return Counted(bytes.__getitem__(self, key))

        def __add__(self, other):
            return Counted(bytes.__add__(self, other))

    return Counted(data), taken


@pytest.mark.parametrize("n", [5000, 40000])
def test_complexity_profile_slices_grow_as_sqrt_of_n_times_max_n(n):
    # the samples and cuts _windows takes: 2146 at 5000 letters (stride 5)
    # and 6134 at 40000 (stride 14), 3.03 and 3.07 sqrt(n max_n); 4 leaves
    # a 30% margin, and a stride of 1 takes n + 301 slices
    w = named("g").apply(named("f").iterate_prefix(0, 24000))[:n]
    windows, calls = words._windows, []

    def spy(data, size):
        counted, taken = _counting(data)
        calls.append(taken)
        return windows(counted, size)

    with mock.patch.object(words, "_windows", spy):
        assert complexity_profile(w, 100) == [1, *range(2, 201, 2)]
    assert len(calls) == 1
    assert calls[0][0] <= 4 * math.sqrt(n * 100)


def test_involutions_and_parikh_invariance():
    rng = random.Random(11)
    for _ in range(200):
        k = rng.choice([2, 3])
        u = Word(bytes(rng.randrange(k) for _ in range(rng.randrange(25))), k)
        assert reverse(reverse(u)) == u
        assert parikh(reverse(u)) == parikh(u)
        if k == 2:
            assert complement(complement(u)) == u


def test_complexity_bounds():
    rng = random.Random(7)
    for _ in range(100):
        k = rng.choice([2, 3])
        u = Word(bytes(rng.randrange(k) for _ in range(rng.randrange(1, 30))), k)
        for n in range(len(u)):
            assert factor_complexity(u, n) <= factor_complexity(u, n + 1) * k
            assert factor_complexity(u, n) <= len(u) - n + 1


def test_factor_sets_commute_with_complement_and_reversal():
    rng = random.Random(3)
    for _ in range(50):
        u = Word(bytes(rng.randrange(2) for _ in range(rng.randrange(1, 20))), 2)
        for n in range(len(u) + 1):
            facs = factors_of_length(u, n)
            assert factors_of_length(complement(u), n) == {complement(v) for v in facs}
            assert factors_of_length(reverse(u), n) == {reverse(v) for v in facs}


@dataclass(frozen=True)
class _Inner(Record):
    witness: Word
    parts: tuple


@dataclass(frozen=True)
class _Outer(Record):
    size: int
    inner: _Inner
    missing: _Inner | None
    label: str


def test_record_json_is_its_fields_in_order():
    inner = _Inner(w2("0110"), ("ab", w2("1"), (2, 3)))
    payload = _Outer(7, inner, None, "x").to_json()
    assert json.dumps(payload) == (
        '{"size": 7, "inner": {"witness": "0110", "parts": '
        '["ab", "1", [2, 3]]}, "missing": null, "label": "x"}')
