import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from rotewords import (Exponent, Word, complement, exponent, is_power_free,
                       max_factor_exponent, named, parse_word, reverse,
                       smallest_period, suffix_is_52plus_power)
from rotewords.cli import parse_source

from oracles import (all_words, brute_avoids, brute_max_exponent,
                     brute_smallest_period, brute_suffix_has_52plus)


def w2(text):
    return parse_word(text, 2)


def test_smallest_period_examples():
    assert smallest_period(w2("0101")) == 2
    assert smallest_period(w2("011")) == 3
    assert smallest_period(w2("10011001100")) == 4
    with pytest.raises(ValueError):
        smallest_period(w2(""))


def test_smallest_period_exhaustive_small():
    for data in all_words(2, 10, min_len=1):
        assert smallest_period(Word(data, 2)) == brute_smallest_period(data)


def test_exponent_worked_values():
    assert exponent(w2("000")) == Fraction(3)
    e = exponent(w2("01001001"))
    assert (e.length, e.period) == (8, 3)
    e = exponent(w2("10011001100"))
    assert (e.length, e.period) == (11, 4)
    assert e > Fraction(5, 2)


def test_exponent_repr_keeps_the_unreduced_fraction():
    assert repr(Exponent(10, 4)) == "Exponent(10/4)"


def test_exponent_comparisons_are_exact():
    assert Exponent(5, 2) == Fraction(5, 2)
    assert not Exponent(5, 2) > Fraction(5, 2)
    assert Exponent(11, 4) > Fraction(5, 2)
    assert Exponent(4, 2) == Exponent(2, 1) == 2
    assert Exponent(7, 3) < Fraction(5, 2)
    # a float is compared as the exact rational it holds
    assert Exponent(5, 2) == 2.5 and hash(Exponent(10, 4)) == hash(2.5)
    assert Exponent(5, 2) <= 2.5 <= Exponent(10, 4)
    assert Exponent(7, 3) < 2.5 < Exponent(11, 4)
    assert Exponent(4, 3) != 4 / 3 and Exponent(4, 3) > 4 / 3
    # against a NaN every comparison but != answers False, as Fraction's do
    nan = float("nan")
    for e in (Exponent(5, 2), Exponent(1, 1)):
        assert not (e == nan or e < nan or e <= nan or e > nan or e >= nan)
        assert not (nan == e or nan < e or nan <= e or nan > e or nan >= e)
        assert e != nan and nan != e
    with pytest.raises(ValueError):
        Exponent(1, 2)
    with pytest.raises(ValueError):
        Exponent(3, 0)


def test_is_power_free_examples():
    assert is_power_free(w2("0110"), Fraction(5, 2), True) is None
    witness = is_power_free(w2("10011001100"), Fraction(5, 2), True)
    assert (witness.start, witness.length, witness.period) == (0, 11, 4)
    # exponent exactly 5/2 is permitted under the strict reading
    assert is_power_free(w2("01010"), Fraction(5, 2), True) is None
    assert is_power_free(w2("01010"), Fraction(5, 2), False) is not None


def test_is_power_free_witness_is_valid():
    rng = random.Random(5)
    for _ in range(300):
        data = bytes(rng.randrange(2) for _ in range(rng.randrange(1, 28)))
        u = Word(data, 2)
        for threshold, strict in ((Fraction(5, 2), True), (Fraction(2), True),
                                  (Fraction(7, 3), False)):
            witness = is_power_free(u, threshold, strict)
            if witness is None:
                assert brute_avoids(data, threshold, strict)
            else:
                piece = data[witness.start:witness.start + witness.length]
                assert brute_smallest_period(piece) == witness.period
                e = Fraction(witness.length, witness.period)
                assert e > threshold if strict else e >= threshold


def test_is_power_free_threshold_forms():
    u = w2("000")
    assert is_power_free(u, (5, 2), True) is not None
    assert is_power_free(u, "5/2", True) is not None
    assert is_power_free(u, 3, True) is None
    with pytest.raises(ValueError):
        is_power_free(u, Fraction(1, 2), True)


def test_suffix_examples():
    assert suffix_is_52plus_power(w2("10011001100"))
    assert not suffix_is_52plus_power(w2("01010"))
    assert not suffix_is_52plus_power(w2(""))


def test_suffix_oracle_equivalence_small():
    # exhaustive up to length 11 here; the acceptance suite goes to 14
    for data in all_words(2, 11):
        assert (suffix_is_52plus_power(Word(data, 2))
                == brute_suffix_has_52plus(data))


def test_power_freeness_invariant_under_symmetry():
    rng = random.Random(17)
    for _ in range(200):
        u = Word(bytes(rng.randrange(2) for _ in range(rng.randrange(1, 30))), 2)
        free = is_power_free(u, Fraction(5, 2), True) is None
        assert (is_power_free(complement(u), Fraction(5, 2), True) is None) == free
        assert (is_power_free(reverse(u), Fraction(5, 2), True) is None) == free


def test_power_freeness_prefix_monotone():
    rng = random.Random(23)
    for _ in range(100):
        u = Word(bytes(rng.randrange(2) for _ in range(rng.randrange(1, 24))), 2)
        if is_power_free(u, Fraction(5, 2), True) is None:
            for i in range(len(u)):
                for j in range(i, len(u) + 1):
                    assert is_power_free(u[i:j], Fraction(5, 2), True) is None


def test_max_factor_exponent_examples():
    e, witness = max_factor_exponent(w2("000"))
    assert (e.length, e.period) == (3, 1)
    assert (witness.start, witness.length, witness.period) == (0, 3, 1)
    e, witness = max_factor_exponent(w2("0110"))
    assert e == 2
    assert (witness.start, witness.length, witness.period) == (1, 2, 1)
    with pytest.raises(ValueError):
        max_factor_exponent(w2(""))


def test_max_factor_exponent_against_oracle():
    rng = random.Random(31)
    cases = [bytes(rng.randrange(2) for _ in range(rng.randrange(1, 13)))
             for _ in range(60)]
    cases += [bytes(rng.randrange(3) for _ in range(rng.randrange(1, 11)))
              for _ in range(40)]
    cases += [b"\x00", b"\x00\x01", b"\x00" * 7, bytes([0, 1, 0, 1, 0])]
    for data in cases:
        k = max(data) + 1 if data else 2
        value, (start, length, period) = brute_max_exponent(data)
        e, witness = max_factor_exponent(Word(data, max(k, 2)))
        assert e.value == value
        assert (witness.start, witness.length, witness.period) == (start, length, period)


def test_exponent_numerator_is_word_length():
    rng = random.Random(37)
    for _ in range(200):
        data = bytes(rng.randrange(2) for _ in range(rng.randrange(1, 40)))
        e = exponent(Word(data, 2))
        assert e.length == len(data)
        assert (e > Fraction(5, 2)) == (2 * e.length > 5 * e.period)


def test_theta_fixed_point_exponent_bracket():
    prefix = named("theta").iterate_prefix(0, 2000)
    e, _ = max_factor_exponent(prefix)
    assert Fraction(12, 5) <= e.value < Fraction(24808628, 10**7)


# Witnesses of max_factor_exponent and is_power_free on fixed windows of
# g(f^w), its reversed complement, Thue-Morse, theta^w and h^w, captured
# while max_factor_exponent still made a second pass for its tie-break.
PINNED = json.loads((Path(__file__).parent / "data"
                     / "repetitions_pinned.json").read_text())


@pytest.mark.parametrize("entry", PINNED, ids=[
    f"{e['source']}{'-rev' if e['reverse'] else ''}@{e['start']}+{e['length']}"
    for e in PINNED])
def test_witnesses_are_pinned(entry):
    w = parse_source(entry["source"])
    if entry["reverse"]:
        w = reverse(w)
    w = w[entry["start"]:entry["start"] + entry["length"]]
    e, witness = max_factor_exponent(w)
    assert [e.length, e.period, witness.start, witness.length,
            witness.period] == entry["max_factor_exponent"]
    for key, expected in entry["is_power_free"].items():
        found = is_power_free(w, Fraction(key.rstrip("+")), key.endswith("+"))
        assert (None if found is None
                else [found.start, found.length, found.period]) == expected
