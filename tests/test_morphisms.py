import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotewords import (NAMED_MORPHISMS, AlphabetError, Morphism, ParseError,
                       Word, equal_on_letters, named, parikh, parse_morphism,
                       parse_word, reverse)

from oracles import brute_apply, brute_fixed_point_prefix


def w3(text):
    return parse_word(text, 3)


def test_registry_images():
    assert [str(im) for im in named("f").images] == ["0121", "021", "01"]
    assert [str(im) for im in named("g").images] == ["011", "0", "01"]
    assert [str(im) for im in named("h").images] == ["1210", "120", "10"]
    assert [str(im) for im in named("mu").images] == ["01", "10"]
    assert [str(im) for im in named("tau").images] == ["0", "01", "011"]
    assert [str(im) for im in named("theta").images] == ["01", "2", "02"]
    assert [str(im) for im in named("sigma").images] == ["1", "2", "0"]
    assert [str(im) for im in named("sigma_inv").images] == ["2", "0", "1"]


def test_named_unknown():
    with pytest.raises(KeyError):
        named("zeta")


def test_apply():
    f, g = named("f"), named("g")
    assert str(f.apply(w3("0"))) == "0121"
    assert str(g.apply(w3("10210210"))) == "0011010011010011"
    assert g.apply(w3("")) == parse_word("", 2)
    with pytest.raises(AlphabetError):
        g.apply(parse_word("01", 2))


def test_compose_identities():
    g, h = named("g"), named("h")
    tau, theta = named("tau"), named("theta")
    sigma, sigma_inv = named("sigma"), named("sigma_inv")
    assert equal_on_letters(tau, g.compose(sigma))
    assert equal_on_letters(theta.compose(theta),
                            sigma_inv.compose(h.compose(sigma)))
    identity = Morphism.from_strings(["0", "1", "2"])
    assert equal_on_letters(named("f").compose(identity), named("f"))
    assert equal_on_letters(sigma.compose(sigma_inv), identity)
    assert equal_on_letters(sigma_inv.compose(sigma), identity)
    assert not equal_on_letters(named("f"), h)


def test_equal_on_letters_needs_one_source_alphabet():
    thue_morse = Morphism.from_strings(["01", "10"])
    with pytest.raises(AlphabetError,
                       match="^morphisms have different source alphabets$"):
        equal_on_letters(thue_morse, named("g"))


def test_compose_alphabet_check():
    with pytest.raises(AlphabetError):
        named("mu").compose(named("f"))


def test_iterate_prefix():
    assert str(named("f").iterate_prefix(0, 4)) == "0121"
    assert str(named("theta").iterate_prefix(0, 8)) == "01202010"
    assert str(named("h").iterate_prefix(1, 3)) == "120"
    # 19-letter fixed-point prefix pinned from the worked example
    assert str(named("theta").iterate_prefix(0, 19)) == "0120201020120102012"


def test_iterate_prefix_requires_prolongable_seed():
    with pytest.raises(ValueError):
        named("theta").iterate_prefix(1, 10)   # theta(1) = 2
    with pytest.raises(ValueError):
        named("h").iterate_prefix(0, 10)       # h(0) starts with 1
    with pytest.raises(AlphabetError):
        named("g").iterate_prefix(0, 10)       # not an endomorphism
    with pytest.raises(AlphabetError):
        named("f").iterate_prefix(5, 10)


def test_iterate_prefix_refuses_a_negative_length():
    # a negative slice bound would silently cut letters off the end
    with pytest.raises(ValueError, match="non-negative"):
        named("f").iterate_prefix(0, -2)
    assert len(named("f").iterate_prefix(0, 0)) == 0


def test_iterate_prefix_stability():
    theta = named("theta")
    long = theta.iterate_prefix(0, 400)
    for n in (1, 2, 7, 50, 399):
        assert theta.iterate_prefix(0, n) == long[:n]


@pytest.mark.parametrize("name, seed", [("f", 0), ("h", 1), ("theta", 0),
                                        ("mu", 0)])
def test_iterate_prefix_matches_whole_iterates(name, seed):
    m = named(name)
    for n in [*range(301), 20000]:
        prefix = m.iterate_prefix(seed, n)
        assert prefix.letters == brute_fixed_point_prefix(m, seed, n)
        assert prefix.alphabet_size == m.source_alphabet


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(NAMED_MORPHISMS), st.sampled_from(NAMED_MORPHISMS),
       st.binary(max_size=40), st.integers(0, 300))
@example("g", "f", b"", 0)
def test_apply_compose_and_iterate_match_brute_force(name, inner_name, raw,
                                                     n):
    m, inner = named(name), named(inner_name)
    k = m.source_alphabet
    data = bytes(b % k for b in raw)
    assert m.apply(Word(data, k)) == Word(brute_apply(m, data),
                                          m.target_alphabet)
    if inner.target_alphabet == k:
        assert m.compose(inner).images == tuple(
            Word(brute_apply(m, img.letters), m.target_alphabet)
            for img in inner.images)
    for seed in range(k):
        img = m.images[seed].letters
        if m.target_alphabet == k and len(img) > 1 and img[0] == seed:
            assert (m.iterate_prefix(seed, n).letters
                    == brute_fixed_point_prefix(m, seed, n))


def test_apply_compose_consistency():
    rng = random.Random(41)
    f, g = named("f"), named("g")
    gf = g.compose(f)
    for _ in range(50):
        u = Word(bytes(rng.randrange(3) for _ in range(rng.randrange(20))), 3)
        assert gf.apply(u) == g.apply(f.apply(u))


def test_h_images_reverse_f_images():
    f, h = named("f"), named("h")
    for a in range(3):
        assert h.image(a) == reverse(f.image(a))


def test_parikh_linearity():
    rng = random.Random(43)
    for name in ("f", "g", "h", "theta", "tau"):
        m = named(name)
        cols = [parikh(m.image(a)) for a in range(m.source_alphabet)]
        for _ in range(30):
            u = Word(bytes(rng.randrange(m.source_alphabet)
                           for _ in range(rng.randrange(15))), m.source_alphabet)
            pu = parikh(u)
            expected = tuple(sum(cols[a][c] * pu[a]
                                 for a in range(m.source_alphabet))
                             for c in range(m.target_alphabet))
            assert parikh(m.apply(u)) == expected


def test_non_erasing_flag():
    assert named("f").non_erasing
    erasing = Morphism.from_strings(["01", ""], target_alphabet=2)
    assert not erasing.non_erasing
    with pytest.raises(ValueError):
        erasing.iterate_prefix(0, 5)


def test_parse_morphism_text():
    name, m = parse_morphism("g: 011,0,01")
    assert name == "g"
    assert equal_on_letters(m, named("g"))
    with pytest.raises(ValueError):
        parse_morphism("nocolon")
    with pytest.raises(ValueError):
        parse_morphism("m: 01,,1")


@pytest.mark.parametrize("text, bad", [("x: 0a,1", "'a'"),
                                       ("x: 0\u00b2,1", "'\u00b2'"),
                                       ("x: 1,0\u0663", "'\u0663'")])
def test_parse_morphism_names_a_non_digit_character(text, bad):
    # the alphabet is read off the ASCII digits alone, so parse_word names
    # the character, where int() gave "invalid literal"
    with pytest.raises(ParseError) as info:
        parse_morphism(text)
    assert info.value.position == 1
    assert str(info.value) == f"non-digit character {bad} at position 1"


def test_morphism_validation():
    with pytest.raises(AlphabetError):
        Morphism(2, 2, (parse_word("01", 2),))
    with pytest.raises(AlphabetError):
        Morphism(1, 2, (parse_word("012", 3),))
