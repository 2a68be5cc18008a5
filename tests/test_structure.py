import random
import tracemalloc
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest

from rotewords import (AlphabetError, CaseTag, ClassificationError,
                       DecodeError, DecompositionError, FACTOR_SETS,
                       LengthLimitError, ParseError, Word, classify_by_length4,
                       complement, decompose, f_decode, factor_complexity,
                       forgiving_scan, g_decode, generate_case_word, h_decode,
                       is_power_free, named, parse_word, reverse)

from rotewords import properness, structure
from rotewords.repetitions import _runs

from oracles import all_words


def w2(text):
    return parse_word(text, 2)


def w3(text):
    return parse_word(text, 3)


# ---------------------------------------------------------- classification

def test_factor_sets_are_the_four_transforms():
    base = FACTOR_SETS[CaseTag.F]
    assert {str(Word(b, 2)) for b in base} == {
        "0110", "1001", "0011", "1100", "0010", "0100", "1101", "1010"}
    flip = bytes.maketrans(b"\x00\x01", b"\x01\x00")
    assert FACTOR_SETS[CaseTag.FBAR] == frozenset(b.translate(flip) for b in base)
    assert FACTOR_SETS[CaseTag.FREV] == frozenset(b[::-1] for b in base)
    assert FACTOR_SETS[CaseTag.FBARREV] == frozenset(
        b[::-1].translate(flip) for b in base)
    assert len({frozenset(s) for s in FACTOR_SETS.values()}) == 4


def test_classify_generated_words():
    for tag in CaseTag:
        w = generate_case_word(tag, 1, 2000)
        assert classify_by_length4(w).tag is tag


def test_classify_on_tau_theta_prefix():
    w = named("tau").apply(named("theta").iterate_prefix(0, 3000))[:5000]
    assert classify_by_length4(w).tag is CaseTag.FREV


def test_classify_complement_symmetry():
    # the group action {id, bar, rev, bar.rev} permutes the four tags
    action = {
        CaseTag.F: (CaseTag.FBAR, CaseTag.FREV, CaseTag.FBARREV),
        CaseTag.FBAR: (CaseTag.F, CaseTag.FBARREV, CaseTag.FREV),
        CaseTag.FREV: (CaseTag.FBARREV, CaseTag.F, CaseTag.FBAR),
        CaseTag.FBARREV: (CaseTag.FREV, CaseTag.FBAR, CaseTag.F),
    }
    for tag, (bar, rev, barrev) in action.items():
        w = generate_case_word(tag, 2, 3000)
        assert classify_by_length4(complement(w)).tag is bar
        assert classify_by_length4(reverse(w)).tag is rev
        assert classify_by_length4(complement(reverse(w))).tag is barrev


def test_classify_ambiguous_and_inconsistent():
    cls = classify_by_length4(w2("0011001100110011"))
    assert cls.is_ambiguous
    assert cls.compatible == (CaseTag.F, CaseTag.FBAR, CaseTag.FREV,
                              CaseTag.FBARREV)
    cls = classify_by_length4(w2("000011110000"))
    assert cls.is_inconsistent
    assert any(str(o) in ("0000", "1111") for o in cls.offenders)
    with pytest.raises(ValueError):
        classify_by_length4(w2("011"))
    with pytest.raises(AlphabetError,
                       match="^classification applies to binary words$"):
        classify_by_length4(w3("0121"))


# ----------------------------------------------------------------- decode

def test_g_decode_example():
    result = g_decode(w2("0110010"))
    assert str(result.preimage) == "0121"
    assert (result.dropped_prefix, result.truncated_suffix) == (0, 0)


def test_g_decode_worked_power_word():
    result = g_decode(w2("0011010011010011"))
    assert str(result.preimage) == "10210210"
    assert (result.dropped_prefix, result.truncated_suffix) == (0, 0)


def test_g_decode_errors_and_margins():
    with pytest.raises(DecodeError):
        g_decode(w2("0111010"))
    with pytest.raises(DecodeError):
        g_decode(w2("111"))
    result = g_decode(w2("110"))
    assert (result.dropped_prefix, str(result.preimage)) == (2, "1")


def test_g_decode_error_names_the_block_start():
    # 0111 at position 3 is not a g-image; the error points at its 0
    with pytest.raises(DecodeError) as err:
        g_decode(w2("0100111"))
    assert err.value.position == 3


def test_decode_error_is_a_parse_error():
    # a word that is no image fails to parse at a position, as bad digits do
    with pytest.raises(ParseError) as err:
        g_decode(w2("0100111"))
    assert isinstance(err.value, DecodeError)
    assert err.value.position == 3


def test_decode_refuses_a_word_over_the_wrong_alphabet():
    # g maps 3 letters to 2, so its images are binary
    with pytest.raises(AlphabetError) as err:
        g_decode(w3("0121"))
    assert str(err.value) == ("decoding Morphism(3->2: 011,0,01) expects a "
                              "word over 2 letters")


def test_f_decode_blocks():
    assert str(f_decode(named("f").apply(w3("021"))).preimage) == "021"
    result = f_decode(w3("10121"))
    assert (str(result.preimage), result.dropped_prefix) == ("0", 1)
    with pytest.raises(DecodeError) as err:
        f_decode(w3("00121"))
    assert err.value.position == 0
    result = f_decode(w3("0121012"))
    assert (str(result.preimage), result.truncated_suffix) == ("0", 3)
    with pytest.raises(DecodeError):
        f_decode(w3("0110121"))        # 011 is not an f-block
    with pytest.raises(DecodeError):
        f_decode(w3("2221210121"))     # leading junk too long


def test_h_decode_blocks():
    assert str(h_decode(named("h").apply(w3("021"))).preimage) == "021"
    result = h_decode(w3("21210"))
    assert (str(result.preimage), result.dropped_prefix) == ("0", 1)
    result = h_decode(w3("121012"))
    assert (str(result.preimage), result.truncated_suffix) == ("0", 2)
    with pytest.raises(DecodeError):
        h_decode(w3("110"))
    with pytest.raises(DecodeError):
        h_decode(w3("1200"))           # second block starts with 0


def test_h_decode_mirrors_f_decode_through_reversal():
    # h's images are the reversals of f's, so reversing an f-image stream
    # h-decodes to the reversed preimage
    f = named("f")
    assert str(h_decode(reverse(f.apply(w3("0121")))).preimage) == "1210"
    rng = random.Random(79)
    for _ in range(100):
        v = Word(bytes(rng.randrange(3) for _ in range(rng.randrange(1, 25))), 3)
        result = h_decode(reverse(f.apply(v)))
        assert result.preimage == reverse(v)
        assert result.dropped_prefix == 0 and result.truncated_suffix == 0


def test_round_trips_exhaustive_small():
    f, g, h = named("f"), named("g"), named("h")
    for data in all_words(3, 6):
        v = Word(data, 3)
        for m, decoder in ((f, f_decode), (g, g_decode), (h, h_decode)):
            result = decoder(m.apply(v))
            assert result.preimage == v
            assert result.dropped_prefix == 0 and result.truncated_suffix == 0


def test_margins_and_reencoding_identity():
    rng = random.Random(73)
    f, g, h = named("f"), named("g"), named("h")
    for m, decoder in ((f, f_decode), (g, g_decode), (h, h_decode)):
        for _ in range(200):
            v = Word(bytes(rng.randrange(3) for _ in range(rng.randrange(1, 30))), 3)
            full = m.apply(v)
            lo = rng.randrange(min(4, len(full)))
            hi = len(full) - rng.randrange(min(4, len(full) - lo))
            chunk = full[lo:hi]
            try:
                result = decoder(chunk)
            except DecodeError:
                continue
            assert result.dropped_prefix <= 3 and result.truncated_suffix <= 3
            rebuilt = (chunk[:result.dropped_prefix]
                       + m.apply(result.preimage)
                       + chunk[len(chunk) - result.truncated_suffix:])
            assert rebuilt == chunk


# -------------------------------------------------------------- decompose

def test_decompose_all_cases_small():
    for tag in CaseTag:
        w = generate_case_word(tag, 2, 800)
        cert = decompose(w, 2)
        assert cert.factor_class.tag is tag
        assert cert.depth_achieved == 2
        assert cert.levels[0].morphism == "g"
        chain = "h" if tag in (CaseTag.FREV, CaseTag.FBARREV) else "f"
        assert all(lv.morphism == chain for lv in cert.levels[1:])
        for lv in cert.levels:
            if chain == "f":
                assert lv.proper.clean and lv.antiproper is None
            else:
                assert lv.antiproper is not None
                assert lv.proper.clean or lv.antiproper.clean


def test_decompose_depth_floor():
    w = generate_case_word("F", 0, 120)
    cert = decompose(w, 6, min_level_length=10)
    assert cert.depth_achieved < 6
    assert len(cert.levels) == cert.depth_achieved + 1


def test_decompose_rejects_non_rote_input():
    with pytest.raises(ClassificationError):
        decompose(w2("000011110000"), 1)
    with pytest.raises(ClassificationError):
        decompose(w2("00110011"), 1)


def test_decompose_decode_error_carries_partial():
    # garbage buried one f-level down keeps every length-4 factor inside F,
    # so classification and the first two decodes succeed and the second
    # f-level must fail
    u = named("f").iterate_prefix(0, 300) + w3("02121")
    broken = named("g").apply(named("f").apply(u))
    assert classify_by_length4(broken).tag is CaseTag.F
    with pytest.raises(DecompositionError) as err:
        decompose(broken, 2)
    partial = err.value.partial
    assert partial is not None
    assert partial.factor_class.tag is CaseTag.F
    assert [lv.morphism for lv in partial.levels] == ["g", "f"]
    assert partial.depth_achieved == 1


def test_decompose_g_decode_error_carries_empty_partial():
    # no word whose length-4 factors fit a class holds 111, so g parses
    # every one of them; a failing decoder stands in for a g-level failure
    w = generate_case_word("F", 1, 300)
    with mock.patch.object(structure, "decode",
                           side_effect=DecodeError("not an image", 0)):
        with pytest.raises(DecompositionError, match="g-decode failed at "
                                                     "level 0") as err:
            decompose(w, 2)
    partial = err.value.partial
    assert partial.factor_class.tag is CaseTag.F
    assert partial.levels == ()
    assert partial.depth_achieved == 0
    assert partial.to_json()["depth_achieved"] == 0


# a level with nothing truncated drops its last decoded letter when that
# letter's image is a proper prefix of another image: {1, 2} under g (011,
# 0, 01), {2} under f (0121, 021, 01), none under h (1210, 120, 10)
TAIL_TRIMS = {"g": (0, 1, 1), "f": (0, 0, 1), "h": (0, 0, 0)}


@pytest.mark.parametrize("name", TAIL_TRIMS)
@pytest.mark.parametrize("truncated", [0, 1])
def test_tail_trim_follows_the_last_decoded_letter(name, truncated):
    # every level decodes to the same preimage; level 1 runs f or h by class
    w = generate_case_word("Frev" if name == "h" else "F", 1, 300)
    for last, trim in enumerate(TAIL_TRIMS[name]):
        preimage = w3("012" * 4) + Word(bytes([last]), 3)
        result = structure.DecodeResult(preimage, 0, truncated)
        with mock.patch.object(structure, "decode", return_value=result):
            level = decompose(w, 0 if name == "g" else 1).levels[-1]
        assert level.morphism == name
        assert level.tail_trim == (0 if truncated else trim)
        # the reports cover the level word after the tail trim
        assert (level.proper.checked_length + level.proper.trim
                == len(preimage) - level.tail_trim)


def test_tail_trim_is_zero_on_an_empty_level():
    w = generate_case_word("F", 0, 300)
    levels = decompose(w, 8, min_level_length=0).levels
    assert len(levels[-1].decode.preimage) == 0
    assert levels[-1].tail_trim == 0
    empty = structure.DecodeResult(w3(""), 0, 0)
    with mock.patch.object(structure, "decode", return_value=empty):
        assert decompose(w, 0).levels[0].tail_trim == 0


def test_forgiven_front_keeps_violation_detail_in_level_coordinates():
    # 20 copies of 0121 hold dominated xyxyx occurrences at every start up
    # to 64; those before the front-trim bound are forgiven, and the one
    # reported must name the same start in its position and its detail
    level = Word(bytes([0, 1, 2, 1]) * 20
                 + named("f").iterate_prefix(0, 300).letters, 3)
    cert = decompose(named("g").apply(level), 0)
    report = cert.levels[0].proper.to_json()
    assert report["trim"] == 64
    assert report["violation"] == {
        "kind": "xyxyx", "position": 64,
        "detail": {"start": 64, "x_length": 3, "y_length": 1}}


@pytest.mark.parametrize("front, chain, seed, mirrored, trim", [
    (bytes([0, 1, 2, 1]) * 20, "f", 0, False, 64),
    (bytes([1, 2, 1, 0]) * 15, "h", 1, True, 52),
], ids=["proper", "antiproper"])
def test_report_builds_phase_one_once(front, chain, seed, mirrored, trim):
    # the periodic front holds forgiven xyxyx occurrences at nearly every
    # start (65 checker runs on the proper side when each forgiveness
    # re-ran the checker); one report still makes one pass over the runs
    level = Word(front + named(chain).iterate_prefix(seed, 5000).letters, 3)
    scans = []

    def counting(data, need):
        scans.append(len(data))
        return _runs(data, need)

    with mock.patch.object(properness, "_runs", counting):
        report = forgiving_scan(level, 64, mirrored=mirrored)
    assert report.trim == trim
    assert len(scans) == 1


def phase_one_scans(w, depth):
    """The certificate of decompose(w, depth) and the length of each word
    the xyxyx phase 1 scanned on the way."""
    scans = []

    def counting(data, need):
        scans.append(len(data))
        return _runs(data, need)

    with mock.patch.object(properness, "_runs", counting):
        return decompose(w, depth), scans


@pytest.mark.parametrize("tag", list(CaseTag))
def test_decompose_searches_once_above_a_clean_level(tag):
    # level 0's first searched report is clean from its first letter, so
    # no deeper level holds a dominated xyxyx and none is searched (5 or
    # 7 searches when every report ran its own)
    cert, scans = phase_one_scans(generate_case_word(tag, 4, 2637)[137:], 4)
    assert cert.depth_achieved == 4
    assert scans == [len(cert.levels[0].decode.preimage)
                     - cert.levels[0].tail_trim]


@pytest.mark.parametrize("front, chain, seed", [
    (bytes([0, 1, 2, 1]) * 20, "f", 0),
    (bytes([1, 2, 1, 0]) * 15, "h", 1),
], ids=["proper", "antiproper"])
def test_decompose_searches_every_level_behind_a_front(front, chain, seed):
    # each level forgives violations at its front, so none is clean from
    # its first letter, and each keeps its search
    level = Word(front + named(chain).iterate_prefix(seed, 5000).letters, 3)
    cert, scans = phase_one_scans(named("g").apply(level), 1)
    assert [lv.proper.trim > 0 for lv in cert.levels] == [True, True]
    assert len(scans) == len(cert.levels) == 2


@pytest.mark.parametrize(
    "front, chain, seed, mirrored, trim, most, bisections", [
        (bytes([0, 1, 2, 1]) * 20, "f", 0, False, 64, 309, 930),
        (bytes([1, 2, 1, 0]) * 15, "h", 1, True, 52, 6, 18),
    ], ids=["proper", "antiproper"])
def test_report_draws_xyxyx_candidates_lazily(front, chain, seed, mirrored,
                                              trim, most, bisections):
    # the search reads the trim at each start and stops where the report
    # does: a stream that listed its candidates first, or read the window
    # once, would draw every candidate of the forgiven front
    level = Word(front + named(chain).iterate_prefix(seed, 5000).letters, 3)
    drawn = []
    search = properness._xyxyx_search

    def counting(data, k, window):
        for candidate in search(data, k, window):
            drawn.append(candidate)
            yield candidate

    # and the work: one bisection per letter at each start read
    bisect = mock.Mock(wraps=properness.bisect_left)
    with mock.patch.object(properness, "_xyxyx_search", counting), \
            mock.patch.object(properness, "bisect_left", bisect):
        report = forgiving_scan(level, 64, mirrored=mirrored)
    assert report.trim == trim
    assert len(drawn) <= most
    assert bisect.call_count <= bisections


def test_certificate_json_shape():
    cert = decompose(generate_case_word("Frev", 1, 600), 1)
    payload = cert.to_json()
    assert set(payload) == {"class", "levels", "depth_achieved"}
    assert payload["class"] == "Frev"
    level = payload["levels"][0]
    assert set(level) == {"morphism", "decode", "tail_trim", "proper",
                          "antiproper"}
    assert set(level["decode"]) == {"preimage", "dropped_prefix",
                                    "truncated_suffix"}
    assert set(level["proper"]) == {"checked_length", "trim", "violation"}


# --------------------------------------------------------------- generate

def test_generate_case_examples():
    w = generate_case_word("F", 0, 12)
    assert str(w).startswith("0110010011")
    assert generate_case_word("Fbar", 0, 12) == complement(w)
    assert len(generate_case_word("Frev", 1, 500)) == 500


def test_generated_words_are_power_free_and_rote():
    for tag in ("F", "Frev"):
        w = generate_case_word(tag, 3, 3000)
        assert is_power_free(w, Fraction(5, 2), True) is None
        for n in range(1, 21):
            assert factor_complexity(w, n) == 2 * n


@pytest.mark.parametrize("case", ["F", "Fbar", "Frev", "FbarRev"])
@pytest.mark.parametrize("depth, limit, length", [
    (8, 20000, 31572),  # f^8 or h^8 of the seed prefix already exceeds it
    (8, 40000, 59815),  # g of it does
    (7, 15000, 19423),  # h's seed prefix 1201 is not a prefix of h(1) = 120
])
def test_generate_limit_names_the_first_word_over_it(case, depth, limit,
                                                     length):
    with pytest.raises(LengthLimitError, match=f"builds a word of {length} "):
        generate_case_word(case, depth, 100, limit=limit)
    last = {7: 19423, 8: 59815}[depth]    # g of the depth-fold image
    assert len(generate_case_word(case, depth, 100, limit=last)) == 100


def test_generate_refusal_holds_no_list_of_levels():
    # the refusal holds one level's letter counts at a time, whatever the
    # depth
    tracemalloc.start()
    try:
        with pytest.raises(LengthLimitError, match="builds a word of 31572 "):
            generate_case_word("F", 10**7, 100, limit=20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 1024 * 1024


def test_generate_depths_are_prefix_compatible():
    # deeper generations describe the same infinite word, each of exactly
    # the length asked for: the fixed-point prefix is cut where its images
    # first reach it, and a cut one letter short would leave it short
    for case, length in product(CaseTag, [*range(40), 400, 2000]):
        words = {generate_case_word(case, depth, length) for depth in range(5)}
        assert len(words) == 1 and len(words.pop()) == length


def test_generate_without_limit_holds_nothing_per_depth():
    # with no limit the depth is read by nothing but its check, so a huge
    # one builds the depth-0 word at its cost
    for case in CaseTag:
        expected = generate_case_word(case, 0, 100)
        tracemalloc.start()
        try:
            w = generate_case_word(case, 10**4, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w == expected
        assert peak < 256 * 1024


@pytest.mark.parametrize("depth", [2.5, "2"])
@pytest.mark.parametrize("limit", [None, 20000])
def test_generate_depth_must_be_an_integer(depth, limit):
    with pytest.raises(TypeError):
        generate_case_word("F", depth, 100, limit=limit)
