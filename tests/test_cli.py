import hashlib
import io
import json
import subprocess
import sys
import tracemalloc
from itertools import accumulate
from pathlib import Path
from unittest import mock

import pytest

from rotewords import NAMED_MORPHISMS, Morphism, Word, named, parse_word
from rotewords import properness
from rotewords.cli import _build_parser, main, parse_source


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_search_plain(capsys):
    code, out, _ = run(capsys, "search", "--forbidden", "0110", "--target", "200")
    assert code == 0
    assert "max_length: 14" in out
    assert "reached_target: False" in out


def test_search_json(capsys):
    code, out, _ = run(capsys, "search", "--forbidden", "1011,1010",
                       "--target", "200", "--json")
    assert code == 0
    payload = json_lines(out)[0]
    assert payload["results"]["max_length"] == 20
    assert payload["status"] == "ok"


def test_verify_paper_full_run(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert "38 checks, all ok" in out
    assert out.count("ok") >= 38


def test_verify_paper_full_json(capsys):
    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == 0
    lines = json_lines(out)
    assert len(lines) == 39
    assert sum(1 for line in lines[:-1] if line["kind"] == "search") == 32
    assert all(line["match"] for line in lines[:-1])
    search_rows = [line for line in lines if line.get("kind") == "search"]
    assert set(search_rows[0]) >= {"forbidden", "expected", "computed",
                                   "witness", "nodes", "match"}


def test_verify_paper_with_override_table(tmp_path, capsys):
    table = tmp_path / "rows.json"
    table.write_text(json.dumps([[["0110"], 14], [["1011", "1010"], 20]]))
    code, out, _ = run(capsys, "verify-paper", "--expected-table", str(table))
    assert code == 0
    assert "all ok" in out


def test_verify_paper_mismatch_is_nonzero(tmp_path, capsys):
    table = tmp_path / "rows.json"
    table.write_text(json.dumps([[["0110"], 15]]))
    code, out, _ = run(capsys, "verify-paper", "--expected-table", str(table))
    assert code == 1
    assert "MISMATCH" in out


def test_verify_paper_json_lines(tmp_path, capsys):
    table = tmp_path / "rows.json"
    table.write_text(json.dumps([[["0110"], 14]]))
    code, out, _ = run(capsys, "verify-paper", "--expected-table", str(table),
                       "--json")
    assert code == 0
    lines = json_lines(out)
    kinds = [line.get("kind") for line in lines[:-1]]
    assert kinds.count("search") == 1
    assert kinds.count("identity") == 2
    assert kinds.count("power") == 4
    assert lines[-1]["status"] == "ok"
    assert all(line["match"] for line in lines[:-1])


@pytest.mark.parametrize("table", [
    [[5, 14]],                  # no factor list
    [[["0110"], None]],         # no expected length
    [[[0, 1, 1, 0], 14]],       # factors as numbers
    [["0110", 14]],             # a bare string, not a list of factors
    [[["0110"], 14.7]],         # a fractional expected length
], ids=["number", "null", "digits", "string", "float"])
def test_verify_paper_refuses_malformed_rows(tmp_path, capsys, table):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps([[["1011", "1010"], 20], *table]))
    code, out, err = run(capsys, "verify-paper", "--expected-table", str(path))
    assert code == 2
    assert out == ""
    assert f"row {json.dumps(table[0])} is not" in err


def test_verify_paper_refuses_a_table_that_is_not_a_list(tmp_path, capsys):
    path = tmp_path / "rows.json"
    path.write_text(json.dumps({"0110": 14}))
    code, out, err = run(capsys, "verify-paper", "--expected-table", str(path))
    assert code == 2
    assert 'row {"0110": 14} is not' in err


def test_verify_paper_admits_a_row_without_factors(tmp_path, capsys):
    # nothing bounds the search but --target, so the row reads as a mismatch
    path = tmp_path / "rows.json"
    path.write_text(json.dumps([[[], 30]]))
    code, out, _ = run(capsys, "verify-paper", "--expected-table", str(path),
                       "--target", "30")
    assert code == 1
    assert "search {}: expected 30 computed 30 MISMATCH" in out


def test_classify_from_file(tmp_path, capsys):
    path = tmp_path / "word.txt"
    path.write_text("0110010011010011\n")
    code, out, _ = run(capsys, "classify", "--input", str(path))
    assert code == 0
    assert out.strip() == "class: F"


def test_classify_generator_spec(capsys):
    code, out, _ = run(capsys, "classify", "--input",
                       "image:tau:fixpoint:theta:0:5000")
    assert code == 0
    assert out.strip() == "class: Frev"


def test_classify_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("0110010011010011\n"))
    code, out, _ = run(capsys, "classify", "--input", "-")
    assert code == 0
    assert "class: F" in out


@pytest.mark.parametrize("text, word", [
    ("\n  \n\n0110\n1\n", "0110"),       # blank lines before the word
    ("  \t0110 \t\n", "0110"),           # surrounding whitespace
    ("\n0110", "0110"),                   # a last line without a newline
    (" " * 300 + "0110" + " " * 300 + "\n", "0110"),   # blanks past the limit
    ("0" * 100 + "\n", "0" * 100),        # exactly the limit
], ids=["blank-lines", "whitespace", "no-newline", "long-blanks", "at-limit"])
def test_file_input_is_the_first_non_empty_line(tmp_path, capsys, text, word):
    path = tmp_path / "word.txt"
    path.write_text(text)
    for limit in (100, 10**30, None):   # 10**30 is past sys.maxsize
        assert parse_source(f"file:{path}", limit=limit) == parse_word(word, 2)
    code, out, _ = run(capsys, "check-power", "--input", f"file:{path}",
                       "--threshold", "2", "--limit", "100", "--json")
    assert code == 0
    assert json_lines(out)[0]["parameters"]["length"] == len(word)


@pytest.mark.parametrize("text, code, message", [
    ("0" * 101 + "\n", 3, "exceeds --limit 100"),
    ("\n 0" + " " * 150 + "1\n", 3, "exceeds --limit 100"),
    ("01 10\n", 2, "non-digit character ' ' at position 2"),
], ids=["over-limit", "blanks-inside-over-limit", "blank-inside"])
def test_file_input_refusals(tmp_path, capsys, text, code, message):
    path = tmp_path / "word.txt"
    path.write_text(text)
    result = run(capsys, "check-power", "--input", f"file:{path}",
                 "--threshold", "2", "--limit", "100")
    assert result[:2] == (code, "")
    assert message in result[2]


@pytest.mark.parametrize("source", ["literal", "stdin", "file"])
def test_unicode_digit_is_a_non_digit_character(tmp_path, capsys,
                                                monkeypatch, source):
    # int() does not read the Unicode digit '\u00b2', as it does '\u0663'
    text = "0110\u00b2"
    path = tmp_path / "word.txt"
    path.write_text(text + "\n", encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO(text + "\n"))
    spec = {"literal": f"literal:{text}", "stdin": "-",
            "file": f"file:{path}"}[source]
    code, out, err = run(capsys, "classify", "--input", spec)
    assert (code, out) == (2, "")
    assert err == "error: non-digit character '\u00b2' at position 4\n"


def test_file_bytes_that_are_not_utf8_are_non_digit_characters(tmp_path,
                                                               capsys):
    path = tmp_path / "word.txt"
    path.write_bytes(b"01\xff10\n")
    code, out, err = run(capsys, "classify", "--input", f"file:{path}")
    assert (code, out) == (2, "")
    assert err == "error: non-digit character '\ufffd' at position 2\n"


def test_file_line_over_the_limit_is_refused_before_it_is_read(tmp_path,
                                                               capsys):
    path = tmp_path / "big.txt"
    path.write_text("0" * 10**6 + "\n")
    tracemalloc.start()
    try:
        code = main(["check-power", "--input", f"file:{path}",
                     "--threshold", "2", "--limit", "100"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "exceeds --limit 100" in capsys.readouterr().err
    assert peak < 256 * 1024


def test_decode_command(capsys):
    code, out, _ = run(capsys, "decode", "--morphism", "g", "--input",
                       "literal:0110010")
    assert code == 0
    assert "preimage: 0121" in out
    code, _, err = run(capsys, "decode", "--morphism", "g", "--input",
                       "literal:0111")
    assert code == 2
    assert "error" in err


def test_decode_tau_round_trip(capsys):
    code, out, _ = run(capsys, "decode", "--morphism", "tau", "--input",
                       "image:tau:fixpoint:f:0:200", "--json")
    assert code == 0
    results = json_lines(out)[0]["results"]
    assert results == {"preimage": str(named("f").iterate_prefix(0, 200)),
                       "dropped_prefix": 0, "truncated_suffix": 0}


@pytest.mark.parametrize("name", ["mu", "theta", "sigma", "sigma_inv"])
def test_decode_morphism_without_marker_is_usage_error(capsys, name):
    built = AssertionError("the input was built")
    with mock.patch.object(Morphism, "iterate_prefix", side_effect=built), \
            mock.patch.object(Morphism, "apply", side_effect=built):
        code, out, err = run(capsys, "decode", "--morphism", name, "--input",
                             "fixpoint:mu:0:20000")
    assert code == 2
    assert out == ""
    assert "cannot be decoded" in err


@pytest.mark.parametrize("argv", [
    ["decode", "--morphism", "f", "--input", "fixpoint:f:0:-2", "--json"],
    ["check-power", "--input", "fixpoint:f:0:-5", "--threshold", "2"],
])
def test_negative_fixpoint_length_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "non-negative" in err


def test_decompose_json(capsys):
    code, out, _ = run(capsys, "decompose", "--depth", "2", "--input",
                       "image:g:fixpoint:f:0:1000", "--json")
    assert code == 0
    payload = json_lines(out)[0]
    assert payload["results"]["class"] == "F"
    assert payload["results"]["depth_achieved"] == 2


def test_decompose_any_depth_stops_at_the_level_floor(capsys):
    code, out, _ = run(capsys, "decompose", "--depth", str(10**19),
                       "--input", "image:g:fixpoint:f:0:300")
    assert code == 0
    assert "depth_achieved: 3" in out


def test_generate_then_classify(tmp_path, capsys):
    code, out, _ = run(capsys, "generate", "--case", "FbarRev", "--depth", "2",
                       "--length", "1500")
    assert code == 0
    word = out.strip()
    assert len(word) == 1500
    path = tmp_path / "word.txt"
    path.write_text(word + "\n")
    code, out, _ = run(capsys, "classify", "--input", str(path))
    assert code == 0
    assert out.strip() == "class: FbarRev"


@pytest.mark.parametrize("case, argv, length", [
    ("F", ["--depth", "8", "--length", "100"], 31572),  # f^8 of the seed prefix
    ("F", ["--depth", "4", "--length", "20001"], 20001),
    ("F", ["--depth", "1", "--length", "20", "--limit", "22"], 23),
    ("F", ["--depth", "10000000", "--length", "100"], 31572),
    ("Frev", ["--depth", "8", "--length", "100"], 31572),  # h^8 of 1201
    ("Frev", ["--depth", "7", "--length", "100", "--limit", "15000"], 19423),
    ("FbarRev", ["--depth", "7", "--length", "100", "--limit", "19422"],
     19423),
    # more levels than an index-sized integer can count
    ("F", ["--depth", str(10**19), "--length", "100"], 31572),
])
def test_generate_refuses_before_building(capsys, case, argv, length):
    with mock.patch.object(Morphism, "iterate_prefix", autospec=True,
                           side_effect=Morphism.iterate_prefix) as prefix, \
            mock.patch.object(Morphism, "apply",
                              side_effect=AssertionError("a word was built")):
        code, out, err = run(capsys, "generate", "--case", case, *argv)
    assert code == 3
    assert out == ""
    assert f" {length} " in err and "exceeds the limit" in err
    # only the 4-letter seed prefix, whose letter counts give the lengths
    assert all(call.args[2] <= 4 for call in prefix.call_args_list)


@pytest.mark.parametrize("case, depth, length, limit", [
    ("F", 7, 100, 20000),         # the first build has 19423 letters
    ("FbarRev", 7, 100, 20000),
    ("Frev", 4, 20000, 20000),    # the build may pass the limit by an image
    ("F", 1, 20, 23),             # a first build of exactly the limit
])
def test_generate_admits_builds_within_the_limit(capsys, case, depth, length,
                                                 limit):
    code, out, _ = run(capsys, "generate", "--case", case, "--depth",
                       str(depth), "--length", str(length), "--limit",
                       str(limit))
    assert code == 0
    assert len(out.strip()) == length


@pytest.mark.parametrize("case", ["F", "Frev"])
@pytest.mark.parametrize("depth", range(8))
@pytest.mark.parametrize("length", [19999, 20000])
def test_generate_builds_within_one_letter_image_of_the_length(capsys, case,
                                                                depth, length):
    # every level is cut before its image is built, so no image passes the
    # length by a whole image of f, h or g: by 3 letters at most
    sizes = []
    real_apply = Morphism.apply

    def apply(self, w):
        image = real_apply(self, w)
        sizes.append(len(image))
        return image

    with mock.patch.object(Morphism, "apply", apply):
        code, out, _ = run(capsys, "generate", "--case", case, "--depth",
                           str(depth), "--length", str(length))
    assert code == 0
    assert len(out.strip()) == length
    # the same images as at depth 0: the levels follow the length alone
    n = len(sizes)
    with mock.patch.object(Morphism, "apply", apply):
        run(capsys, "generate", "--case", case, "--depth", "0", "--length",
            str(length))
    assert sizes[n:] == sizes[:n]
    assert max(sizes) <= length + 3


def test_generate_negative_length_is_usage_error(capsys):
    code, out, err = run(capsys, "generate", "--case", "F", "--depth", "1",
                         "--length", "-5")
    assert code == 2
    assert out == ""
    assert "length" in err


def test_complexity_expect_match(capsys):
    code, out, _ = run(capsys, "complexity", "--input",
                       "image:g:fixpoint:f:0:1100", "--max-n", "20",
                       "--expect", "2n", "--safety", "100")
    assert code == 0
    assert "n=20: 40 expected 40 ok" in out


def test_complexity_expect_mismatch(capsys):
    code, out, _ = run(capsys, "complexity", "--input",
                       "fixpoint:theta:0:2100", "--max-n", "20",
                       "--expect", "2n")
    assert code == 1
    assert "MISMATCH" in out


def test_complexity_expect_2n_plus_1(capsys):
    code, out, _ = run(capsys, "complexity", "--input",
                       "fixpoint:theta:0:2100", "--max-n", "20",
                       "--expect", "2n+1")
    assert code == 0
    assert "n=20: 41 expected 41 ok" in out


def test_complexity_too_short(capsys):
    code, _, err = run(capsys, "complexity", "--input", "literal:01",
                       "--max-n", "50")
    assert code == 2
    assert "too short" in err


def test_complexity_negative_safety_is_usage_error(capsys):
    code, out, err = run(capsys, "complexity", "--input", "literal:01",
                         "--max-n", "50", "--safety", "-1")
    assert code == 2
    assert out == ""
    assert "--safety" in err


def test_complexity_max_n_over_the_limit_refuses_before_building(capsys):
    with mock.patch.object(Morphism, "iterate_prefix", autospec=True,
                           side_effect=AssertionError("built")) as prefix:
        code, out, err = run(capsys, "complexity", "--input",
                             "fixpoint:f:0:100", "--max-n", "101",
                             "--limit", "100", "--safety", "0")
    assert code == 3
    assert out == ""
    assert "--max-n 101 exceeds --limit 100" in err
    prefix.assert_not_called()


def test_complexity_admits_max_n_equal_to_the_limit(capsys):
    code, out, _ = run(capsys, "complexity", "--input", "fixpoint:f:0:100",
                       "--max-n", "100", "--limit", "100", "--safety", "1")
    assert code == 0
    assert out.splitlines()[-1] == "n=100: 1"
    code, out, _ = run(capsys, "complexity", "--input", "literal:0110",
                       "--max-n", "100", "--limit", "100", "--safety", "0")
    assert code == 0
    assert out.splitlines()[-1] == "n=100: 0"


@pytest.mark.parametrize("argv", [
    ["search", "--forbidden", "0110", "--target", "200", "--limit", "5"],
    ["search", "--forbidden", "0110", "--limit", "199"],
    ["verify-paper", "--target", "21", "--limit", "20"],
    ["verify-paper", "--limit", "199"],
], ids=["search", "search-default-target", "verify-paper",
        "verify-paper-default-target"])
def test_target_over_the_limit_refuses_before_searching(capsys, argv):
    with mock.patch("rotewords.cli.longest_avoiding",
                    side_effect=AssertionError("searched")) as search, \
            mock.patch("rotewords.cli.run_reference_table",
                       side_effect=AssertionError("searched")) as table:
        code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    target = argv[argv.index("--target") + 1] if "--target" in argv else "200"
    assert f"--target {target} exceeds --limit {argv[-1]}" in err
    search.assert_not_called()
    table.assert_not_called()


def test_target_equal_to_the_limit_is_admitted(tmp_path, capsys):
    code, out, _ = run(capsys, "search", "--forbidden", "0110", "--target",
                       "14", "--limit", "14")
    assert code == 0
    assert "reached_target: True" in out
    table = tmp_path / "rows.json"
    table.write_text(json.dumps([[["0110"], 14]]))
    code, out, _ = run(capsys, "verify-paper", "--expected-table", str(table),
                       "--target", "20", "--limit", "20")
    assert code == 0
    assert "all ok" in out


@pytest.mark.parametrize("argv, flag", [
    (["check-power", "--input", "literal:0101", "--threshold", "2",
      "--limit", "-5"], "--limit"),
    (["decompose", "--depth", "2", "--input", "image:g:fixpoint:f:0:1000",
      "--seed-trim", "-3"], "--seed-trim"),
    (["decompose", "--depth", "2", "--input", "image:g:fixpoint:f:0:1000",
      "--min-level-length", "-4"], "--min-level-length"),
], ids=["limit", "seed-trim", "min-level-length"])
def test_negative_count_option_is_usage_error(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"{flag} must be non-negative" in err


@pytest.mark.parametrize("argv, message", [
    (["complexity", "--input", "literal:0110", "--max-n", "0"],
     "--max-n must be at least 1"),
    (["check-power", "--input", "literal:0110", "--threshold", "abc"],
     "bad threshold 'abc'"),
    (["check-power", "--input", "literal:0110", "--threshold", "1/0"],
     "bad threshold '1/0'"),
    # rendered before the scan, past Python's 4300-digit str() limit
    (["check-power", "--input", "literal:0110", "--threshold", "1e5000"],
     "bad threshold '1e5000': Exceeds the limit"),
    (["classify", "--input", "image:g:"], "image spec needs an inner source"),
    (["classify", "--input", "complement:"],
     "complement spec needs an inner source"),
    (["classify", "--input", "image:nosuch:literal:01"],
     "error: unknown morphism 'nosuch'"),
    (["classify", "--input", "fixpoint:nosuch:0:5"],
     "'fixpoint:nosuch:0:5': unknown morphism 'nosuch'"),
    (["classify", "--input", "file:BLANK"], "no word found in"),
    (["generate", "--case", "F", "--depth", "-1", "--length", "5"],
     "depth must be non-negative"),
    (["decompose", "--input", "literal:0110", "--depth", "-1"],
     "depth must be non-negative"),
], ids=["max-n-0", "threshold-abc", "threshold-1/0", "threshold-1e5000",
        "image-no-inner", "complement-no-inner", "image-unknown",
        "fixpoint-unknown", "blank-file", "generate-depth", "decompose-depth"])
def test_usage_error_paths(tmp_path, capsys, argv, message):
    blank = tmp_path / "blank.txt"
    blank.write_text("\n  \n\t\n")
    code, out, err = run(capsys, *(a.replace("BLANK", str(blank))
                                   for a in argv))
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("threshold", ["1/0", "0/0", "5/0"])
def test_threshold_with_zero_denominator_names_it(capsys, threshold):
    code, out, err = run(capsys, "check-power", "--input", "literal:0110",
                         "--threshold", threshold)
    assert (code, out) == (2, "")
    assert f"bad threshold '{threshold}': its denominator is zero" in err


def test_seed_trim_is_a_decompose_option_only(capsys):
    code, _, _ = run(capsys, "decompose", "--depth", "2", "--input",
                     "image:g:fixpoint:f:0:1000", "--seed-trim", "5")
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["search", "--forbidden", "0110", "--seed-trim", "5"])
    assert exc.value.code == 2
    assert "--seed-trim" in capsys.readouterr().err


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_check_power_witness(capsys):
    code, out, _ = run(capsys, "check-power", "--input", "literal:000",
                       "--threshold", "5/2", "--strict")
    assert code == 0
    assert "witness: start=0 length=3 period=1" in out


def test_check_power_ok_on_overlap_free_fixture(capsys):
    code, out, _ = run(capsys, "check-power", "--input",
                       "fixpoint:mu:0:8192", "--threshold", "2", "--strict")
    assert code == 0
    assert out.startswith("ok")


def test_limit_guard_exit_code(capsys):
    code, _, err = run(capsys, "check-power", "--input",
                       "fixpoint:mu:0:4096", "--threshold", "2", "--strict",
                       "--limit", "100")
    assert code == 3
    assert "exceeds" in err


def test_image_reads_literal_over_morphism_source_alphabet(capsys):
    # 0101 alone would be read as binary; under g it is a ternary word
    code, out, _ = run(capsys, "classify", "--input", "image:g:literal:0101")
    assert code == 0
    assert out.startswith("class:")
    code, out, _ = run(capsys, "decode", "--morphism", "g", "--input",
                       "image:g:literal:0101")
    assert code == 0
    assert "preimage: 0101" in out
    code, _, err = run(capsys, "decode", "--morphism", "g", "--input",
                       "image:g:literal:0103")
    assert code == 2
    assert "error" in err


def test_bad_word_source(capsys):
    code, _, err = run(capsys, "classify", "--input", "literal:01021")
    assert code == 2
    assert "error" in err


def test_unknown_morphism_in_spec(capsys):
    code, _, err = run(capsys, "check-power", "--input",
                       "fixpoint:nope:0:100", "--threshold", "2", "--strict")
    assert code == 2


def test_stdout_is_deterministic(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "decompose", "--depth", "1", "--input",
                           "image:g:fixpoint:f:0:600", "--json")
        assert code == 0
        payload = json.loads(out)
        payload.pop("elapsed_ms")
        outputs.append(json.dumps(payload))
    assert outputs[0] == outputs[1]


# ------------------------------------------------- budgets before building

# (spec, whether an inner fixed point fits the limit and is built)
REFUSED_SPECS = [
    ("fixpoint:f:0:3000000", False),
    ("image:g:fixpoint:f:0:3000000", False),
    ("image:g:fixpoint:f:0:60", True),        # 60 letters map to 113
    ("complement:fixpoint:mu:0:500", False),
    ("literal:" + "01" * 60, False),
    ("image:mu:literal:" + "01" * 30, False),  # 60 letters map to 120
]


def test_registered_morphisms_are_non_erasing():
    # holding an image's inner source to the limit relies on this
    assert all(named(name).non_erasing for name in NAMED_MORPHISMS)


@pytest.mark.parametrize("spec, inner_built", REFUSED_SPECS)
def test_limit_refuses_before_building(capsys, spec, inner_built):
    with mock.patch.object(Morphism, "iterate_prefix", autospec=True,
                           side_effect=Morphism.iterate_prefix) as prefix, \
            mock.patch.object(Morphism, "apply", autospec=True) as apply:
        code, out, err = run(capsys, "check-power", "--input", spec,
                             "--threshold", "2", "--limit", "100")
    assert code == 3
    assert out == ""
    assert "exceeds --limit 100" in err
    apply.assert_not_called()
    assert prefix.called == inner_built
    assert all(call.args[2] <= 100 for call in prefix.call_args_list)


def test_limit_admits_a_source_of_exactly_the_limit(capsys):
    spec = "image:g:fixpoint:f:0:40"                   # 76 letters
    code, out, _ = run(capsys, "check-power", "--input", spec,
                       "--threshold", "5/2", "--strict", "--limit", "76")
    assert code == 0
    assert out.startswith("ok")
    code, _, err = run(capsys, "check-power", "--input", spec,
                       "--threshold", "5/2", "--strict", "--limit", "75")
    assert code == 3
    assert "image input of length 76 exceeds --limit 75" in err


# ----------------------------------------------- pinned decompose output

def front_defect(chain, seed, prefix):
    """g(m^4(prefix . m^w)) cut to 1200 letters, for m = f or h: a class word
    whose level words are clean only after a defective front."""
    m = named(chain)
    u = Word(prefix + m.iterate_prefix(seed, 40).letters, 3)
    for _ in range(4):
        u = m.apply(u)
    return "literal:" + str(named("g").apply(u)[:1200])


PINNED_DECOMPOSE = {
    "F": "image:g:fixpoint:f:0:600",
    "Fbar": "complement:image:g:fixpoint:f:0:600",
    "Frev": "image:g:fixpoint:h:1:600",
    "FbarRev": "complement:image:g:fixpoint:h:1:600",
    "F front 000": front_defect("f", 0, b"\0\0\0"),
    "F front 121212": front_defect("f", 0, b"\1\2\1\2\1\2"),
    "Frev front 222": front_defect("h", 1, b"\2\2\2"),
    "Frev front 101010": front_defect("h", 1, b"\1\0\1\0\1\0"),
}

# Results of ``decompose --depth 4 --json`` on the inputs above, captured
# from the implementation that re-ran the checker on the remaining suffix
# after each forgiven violation.  Preimages are kept as length and digest.
PINNED_RESULTS = Path(__file__).parent / "data" / "decompose_depth4.json"


def digest_preimages(results):
    for level in results["levels"]:
        pre = level["decode"]["preimage"]
        digest = hashlib.sha256(pre.encode("ascii")).hexdigest()[:16]
        level["decode"]["preimage"] = f"{len(pre)}:{digest}"
    return results


@pytest.mark.parametrize("name", PINNED_DECOMPOSE)
def test_decompose_output_is_pinned(capsys, name):
    code, out, _ = run(capsys, "decompose", "--depth", "4", "--input",
                       PINNED_DECOMPOSE[name], "--json")
    assert code == 0
    results = digest_preimages(json.loads(out)["results"])
    assert results == json.loads(PINNED_RESULTS.read_text())[name]


@pytest.mark.parametrize("name, calls", [("F front 000", 12),
                                         ("F front 121212", 9)])
def test_front_defect_decompose_sets_up_phase_2_as_often(capsys, name, calls):
    # each xyxyx phase 2 builds one prefix-count row per letter; a search
    # over the whole level word, trimmed stretches included, would set up
    # phase 2 on more levels
    with mock.patch.object(properness, "accumulate",
                           wraps=accumulate) as spy:
        code, _, _ = run(capsys, "decompose", "--depth", "4", "--input",
                         PINNED_DECOMPOSE[name])
    assert code == 0
    assert spy.call_count == calls


# ------------------------------------------------ golden stdout and exit codes

# Plain stdout, --json stdout without elapsed_ms, and exit codes of a fixed
# set of invocations, captured before the commands shared one dispatcher.
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_stdout.json")
                    .read_text())


def without_elapsed(out):
    lines = []
    for line in out.splitlines():
        payload = json.loads(line)
        payload.pop("elapsed_ms", None)
        lines.append(json.dumps(payload) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("entry", GOLDEN,
                         ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_cli_stdout_is_unchanged(capsys, entry):
    code, out, _ = run(capsys, *entry["argv"])
    assert (code, out) == (entry["code"], entry["stdout"])
    code, out, _ = run(capsys, *entry["argv"], "--json")
    assert (code, without_elapsed(out)) == (entry["json_code"],
                                            entry["json_stdout"])


# Plain stdout, --json stdout without elapsed_ms, and exit codes of the
# 100-row complexity table on the four classes, of a 2n+1 mismatch and of
# a table longer than its word, captured before the table was counted in
# one pass.
COMPLEXITY_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "complexity_stdout.json").read_text())


@pytest.mark.parametrize("entry", COMPLEXITY_GOLDEN,
                         ids=[" ".join(e["argv"]) for e in COMPLEXITY_GOLDEN])
def test_complexity_stdout_is_pinned(capsys, entry):
    test_cli_stdout_is_unchanged(capsys, entry)


# Plain stdout, --json stdout without elapsed_ms, and exit codes of
# generate over the four cases, depths 0..7 and lengths 1, 50, 4000 and
# 20000, captured while generate still built by doubling its seed prefix.
GENERATE_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "generate_stdout.json").read_text())


@pytest.mark.parametrize("entry", GENERATE_GOLDEN,
                         ids=[" ".join(e["argv"]) for e in GENERATE_GOLDEN])
def test_generate_stdout_is_pinned(capsys, entry):
    test_cli_stdout_is_unchanged(capsys, entry)


# Plain stdout, --json stdout without elapsed_ms, and exit codes of the
# four census table rows, two deep searches that reach their target, an
# empty target and a target over the limit, captured while each node still
# checked its suffixes period by period.
SEARCH_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "search_stdout.json").read_text())


@pytest.mark.parametrize("entry", SEARCH_GOLDEN,
                         ids=[" ".join(e["argv"]) for e in SEARCH_GOLDEN])
def test_search_stdout_is_pinned(capsys, entry):
    test_cli_stdout_is_unchanged(capsys, entry)


def test_import_loads_no_dataclasses_typing_or_inspect():
    # every CLI process pays for what importing the package loads; -S
    # keeps site, which some installs use to preload typing, out of it
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import rotewords.cli; "
            "print(sorted({'dataclasses', 'typing', 'inspect', 'argparse'} "
            "& set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_well_formed_command_line_loads_no_argparse():
    # argparse is imported only for help and for command lines in error
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from rotewords.cli import main; "
            "main(['check-power', '--input', 'literal:0110', '--threshold', "
            "'5/2', '--strict', '--limit', '10']); "
            "print('argparse' in sys.modules)")
    done = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (
        0, "ok: no factor violates the 5/2+ bound\nFalse\n")
