"""The direct reader of command lines, ``cli._read_args``, against argparse.

The reader reads a command name followed by exact option strings and
plain values, and returns None for argparse to read anything else.
Wherever it reads a command line, its namespace must be argparse's.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotewords.cli import _COMMANDS, _build_parser, _read_args


def parsed(argv):
    """vars() of argparse's namespace of ``argv``, or None if it exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(_build_parser().parse_args(argv))
        except SystemExit:
            return None


OPTIONS = {flag: spec for _, _, options in _COMMANDS.values()
           for flag, spec in options.items()}
CHOICES = [c for kind, _, _ in OPTIONS.values() if isinstance(kind, tuple)
           for c in kind]
VALUES = ["", "-", "-5", " 7", "1e3", "4", "literal:0110", *CHOICES, "bogus"]
TOKENS = [*_COMMANDS, "bogus", *OPTIONS, "--lim", "--depth=4", "-h", "--",
          *VALUES]


def good_value(kind):
    """A value a required option, never a flag, takes."""
    return kind[0] if isinstance(kind, tuple) else {
        int: "4", str: "literal:0110"}[kind]


@st.composite
def command_lines(draw):
    """A command, most of its required options with good values, and
    options with any values and stray tokens, in any order."""
    name = draw(st.sampled_from([*_COMMANDS, "bogus"]))
    options = _COMMANDS[name][2] if name in _COMMANDS else {}
    chunks = [[flag, good_value(kind)]
              for flag, (kind, default, _) in options.items()
              if default is ... and draw(st.integers(0, 7))]
    chunks += draw(st.lists(st.one_of(
        st.tuples(st.sampled_from(sorted(OPTIONS)),
                  st.sampled_from(VALUES)).map(list),
        st.sampled_from(TOKENS).map(lambda t: [t]),
        st.sampled_from([f for f, (k, _, _) in OPTIONS.items()
                         if k is bool]).map(lambda t: [t])), max_size=5))
    return [name, *(t for chunk in draw(st.permutations(chunks))
                    for t in chunk)]


@settings(max_examples=400, deadline=None)
@given(command_lines())
@example(["classify", "--input", "literal:0110"])
@example(["search", "--target", "4"])
@example(["decode", "--input", "literal:0110", "--morphism", "bogus"])
@example(["classify", "--input", "--json"])
def test_read_args_matches_argparse(argv):
    args = _read_args(argv)
    if args is not None:
        assert vars(args) == parsed(argv)


DATA = Path(__file__).parent / "data"
PINNED = [entry["argv"] for name in ("same_answers", "cli_stdout",
                                     "search_stdout", "complexity_stdout",
                                     "generate_stdout")
          for entry in json.loads((DATA / f"{name}.json").read_text())]


def test_pinned_command_lines_are_read_without_argparse():
    # each pinned argv also runs with --json appended; "-1" starts with "-",
    # so only argparse may tell a negative number from an option
    refused = []
    for argv in PINNED:
        for argv in (argv, [*argv, "--json"]):
            args = _read_args(argv)
            if args is None:
                refused.append(" ".join(argv))
            else:
                assert vars(args) == parsed(argv)
    assert refused == ["classify --input literal:01101 --limit -1",
                       "classify --input literal:01101 --limit -1 --json"]
