"""Command-line interface.

Commands: verify-paper, search, classify, decode, decompose, generate,
complexity, check-power.  Words travel as ASCII digit lines; input
sources are either files ("file:PATH", a bare path, or "-" for stdin,
first non-empty line) or generator specs composed right to left:

    fixpoint:<morphism>:<seed>:<length>
    image:<morphism>:<spec>
    complement:<spec>
    literal:<digits>

so "image:tau:fixpoint:theta:0:20000" is tau applied to a 20000-letter
prefix of theta's fixed point from 0.

Exit codes: 0 ok, 1 mismatch, 2 usage or parse error, 3 length guard
exceeded.  Timings go to stderr (plain mode) or into the JSON payload,
never into comparison results, so stdout is reproducible byte for byte.
"""

from __future__ import annotations

import json
import sys
import time
from collections.abc import Sequence
from fractions import Fraction
from functools import cache, partial
from types import SimpleNamespace

from .morphisms import NAMED_MORPHISMS, equal_on_letters, named
from .repetitions import exponent, is_power_free
from .search import longest_avoiding, run_reference_table
from .structure import (CaseTag, _grammar, classify_by_length4, decode,
                        decompose, generate_case_word)
from .words import (DEFAULT_LENGTH_GUARD, LengthLimitError, Record, Word,
                    complement, complexity_profile, digit_alphabet,
                    parse_word)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


def _read_word_line(path: str, limit: int | None) -> str:
    stream = sys.stdin if path == "-" else open(
        path, "r", encoding="utf-8", errors="replace")
    size = sys.maxsize if limit is None else min(limit + 1, sys.maxsize)
    text = word = ""
    try:
        while piece := stream.readline(size):
            text = (text + piece).lstrip()
            word = text.rstrip()
            if len(word) >= size:
                raise LengthLimitError(f"file line exceeds --limit {limit}")
            if word and piece.endswith("\n"):
                return word
            text = text[:len(word) + size]    # at most size trailing blanks
    finally:
        if stream is not sys.stdin:
            stream.close()
    if word:
        return word
    raise ValueError(f"no word found in {'stdin' if path == '-' else path}")


def _infer_word(text: str, alphabet_size: int | None) -> Word:
    if alphabet_size is None:
        alphabet_size = max(2, digit_alphabet(text))
    return parse_word(text, alphabet_size)


def _check_limit(kind: str, length: int, limit: int | None) -> None:
    if limit is not None and length > limit:
        raise LengthLimitError(
            f"{kind} input of length {length} exceeds --limit {limit}")


def parse_source(spec: str, alphabet_size: int | None = None,
                 limit: int | None = None) -> Word:
    """Resolve a word source spec (see module docstring) into a Word.

    Digit strings (``literal:`` and files) are read over ``alphabet_size``
    letters when it is given, as it is inside ``image:`` where the
    morphism's source alphabet applies; otherwise over the smallest
    alphabet (at least 2) that holds their letters.

    A source longer than ``limit`` letters raises LengthLimitError before
    it is built: a fixed-point prefix on its length field, an image on the
    length its inner word maps to, and digit text before it is read whole.
    Inner sources of an image are held to the same limit, which is sound
    because every registered morphism is non-erasing.
    """
    head, _, rest = spec.partition(":")
    if head == "fixpoint":
        try:
            name, seed, length = rest.split(":")
            m, seed, length = named(name), int(seed), int(length)
            _check_limit(head, length, limit)
            return m.iterate_prefix(seed, length)
        except (ValueError, KeyError) as exc:
            raise ValueError(f"bad fixpoint spec {spec!r}: {exc.args[0]}") from exc
    if head == "image":
        name, _, inner = rest.partition(":")
        if not inner:
            raise ValueError(f"image spec needs an inner source: {spec!r}")
        try:
            m = named(name)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from exc
        w = parse_source(inner, m.source_alphabet, limit)
        _check_limit(head, sum(w.letters.count(a) * len(img)
                               for a, img in enumerate(m.images)), limit)
        return m.apply(w)
    if head == "complement":
        if not rest:
            raise ValueError("complement spec needs an inner source")
        return complement(parse_source(rest, alphabet_size, limit))
    if head == "literal":
        _check_limit(head, len(rest), limit)
        return _infer_word(rest, alphabet_size)
    text = _read_word_line(rest if head == "file" else spec, limit)
    return _infer_word(text, alphabet_size)


def _load_input(args, alphabet_size: int | None = None) -> Word:
    """The --input word, read over ``alphabet_size`` letters when given."""
    w = parse_source(args.input, limit=args.limit)
    return w if alphabet_size is None else Word(w.letters, alphabet_size)


class Outcome(Record):
    """What a command returns: its report fields and its plain output.

    ``records`` are JSON objects printed one per line before the report
    in --json mode (verify-paper's individual checks).
    """

    parameters: dict
    results: object
    lines: list[str]
    status: str = "ok"
    records: Sequence[dict] = ()


# ---------------------------------------------------------------- commands

def _cmd_verify_paper(args) -> Outcome:
    rows = None
    if args.expected_table:
        with open(args.expected_table, "r", encoding="ascii") as fh:
            table = json.load(fh)
        # a table that is not a list is refused as one malformed row
        for row in table if isinstance(table, list) else [table]:
            if not (isinstance(row, list) and len(row) == 2
                    and isinstance(row[0], list)
                    and all(isinstance(f, str) for f in row[0])
                    and type(row[1]) is int):   # bool and float are refused
                raise ValueError(f"--expected-table row {json.dumps(row)} "
                                 "is not [[factor strings...], int]")
        rows = [(tuple(fb), expected) for fb, expected in table]
    checks, lines = [], []

    def check(payload: dict, line: str) -> None:
        checks.append(payload)
        lines.append(f"{line} {'ok' if payload['match'] else 'MISMATCH'}")

    for row in run_reference_table(rows, target=args.target):
        check({**row.to_json(), "kind": "search"},
              f"search {{{','.join(row.forbidden)}}}: expected "
              f"{row.expected} computed {row.computed}")

    g, h, tau, theta = named("g"), named("h"), named("tau"), named("theta")
    sigma, sigma_inv = named("sigma"), named("sigma_inv")
    identities = [
        ("tau = g.sigma", equal_on_letters(tau, g.compose(sigma))),
        ("theta^2 = sigma_inv.h.sigma",
         equal_on_letters(theta.compose(theta),
                          sigma_inv.compose(h.compose(sigma)))),
    ]
    for name, ok in identities:
        check({"kind": "identity", "name": name, "match": ok},
              f"identity {name}:")

    word2 = partial(parse_word, alphabet_size=2)
    word3 = partial(parse_word, alphabet_size=3)
    power_checks = [
        ("000 is a 5/2+ power", word2("000"), None),
        ("g(2121) extended by 01", word2("01001001"),
         g.apply(word3("2121")) + word2("01")),
        ("g(10101) flanked by 1 and 0", word2("10011001100"),
         word2("1") + g.apply(word3("10101")) + word2("0")),
        ("g(10210210)", word2("0011010011010011"),
         g.apply(word3("10210210"))),
    ]
    for name, expected_word, construction in power_checks:
        built_ok = construction is None or construction == expected_word
        e = exponent(expected_word)
        check({"kind": "power", "name": name, "word": str(expected_word),
               "exponent": f"{e.length}/{e.period}",
               "match": built_ok and e > Fraction(5, 2)},
              f"power {name}: exponent {e.length}/{e.period}")

    all_ok = all(c["match"] for c in checks)
    lines.append(f"{len(checks)} checks, "
                 f"{'all ok' if all_ok else 'MISMATCHES PRESENT'}")
    return Outcome({"target": args.target}, {"checks": len(checks)}, lines,
                   "ok" if all_ok else "mismatch", checks)


def _cmd_search(args) -> Outcome:
    forbidden = [s for s in args.forbidden.split(",") if s]
    outcome = longest_avoiding(forbidden, args.target)
    return Outcome({"forbidden": forbidden, "target": args.target},
                   outcome.to_json(), [
                       f"max_length: {outcome.max_length}",
                       f"reached_target: {outcome.reached_target}",
                       f"witness: {outcome.witness}",
                       f"nodes: {outcome.nodes_explored}"])


def _cmd_classify(args) -> Outcome:
    w = _load_input(args, 2)
    cls = classify_by_length4(w)
    if cls.is_definite:
        line = f"class: {cls.tag.value}"
    elif cls.is_ambiguous:
        line = ("class: ambiguous ("
                + ", ".join(t.value for t in cls.compatible) + ")")
    else:
        line = ("class: inconsistent (offending factors: "
                + ", ".join(str(w_) for w_ in cls.offenders) + ")")
    return Outcome({"length": len(w)}, {"class": cls.to_json()}, [line])


def _cmd_decode(args) -> Outcome:
    m = named(args.morphism)
    _grammar(m)     # refuse a morphism without a marker before building w
    w = _load_input(args, m.target_alphabet)
    result = decode(m, w).to_json()
    return Outcome({"morphism": args.morphism, "length": len(w)}, result,
                   [f"{key}: {value}" for key, value in result.items()])


def _verdict(rep) -> str:
    if rep is None:
        return "-"
    state = "clean" if rep.clean else f"violation at {rep.violation.position}"
    return f"{state} (checked {rep.checked_length} letters, trim {rep.trim})"


def _cmd_decompose(args) -> Outcome:
    w = _load_input(args, 2)
    cert = decompose(w, args.depth, min_level_length=args.min_level_length,
                     front_trim_bound=args.seed_trim)
    lines = [f"class: {cert.factor_class.tag.value}",
             f"depth_achieved: {cert.depth_achieved}"]
    for idx, level in enumerate(cert.levels):
        lines.append(
            f"level {idx} [{level.morphism}]: preimage length "
            f"{len(level.decode.preimage)}, margins "
            f"{level.decode.dropped_prefix}/{level.decode.truncated_suffix}, "
            f"tail_trim {level.tail_trim}; proper: {_verdict(level.proper)}; "
            f"antiproper: {_verdict(level.antiproper)}")
    return Outcome({"depth": args.depth, "length": len(w)}, cert.to_json(),
                   lines)


def _cmd_generate(args) -> Outcome:
    word = str(generate_case_word(args.case, args.depth, args.length, limit=args.limit))
    return Outcome({"case": args.case, "depth": args.depth,
                    "length": args.length}, {"word": word}, [word])


def _cmd_complexity(args) -> Outcome:
    if args.max_n < 1:
        raise ValueError("--max-n must be at least 1")
    w = _load_input(args)
    if len(w) < args.safety * args.max_n:
        raise ValueError(
            f"word of length {len(w)} is too short for max_n {args.max_n}; "
            f"provide at least {args.safety * args.max_n} letters "
            f"(safety factor {args.safety})")
    rows, lines = [], []
    for n, c in enumerate(complexity_profile(w, args.max_n)[1:], 1):
        row = {"n": n, "complexity": c}
        line = f"n={n}: {c}"
        if args.expect:
            expected = 2 * n if args.expect == "2n" else 2 * n + 1
            row["expected"] = expected
            row["match"] = c == expected
            line += f" expected {expected} {'ok' if row['match'] else 'MISMATCH'}"
        rows.append(row)
        lines.append(line)
    return Outcome({"length": len(w), "max_n": args.max_n,
                    "expect": args.expect}, {"rows": rows}, lines,
                   "ok" if all(r.get("match", True) for r in rows)
                   else "mismatch")


def _cmd_check_power(args) -> Outcome:
    w = _load_input(args)
    try:    # str() refuses an integer part past sys.get_int_max_str_digits()
        threshold = Fraction(args.threshold)
        text = str(threshold)
    except (ValueError, ZeroDivisionError) as exc:
        why = ("its denominator is zero" if isinstance(exc, ZeroDivisionError)
               else exc)
        raise ValueError(f"bad threshold {args.threshold!r}: {why}") from exc
    witness = is_power_free(w, threshold, args.strict)
    if witness is None:
        kind = f"{text}{'+' if args.strict else ''}"
        line = f"ok: no factor violates the {kind} bound"
    else:
        witness = witness.to_json()
        line = "witness: " + " ".join(f"{k}={v}" for k, v in witness.items())
    return Outcome({"length": len(w), "threshold": text,
                    "strict": args.strict}, {"witness": witness}, [line])


# ----------------------------------------------------------------- options

# Each command's options by option string: (type, default, help).  The type
# is bool for a flag, int or str for a value, or the tuple of values
# allowed; a default of ... marks a required option.  An option's dest is
# its option string without the dashes, with "_" for "-".
_COMMON = {"--json": (bool, False, "emit machine-readable JSON"),
           "--limit": (int, DEFAULT_LENGTH_GUARD,
                       "length guard in letters, also on generate")}
_SOURCE = {**_COMMON, "--input": (str, ..., None)}

# command: (function, help, options)
_COMMANDS = {
    "verify-paper": (_cmd_verify_paper, "recompute the reference search "
                     "table and identity checks", {
        **_COMMON, "--target": (int, 200, None),
        "--expected-table": (str, None, "JSON file overriding the expected "
                                        "rows (testing aid)")}),
    "search": (_cmd_search, "longest binary word avoiding 5/2+ powers and "
               "the given factors", {
        **_COMMON, "--forbidden": (str, ..., "comma-separated binary factors"),
        "--target": (int, 200, None)}),
    "classify": (_cmd_classify,
                 "length-4 factor classification of a binary word", _SOURCE),
    "decode": (_cmd_decode, "invert one application of a morphism whose "
               "images carry a marker letter (g, f, h, tau)", {
        **_SOURCE, "--morphism": (NAMED_MORPHISMS, ..., None)}),
    "decompose": (_cmd_decompose,
                  "iterated decoding with properness certificates", {
        **_SOURCE, "--depth": (int, ..., None),
        "--min-level-length": (int, 10, None),
        "--seed-trim": (int, 64, "front-trim bound for properness reports")}),
    "generate": (_cmd_generate,
                 "construct a word of one of the four classes", {
        **_COMMON, "--case": (tuple(t.value for t in CaseTag), ..., None),
        "--depth": (int, ..., None), "--length": (int, ..., None)}),
    "complexity": (_cmd_complexity, "factor complexity table of a word", {
        **_SOURCE, "--max-n": (int, ..., None),
        "--expect": (("2n", "2n+1"), None, None),
        "--safety": (int, 100, "required input length as a multiple of "
                               "max-n")}),
    "check-power": (_cmd_check_power,
                    "scan all factors against an exponent threshold", {
        **_SOURCE, "--threshold": (str, ..., "rational threshold such as 5/2"),
        "--strict": (bool, False,
                     "flag only exponents strictly above the threshold")}),
}


@cache
def _build_parser():
    """The argparse parser of the option table, for help and errors."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="rotewords",
        description="Power avoidance, morphisms, and structure of "
                    "low-complexity words")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, (kind, default, text) in options.items():
            p.add_argument(flag, default=default, required=default is ...,
                           help=text, **(
                               {"action": "store_true"} if kind is bool else
                               {"choices": kind} if isinstance(kind, tuple)
                               else {"type": kind}))
        p.set_defaults(func=func)
    return parser


def _read_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse makes of ``argv``, or None to leave it to
    argparse.  Read here: a command name, exact option strings of it, and
    values that do not start with "-", convert by their option's type and
    lie in its choices, with every required option given."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, options = _COMMANDS[argv[0]]
    given, tokens = {}, iter(argv[1:])
    for flag in tokens:
        if flag not in options:
            return None
        kind = options[flag][0]
        if kind is bool:
            given[flag] = True
            continue
        value = next(tokens, "-")       # a missing value is refused as "-"
        if value.startswith("-"):
            return None
        if isinstance(kind, tuple):
            if value not in kind:
                return None
        else:
            try:
                value = kind(value)
            except ValueError:
                return None
        given[flag] = value
    values = {flag[2:].replace("-", "_"): given.get(flag, default)
              for flag, (_, default, _) in options.items()}
    if ... in values.values():          # a required option is missing
        return None
    return SimpleNamespace(command=argv[0], func=func, **values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_args(argv) or _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        for name in ("limit", "seed_trim", "min_level_length", "safety"):
            if getattr(args, name, 0) < 0:   # else read as 0 or an unmet bound
                raise ValueError(
                    f"--{name.replace('_', '-')} must be non-negative")
        for name in ("target", "max_n"):    # a search depth or table rows
            value = getattr(args, name, 0)
            if value > args.limit:
                raise LengthLimitError(f"--{name.replace('_', '-')} {value} "
                                       f"exceeds --limit {args.limit}")
        outcome = args.func(args)
    except (LengthLimitError, ValueError, OSError) as exc:
        # every library error but the length guard is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT if isinstance(exc, LengthLimitError) else EXIT_USAGE
    elapsed_ms = (time.perf_counter() - t0) * 1000
    if args.json:
        for record in outcome.records:
            print(json.dumps(record))
        print(json.dumps({"command": args.command,
                          "parameters": outcome.parameters,
                          "results": outcome.results,
                          "elapsed_ms": round(elapsed_ms, 3),
                          "status": outcome.status}))
    else:
        for line in outcome.lines:
            print(line)
        print(f"elapsed: {elapsed_ms:.1f} ms", file=sys.stderr)
    return EXIT_OK if outcome.status == "ok" else EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
