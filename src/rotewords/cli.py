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

import argparse
import json
import sys
import time
from collections.abc import Sequence
from fractions import Fraction
from functools import cache, partial

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


class SourceError(ValueError):
    pass


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
    raise SourceError(f"no word found in {'stdin' if path == '-' else path}")


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
            raise SourceError(f"bad fixpoint spec {spec!r}: {exc.args[0]}") from exc
    if head == "image":
        name, _, inner = rest.partition(":")
        if not inner:
            raise SourceError(f"image spec needs an inner source: {spec!r}")
        try:
            m = named(name)
        except KeyError as exc:
            raise SourceError(exc.args[0]) from exc
        w = parse_source(inner, m.source_alphabet, limit)
        _check_limit(head, sum(w.letters.count(a) * len(img)
                               for a, img in enumerate(m.images)), limit)
        return m.apply(w)
    if head == "complement":
        if not rest:
            raise SourceError("complement spec needs an inner source")
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
                raise SourceError(f"--expected-table row {json.dumps(row)} "
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
        raise SourceError("--max-n must be at least 1")
    w = _load_input(args)
    if len(w) < args.safety * args.max_n:
        raise SourceError(
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
        raise SourceError(f"bad threshold {args.threshold!r}: {why}") from exc
    witness = is_power_free(w, threshold, args.strict)
    if witness is None:
        kind = f"{text}{'+' if args.strict else ''}"
        line = f"ok: no factor violates the {kind} bound"
    else:
        witness = witness.to_json()
        line = "witness: " + " ".join(f"{k}={v}" for k, v in witness.items())
    return Outcome({"length": len(w), "threshold": text,
                    "strict": args.strict}, {"witness": witness}, [line])


# ------------------------------------------------------------------ parser

@cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    common.add_argument("--limit", type=int, default=DEFAULT_LENGTH_GUARD,
                        help="length guard in letters, also on generate")
    source = argparse.ArgumentParser(add_help=False, parents=[common])
    source.add_argument("--input", required=True)

    parser = argparse.ArgumentParser(
        prog="rotewords",
        description="Power avoidance, morphisms, and structure of "
                    "low-complexity words")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-paper", parents=[common],
                       help="recompute the reference search table and "
                            "identity checks")
    p.add_argument("--target", type=int, default=200)
    p.add_argument("--expected-table", default=None,
                   help="JSON file overriding the expected rows (testing aid)")
    p.set_defaults(func=_cmd_verify_paper)

    p = sub.add_parser("search", parents=[common],
                       help="longest binary word avoiding 5/2+ powers and "
                            "the given factors")
    p.add_argument("--forbidden", required=True,
                   help="comma-separated binary factors")
    p.add_argument("--target", type=int, default=200)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("classify", parents=[source],
                       help="length-4 factor classification of a binary word")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("decode", parents=[source],
                       help="invert one application of a morphism whose "
                            "images carry a marker letter (g, f, h, tau)")
    p.add_argument("--morphism", choices=NAMED_MORPHISMS, required=True)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("decompose", parents=[source],
                       help="iterated decoding with properness certificates")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--min-level-length", type=int, default=10,
                   dest="min_level_length")
    p.add_argument("--seed-trim", type=int, default=64, dest="seed_trim",
                   help="front-trim bound for properness reports")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("generate", parents=[common],
                       help="construct a word of one of the four classes")
    p.add_argument("--case", choices=[t.value for t in CaseTag], required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("complexity", parents=[source],
                       help="factor complexity table of a word")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument("--expect", choices=["2n", "2n+1"], default=None)
    p.add_argument("--safety", type=int, default=100,
                   help="required input length as a multiple of max-n")
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("check-power", parents=[source],
                       help="scan all factors against an exponent threshold")
    p.add_argument("--threshold", required=True,
                   help="rational threshold such as 5/2")
    p.add_argument("--strict", action="store_true",
                   help="flag only exponents strictly above the threshold")
    p.set_defaults(func=_cmd_check_power)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        for name in ("limit", "seed_trim", "min_level_length", "safety"):
            if getattr(args, name, 0) < 0:   # else read as 0 or an unmet bound
                raise SourceError(
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
