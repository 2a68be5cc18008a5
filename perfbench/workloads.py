"""The benchmark's workloads: input words, jobs and the check on each verdict.

A job is one call into rotewords - ``cli.main(argv)`` with ``--json``, or
``max_factor_exponent``, which has no CLI command - plus the expectation
its verdict is checked against.  Expectations come from ``known`` only.
Every job also carries a way to corrupt its expectation, which the runner
uses to show that a wrong expectation is counted as a failure.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

import known

LIMIT = 20000        # the CLI's default --limit; no CLI input exceeds it
WINDOW = 20000       # letters per seeded window of the linear census jobs
MAX_OFFSET = 40000   # windows start at a seeded offset below this
# Jobs are kept short because a job's time is its fastest repeat, and on a
# shared host whose speed swings for seconds at a time only short jobs find
# a fast stretch in every run.  So the quadratic scans and the complexity
# table run on shorter inputs than the linear passes: a 2500-letter scan
# takes 40-70 ms where a 20000-letter one takes 1-3 s, and front-defect
# words of 1200 letters make the same 130 and 166 checker calls as longer
# ones.  The growth fits of the traced run cover n up to 40000.  The
# complexity table to n = 100 needs 10000 letters (its safety factor is 100).
SCAN_WINDOW = 2500
FRONT_DEFECT = 1200
COMPLEXITY_WINDOW = 10000


class Wrong(Exception):
    """A verdict disagrees with the known answer."""


def need(condition: bool, message: str) -> None:
    if not condition:
        raise Wrong(message)


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    expect: object
    verify: Callable[[object, object], None]   # raises on a wrong verdict
    corrupt: Callable[[object], object]


class Inputs:
    """Input words of one run, written as digit lines under ``workdir``."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def file(self, name: str, w: bytes) -> str:
        need(len(w) <= LIMIT, f"input {name} exceeds --limit")
        path = self.workdir / f"{name}.txt"
        path.write_text(known.digits(w) + "\n", encoding="ascii")
        return f"file:{path}"


def cli_job(lib, argv: list[str]) -> Callable[[], tuple[int, str]]:
    argv = [*argv, "--json"]

    def run():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = lib.cli.main(argv)
        return rc, out.getvalue()
    return run


def _results(out, command: str):
    rc, text = out
    need(rc == 0, f"exit code {rc}")
    report = json.loads(text.splitlines()[-1])
    need(report["command"] == command and report["status"] == "ok",
         f"report {report['command']}/{report['status']}")
    return report["results"]


def _window(rng: random.Random, base: bytes, size: int = WINDOW) -> bytes:
    offset = rng.randrange(MAX_OFFSET)
    return base[offset:offset + size]


def _next_tag(expect):
    tag, *rest = expect
    tags = known.CLASS_TAGS
    return (tags[(tags.index(tag) + 1) % len(tags)], *rest)


# ------------------------------------------------------------- verdicts

def verify_search(out, expect) -> None:
    forbidden, maximum = expect
    res = _results(out, "search")
    need(res["max_length"] == maximum,
         f"max_length {res['max_length']}, expected {maximum}")
    need(not res["reached_target"], "search reached its target")
    witness = res["witness"]
    need(len(witness) == maximum, "witness length differs from max_length")
    need(not any(f in witness for f in forbidden),
         "witness contains a forbidden factor")


def verify_power(out, expect) -> None:
    w, (num, den), strict, free = expect
    witness = _results(out, "check-power")["witness"]
    if free:
        need(witness is None, f"unexpected witness {witness}")
        return
    need(witness is not None, "no witness")
    start, length, period = witness["start"], witness["length"], witness["period"]
    need(known.has_period(w, start, length, period),
         "witness is not a repetition")
    need(length * den > num * period if strict else length * den >= num * period,
         "witness exponent is below the threshold")


def _flip_free(expect):
    w, threshold, strict, free = expect
    return w, threshold, strict, not free


def verify_max_exponent(out, expect) -> None:
    w, (num, den) = expect
    e, witness = out
    need(e.length * den == num * e.period,
         f"maximum exponent {e.length}/{e.period}, expected {num}/{den}")
    need((witness.length, witness.period) == (e.length, e.period),
         "witness does not realise the exponent")
    need(known.has_period(w, witness.start, witness.length, witness.period),
         "witness is not a repetition")


def verify_decompose(out, expect) -> None:
    tag, depth, clean_from = expect
    res = _results(out, "decompose")
    need(res["class"] == tag, f"class {res['class']}, expected {tag}")
    need(res["depth_achieved"] == depth,
         f"depth {res['depth_achieved']}, expected {depth}")
    side = known.CHECKED_SIDE[tag]
    levels = res["levels"]
    need(len(levels) == depth + 1, f"{len(levels)} levels")
    need(all(lv[side] is not None and lv[side]["violation"] is None
             for lv in levels[clean_from:]),
         f"a level from {clean_from} on is not {side}")


def verify_classify(out, expect) -> None:
    (tag,) = expect
    got = _results(out, "classify")["class"]
    need(got == tag, f"class {got}, expected {tag}")


def verify_decode(out, expect) -> None:
    images, w = expect
    res = _results(out, "decode")
    pre = known.letters(res["preimage"])
    dropped, cut = res["dropped_prefix"], res["truncated_suffix"]
    need(0 <= dropped <= 3 and 0 <= cut <= 3, "margins out of range")
    need(w[:dropped] + known.apply(images, pre) + w[len(w) - cut:] == w,
         "re-encoded preimage does not reproduce the input")


def verify_generate(out, expect) -> None:
    need(_results(out, "generate")["word"] == known.digits(expect),
         "generated word differs from its construction")


def verify_complexity(out, expect) -> None:
    rows = _results(out, "complexity")["rows"]
    need([(r["n"], r["complexity"]) for r in rows]
         == [(n, 2 * n + expect) for n in range(1, 101)],
         "complexity is not 2n" + (f"+{expect}" if expect else ""))


# ------------------------------------------------------------ workloads

def power_scan(lib, rng: random.Random, inputs: Inputs) -> list[Job]:
    span = WINDOW + MAX_OFFSET
    gf = known.apply(known.G_IMAGES, known.fixed_point(known.F_IMAGES, 0, span))[:span]
    words = (("gf", gf, (5, 2), known.GF_MAX_EXPONENT),
             ("rc", known.complement(gf[::-1]), (5, 2), known.GF_MAX_EXPONENT),
             ("tm", known.fixed_point(known.MU_IMAGES, 0, span), (2, 1),
              known.TM_MAX_EXPONENT))
    jobs = []
    for (name, base, (num, den), max_exp), k in product(words, range(2)):
        threshold = f"{num}/{den}"
        w = _window(rng, base, SCAN_WINDOW)
        src = inputs.file(f"{name}{k}", w)
        argv = ["check-power", "--input", src, "--threshold", threshold]
        jobs.append(Job(f"check-power {threshold}+ {name}",
                        cli_job(lib, [*argv, "--strict"]),
                        (w, (num, den), True, True), verify_power, _flip_free))
        word = lib.words.Word(w, 2)
        jobs.append(Job(f"max_factor_exponent {name}",
                        lambda word=word: lib.repetitions.max_factor_exponent(word),
                        (w, max_exp), verify_max_exponent,
                        lambda e: (e[0], (e[1][0] + 1, e[1][1]))))
        if name != "tm":
            # Non-strict reading: an exponent-5/2 factor is an early witness.
            jobs.append(Job(f"check-power {threshold} {name}",
                            cli_job(lib, argv),
                            (w, (num, den), False, False),
                            verify_power, _flip_free))
    rng.shuffle(jobs)
    return jobs


def decompose(lib, rng: random.Random, inputs: Inputs) -> list[Job]:
    jobs = []
    for tag, k in product(known.CLASS_TAGS, range(2)):
        base = known.class_word(tag, WINDOW + MAX_OFFSET)
        src = inputs.file(f"{tag}{k}", _window(rng, base, SCAN_WINDOW))
        jobs.append(Job(f"decompose {tag}",
                        cli_job(lib, ["decompose", "--depth", "4",
                                      "--input", src]),
                        (tag, 4, 0), verify_decompose, _next_tag))
    # Defective fronts make the properness reports forgive and re-check.
    # On level 4 - m the defect spans about 3 |f^m(front letter)| letters;
    # from level 2 on that fits inside the 64-letter front-trim bound.
    for name, prefix in (("000", b"\0\0\0"), ("121212", b"\1\2\1\2\1\2")):
        src = inputs.file(f"front{name}", known.front_defect_word(prefix, FRONT_DEFECT))
        jobs.append(Job(f"decompose front {name}",
                        cli_job(lib, ["decompose", "--depth", "4",
                                      "--input", src]),
                        ("F", 4, 2), verify_decompose, _next_tag))
    rng.shuffle(jobs)
    return jobs


# Four rows of the reference table, from one to three forbidden factors and
# up to the deepest search (maximum 88).  Only four, because search slows by
# up to 1.8x in a shared host's slow stretches where the other jobs slow by
# 1.3x: with all 32 rows the run-to-run spread was the host's, not the
# program's.
SEARCH_ROWS = tuple(row for row in known.TABLE
                    if row[0] in {("0110",), ("0010", "0100"), ("0011", "1101"),
                                  ("0101", "1010", "10110010")})

_SPEC = {"F": "image:g:fixpoint:f:0:{}",
         "Fbar": "complement:image:g:fixpoint:f:0:{}",
         "Frev": "image:g:fixpoint:h:1:{}",
         "FbarRev": "complement:image:g:fixpoint:h:1:{}"}


def _spec(tag: str, inner: int) -> tuple[str, bytes]:
    """A generator spec of class ``tag`` and the word it stands for."""
    spec = _SPEC[tag].format(inner)
    images, seed = ((known.F_IMAGES, 0) if tag in ("F", "Fbar")
                    else (known.H_IMAGES, 1))
    w = known.apply(known.G_IMAGES, known.fixed_point(images, seed, inner))
    need(len(w) <= LIMIT, f"{spec} exceeds --limit")
    return spec, known.complement(w) if tag in ("Fbar", "FbarRev") else w


def census(lib, rng: random.Random, inputs: Inputs) -> list[Job]:
    jobs = []

    def classify(src, tag):
        jobs.append(Job(f"classify {tag}",
                        cli_job(lib, ["classify", "--input", src]),
                        (tag,), verify_classify, _next_tag))

    def decode(morphism, images, src, w):
        jobs.append(Job(f"decode {morphism}",
                        cli_job(lib, ["decode", "--morphism", morphism,
                                      "--input", src]),
                        (images, w), verify_decode,
                        lambda e: (e[0][1:] + e[0][:1], e[1])))

    def complexity(src):
        jobs.append(Job("complexity",
                        cli_job(lib, ["complexity", "--input", src,
                                      "--max-n", "100", "--expect", "2n"]),
                        0, verify_complexity, lambda e: e + 1))

    # g-images of 8000..10000-letter fixed-point prefixes stay below 20000.
    for tag in known.CLASS_TAGS:
        spec, spec_word = _spec(tag, rng.randrange(8000, 10001))
        classify(spec, tag)
        window = _window(rng, known.class_word(tag, WINDOW + MAX_OFFSET))
        src = inputs.file(f"{tag}", window)
        classify(src, tag)
        if tag in ("F", "Frev"):
            decode("g", known.G_IMAGES, spec, spec_word)
            decode("g", known.G_IMAGES, src, window)
        length = rng.randrange(10000, LIMIT + 1)
        jobs.append(Job(f"generate {tag}",
                        cli_job(lib, ["generate", "--case", tag, "--depth", "4",
                                      "--length", str(length)]),
                        known.class_word(tag, length), verify_generate,
                        known.complement))
    for morphism, images, seed in (("f", known.F_IMAGES, 0),
                                   ("h", known.H_IMAGES, 1)):
        length = rng.randrange(10000, LIMIT + 1)
        decode(morphism, images, f"fixpoint:{morphism}:{seed}:{length}",
               known.fixed_point(images, seed, length))
        window = _window(rng, known.fixed_point(images, seed, WINDOW + MAX_OFFSET))
        decode(morphism, images, inputs.file(f"{morphism}-window", window), window)
    for fb, maximum in SEARCH_ROWS:
        jobs.append(Job("search", cli_job(lib, ["search", "--forbidden",
                                                ",".join(fb), "--target", "200"]),
                        (fb, maximum), verify_search, lambda e: (e[0], e[1] + 1)))
    # g-images of 5300..5500-letter prefixes have 10040..10420 letters.
    complexity(_spec("F", rng.randrange(5300, 5501))[0])
    tag = rng.choice(known.CLASS_TAGS)
    complexity(inputs.file("complexity", _window(
        rng, known.class_word(tag, WINDOW + MAX_OFFSET), COMPLEXITY_WINDOW)))
    rng.shuffle(jobs)
    return jobs


# name -> (builder, why the workload is in the benchmark)
WORKLOADS = {
    "power-scan": (power_scan,
                   "check-power and max_factor_exponent on 2500-letter "
                   "windows: the per-period XOR-mask repetition scan"),
    "decompose": (decompose,
                  "decompose --depth 4 on all four classes plus front-defect "
                  "words: properness phase 1 and the report re-run path"),
    "census": (census,
               "classify, decode, generate, complexity and four table "
               "searches: the linear passes and search DFS, under 2% of every "
               "other workload"),
}
