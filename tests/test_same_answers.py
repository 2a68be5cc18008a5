"""The same answers over a fixed corpus of CLI invocations.

``tests/data/same_answers.json`` holds, for each invocation in
``invocations()``, its argv, its exit code and the SHA-256 of its plain
stdout and of its ``--json`` stdout without ``elapsed_ms``.  The corpus
runs the four classes at about 2500 and 20000 letters, where the banded
run scan does most of the work, plus front-defect words, Thue-Morse and
its windows, and the usage-error and limit exits.

Running this file rewrites the JSON from the code it imports:

    PYTHONPATH=src python tests/test_same_answers.py

To add a row, add its argv to ``invocations()`` and rewrite the file on
code whose answers are known good; ``git diff`` must then show only the
new rows.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from rotewords import named
from rotewords.cli import main, parse_source

from test_cli import front_defect, without_elapsed

CORPUS = Path(__file__).parent / "data" / "same_answers.json"

# fixed-point prefixes whose g-images have about 2500 and 20000 letters
CLASS_SPECS = [f"{bar}image:g:fixpoint:{seed}:{n}"
               for n in (1320, 10550) for seed in ("f:0", "h:1")
               for bar in ("", "complement:")]
THRESHOLDS = [["2"], ["2", "--strict"], ["5/2"], ["5/2", "--strict"], ["7/3"]]


def invocations():
    rows = []
    for spec in CLASS_SPECS:
        short = spec.endswith(":1320")
        rows += [["check-power", "--input", spec, "--threshold", *t]
                 for t in THRESHOLDS]
        rows.append(["decompose", "--depth", "4", "--input", spec])
        rows.append(["complexity", "--max-n", "100", "--input", spec,
                     *(["--safety", "25"] if short else [])])
    for chain, seed, prefix in (("f", 0, b"\0\0\0"), ("f", 0, b"\1\2\1\2\1\2"),
                                ("h", 1, b"\2\2\2"), ("h", 1, b"\1\0\1\0\1\0")):
        spec = front_defect(chain, seed, prefix)
        rows.append(["decompose", "--depth", "4", "--input", spec])
        rows.append(["decompose", "--depth", "4", "--seed-trim", "0",
                     "--input", spec])
        rows.append(["check-power", "--input", spec, "--threshold", "5/2",
                     "--strict"])
    # windows that cut into an image at the front: decode drops up to its
    # margin of letters
    for name, seed in (("f", 0), ("h", 1)):
        word = str(named(name).iterate_prefix(seed, 2504))
        rows += [["decode", "--morphism", name, "--input",
                  f"literal:{word[a:a + 2500]}"] for a in range(4)]
    for spec in CLASS_SPECS[4::2]:     # F and Frev at 20000 letters
        word = str(parse_source(spec))
        for a in (1, 2, 7777):
            window = f"literal:{word[a:a + 2500]}"
            rows.append(["decode", "--morphism", "g", "--input", window])
            rows.append(["decompose", "--depth", "4", "--input", window])
    thue_morse = str(named("mu").iterate_prefix(0, 20000))
    for spec in ("fixpoint:mu:0:20000",
                 *(f"literal:{thue_morse[a:a + 2500]}" for a in (3, 5000))):
        rows += [["check-power", "--input", spec, "--threshold", *t]
                 for t in (["2"], ["2", "--strict"], ["7/3"])]
        rows.append(["complexity", "--max-n", "100", "--input", spec,
                     "--safety", "25"])
        rows.append(["classify", "--input", spec])
    # mu^10(00) is overlap-free; one more letter makes an overlap of period
    # 1024 whose run is exactly as long as the band scan must find
    square = thue_morse[:1024] * 2
    rows += [["check-power", "--input", f"literal:{square}{tail}",
              "--threshold", "2", "--strict"] for tail in ("", "0")]
    rows += [
        # exit 2: usage errors and words that do not decode or classify
        ["check-power", "--input", "literal:01101", "--threshold", "abc"],
        ["check-power", "--input", "literal:01101", "--threshold", "1/0"],
        ["decode", "--morphism", "g", "--input", "image:g:literal:0103"],
        ["decode", "--morphism", "mu", "--input", "fixpoint:mu:0:100"],
        ["decompose", "--depth", "4", "--input", "fixpoint:mu:0:2000"],
        ["complexity", "--max-n", "100", "--input", CLASS_SPECS[0]],
        ["classify", "--input", "literal:01101", "--limit", "-1"],
        # exit 3: over --limit, refused before the word is built
        ["check-power", "--input", "fixpoint:f:0:30000", "--threshold", "2"],
        ["decompose", "--depth", "4", "--input", "image:g:fixpoint:f:0:10600"],
        ["generate", "--case", "F", "--depth", "7", "--length", "30000"],
        ["complexity", "--max-n", "30000", "--input", CLASS_SPECS[-1]],
    ]
    return rows


def run(argv):
    """Exit code and stdout of ``main(argv)``, stderr discarded."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def answer(argv):
    code, out = run(argv)
    json_code, json_out = run([*argv, "--json"])
    assert json_code == code, argv
    return {"argv": argv, "code": code, "stdout_sha256": sha256(out),
            "json_sha256": sha256(without_elapsed(json_out))}


def test_same_answers():
    corpus = json.loads(CORPUS.read_text())
    changed = [" ".join(row["argv"])[:120] for row in corpus
               if answer(row["argv"]) != row]
    assert not changed, f"{len(changed)} of {len(corpus)} rows changed:\n" + \
        "\n".join(changed)


if __name__ == "__main__":
    CORPUS.write_text(json.dumps([answer(a) for a in invocations()],
                                 indent=1) + "\n")
