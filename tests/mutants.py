"""Mutants the test suite must kill, re-runnable on any checkout.

Each mutant replaces one exact text in one module under src/rotewords/
and names the tests expected to fail on it.  For each mutant the runner
copies src/, tests/ and pyproject.toml into a temporary directory, applies
the mutant there, runs its tests with ``python -m pytest -x -q`` and
reports it killed, survived or stale, with its time.  A mutant whose old
text does not occur exactly once is stale: a refactor that moves the code
must update the mutant too, which tests/test_mutant_texts.py checks.  The
checkout itself is never written.

    python tests/mutants.py             # every mutant
    python tests/mutants.py NAME ...    # the named ones

The file has no test_ prefix, so pytest does not collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rotewords"
TIMEOUT = 300       # seconds; a mutant that hangs its tests is killed

# module: a file under src/rotewords/; tests: the pytest arguments that
# select the tests expected to kill it
Mutant = namedtuple("Mutant", "name module old new tests")

MUTANTS = (
    # a band run's end one short: check-power --threshold 2 --strict on
    # mu^10(00)0 loses its witness at period 1024
    Mutant("band-run-end-one-short", "repetitions.py",
           "b = hi - 1 - (right.bit_length() - 1) // w if right else hi\n",
           "b = hi - 2 - (right.bit_length() - 1) // w if right else hi - 1\n",
           ("tests/test_same_answers.py",)),
    # a band run's start one letter late
    Mutant("band-run-start-one-late", "repetitions.py",
           "a = i - ((left & -left).bit_length() - 1) // w",
           "a = i + 1 - ((left & -left).bit_length() - 1) // w",
           ("tests/test_differential.py", "-k", "band_runs_match")),
    # a walk's reach one sample short: its last agreeing sample is walked
    # again, and its run read twice
    Mutant("band-reach-one-sample-short", "repetitions.py",
           "reach[p] = k\n",
           "reach[p] = k - q\n",
           ("tests/test_differential.py", "-k", "band_runs_match")),
    # the report's trim at the forgiven violation's start, not one past it
    Mutant("report-trim-at-start", "properness.py",
           "        trim = start + 1\n",
           "        trim = start\n",
           ("tests/test_same_answers.py",)),
    # decode's leading margin one letter short
    Mutant("decode-margin-one-short", "structure.py",
           "if dropped > max(map(len, codes)) - 1:",
           "if dropped > max(map(len, codes)) - 2:",
           ("tests/test_same_answers.py",)),
    # the xyxyx search skipped after a proper report that is clean only
    # after forgiving its front, where the next level can hold an xyxyx
    Mutant("skip-after-forgiven-front", "structure.py",
           "search = search and not (proper.clean and proper.trim == 0)",
           "search = search and not proper.clean",
           ("tests/test_same_answers.py",)),
    # the xyxyx search skipped after an antiproper report that names a
    # violation and forgives none
    Mutant("skip-after-violation", "structure.py",
           "search = search and not (anti.clean and anti.trim == 0)",
           "search = search and anti.trim > 0",
           ("tests/test_same_answers.py",)),
    # the xyxyx search skipped from level 0 on, before any report
    Mutant("skip-from-level-zero", "structure.py",
           "    search = True ",
           "    search = False ",
           ("tests/test_structure.py",)),
    # the short-period ladder's last shift skipped one step early
    Mutant("ladder-last-shift-early", "repetitions.py",
           "if z and span < k:",
           "if z and span < k - 1:",
           ("tests/test_differential.py", "-k", "packed_run_test")),
    # the class words' length tables stop one letter short of min_length
    Mutant("tables-stop-one-short", "structure.py",
           "while tables[-1][seed] < min_length:",
           "while tables[-1][seed] < min_length - 1:",
           ("tests/test_differential.py", "-k",
            "generate_matches_brute_force")),
    # a record's written __init__ without the class-level defaults
    Mutant("record-init-no-defaults", "words.py",
           'params = (f"{f}=_d[{f!r}]" if f in vars(cls) else f\n'
           "                  for f in cls._fields)",
           "params = (f for f in cls._fields)",
           ("tests/test_record_contract.py", "tests/test_record_init.py")),
    # a record's written __init__ storing its fields in reverse order
    Mutant("record-init-reversed-store", "words.py",
           'stores = (f"{f}={f}" for f in cls._fields)',
           'stores = (f"{f}={f}" for f in reversed(cls._fields))',
           ("tests/test_record_init.py",)),
    # a record that lets a field be deleted
    Mutant("record-delattr-removed", "words.py",
           "    def __delattr__(self, name):\n"
           '        raise AttributeError(f"{self.__class__.__qualname__} '
           'is immutable")\n',
           "",
           ("tests/test_records.py",)),
    # the dominance bisection's key rounded down: where a letter's count
    # over the period is odd, an x one such letter short counts as dominant
    Mutant("xyxyx-bisect-key-rounded-down", "properness.py",
           "(row[s] + row[s + p] + 1) // 2",
           "(row[s] + row[s + p]) // 2",
           ("tests/test_properness.py",)),
    # the largest x one past the stretch's end
    Mutant("xyxyx-top-past-stretch", "properness.py",
           "b - s - p",
           "b - s - p + 1",
           ("tests/test_properness.py",)),
    # the end bound read once from the whole slice, not from the trim at
    # each start: the search draws every candidate of the forgiven front
    Mutant("xyxyx-end-not-lazy", "properness.py",
           "end() - s - 2 * p)",
           "len(data) - s - 2 * p)",
           ("tests/test_structure.py", "-k", "lazily")),
    # a mirrored violation mapped one letter to the right
    Mutant("scan-mirrored-map-one-right", "properness.py",
           "n - pos - length",
           "n - pos - length + 1",
           ("tests/test_structure.py", "tests/test_properness.py")),
    # a violation starting at the trim skipped as if forgiven
    Mutant("scan-forgives-at-trim", "properness.py",
           "if start < trim:",
           "if start <= trim:",
           ("tests/test_differential.py", "-k", "report_matches_rerun_loop")),
    # backing up one lane short: the runs of the child 1 are read against
    # the letters of a prefix one longer than its parent
    Mutant("search-backup-shift-one-short", "search.py",
           "width * (n - k)",
           "width * (n - k - 1)",
           ("tests/test_search_lanes.py", "tests/test_search.py")),
    # backing up keeps the pruned children 1 beside the abandoned path
    Mutant("search-beside-not-restored", "search.py",
           "k, s1, inc, beside = stack.pop()",
           "k, s1, inc, _ = stack.pop()",
           ("tests/test_search_lanes.py", "tests/test_search.py")),
    # the pruned children 1 beside the final path counted as tried
    Mutant("search-target-keeps-beside", "search.py",
           "                pruned -= beside",
           "                pass",
           ("tests/test_search_lanes.py", "tests/test_search.py")),
    # lanes one bit narrower than the largest bound needs
    Mutant("search-lane-width-one-short", "search.py",
           "return (target + target // 2).bit_length() + 1",
           "return (target + target // 2).bit_length()",
           ("tests/test_search_lanes.py", "tests/test_search.py")),
    # every failure link sent to the root
    Mutant("search-fail-link-to-root", "search.py",
           "fail[t] = back",
           "fail[t] = 0",
           ("tests/test_search_lanes.py", "tests/test_search.py")),
    # the command-line reader taking a value outside an option's choices
    Mutant("reader-no-choices-check", "cli.py",
           "            if value not in kind:\n"
           "                return None\n",
           "            pass\n",
           ("tests/test_cli_reader.py", "-k", "matches_argparse")),
    # the command-line reader taking a command line without a required
    # option, which then reads as ...
    Mutant("reader-no-required-check", "cli.py",
           "    if ... in values.values():",
           "    if False:",
           ("tests/test_cli_reader.py", "-k", "matches_argparse")),
    # the command-line reader taking a value that starts with "-", such as
    # another option string
    Mutant("reader-dash-value-accepted", "cli.py",
           'if value.startswith("-"):',
           "if False:",
           ("tests/test_cli_reader.py", "-k", "matches_argparse")),
    # the command-line reader leaving a flag that is not given None, not
    # its default False
    Mutant("reader-flag-default-not-filled", "cli.py",
           "given.get(flag, default)",
           "given.get(flag, default or None)",
           ("tests/test_cli_reader.py", "-k", "matches_argparse")),
    # a word's JSON as its repr, which json.dumps takes, not its digits
    Mutant("word-json-as-repr", "words.py",
           "    to_json = __str__\n",
           "    to_json = __repr__\n",
           ("tests/test_records.py",)),
    # no band: every period goes through the packed test and its mask, so
    # the scan's work grows with the square of the word
    Mutant("band-stride-off", "repetitions.py",
           "_BAND_STRIDE = 48",
           "_BAND_STRIDE = 10**9",
           ("tests/test_growth.py",)),
    # decode taking any tail, not only a proper prefix of an image
    Mutant("decode-any-tail", "structure.py",
           "if 0xFF in letters or tail and tail not in prefixes:",
           "if 0xFF in letters:",
           ("tests/test_structure.py",)),
    # whole images among the prefixes: decompose trims every level that
    # decoded to its end
    Mutant("grammar-prefixes-take-whole-images", "structure.py",
           "for i in range(1, len(img)))",
           "for i in range(1, len(img) + 1))",
           ("tests/test_same_answers.py",)),
    # every other cut of a sample skipped, once samples are t > 1 apart
    Mutant("windows-skip-odd-cuts", "words.py",
           "for i in range(step)}",
           "for i in range(0, step, 2)}",
           ("tests/test_words.py",)),
    # an image's length counted one letter short per inner letter, so an
    # image over --limit is built
    Mutant("image-limit-undercounted", "cli.py",
           "w.letters.count(a) * len(img)",
           "w.letters.count(a) * (len(img) - 1)",
           ("tests/test_cli.py", "-k", "limit")),
    # a file line one letter over --limit read as a word
    Mutant("file-line-one-over-limit", "cli.py",
           "min(limit + 1, sys.maxsize)",
           "min(limit + 2, sys.maxsize)",
           ("tests/test_cli.py", "-k", "limit")),
)


def run(mutant) -> str:
    """Apply ``mutant`` to a copy of the checkout and run its tests."""
    source = (SRC / mutant.module).read_text()
    if source.count(mutant.old) != 1:
        return "stale"
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        Path(tmp, "src", "rotewords", mutant.module).write_text(
            source.replace(mutant.old, mutant.new))
        # processes the tests start import the mutated copy too
        env = dict(os.environ, PYTHONPATH=str(Path(tmp, "src")))
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q",
                 "-p", "no:cacheprovider", *mutant.tests],
                cwd=tmp, env=env, capture_output=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "killed (timed out)"
    # pytest exits 1 when a test failed; 2-5 mean its run went wrong
    return {0: "survived", 1: "killed"}.get(
        done.returncode, f"error (pytest exit {done.returncode})")


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in chosen}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2
    verdicts = []
    for mutant in chosen:
        start = time.perf_counter()
        verdicts.append(run(mutant))
        print(f"{mutant.name}: {verdicts[-1]} "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
    return 0 if all(v.startswith("killed") for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
