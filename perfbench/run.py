"""rotewords benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; rotewords is imported from its
``src`` directory.  One process, no threads: a closed loop with one client
cycles through the workload's jobs (see workloads.py) for ``--seconds``,
checks every verdict against the benchmark's own known answers, and prints
one JSON object as the last line of stdout.

--trace 0 reports the end-to-end metrics: verdicts_per_s (jobs over the sum
of their fastest repeats), verdict_p50_ms (the median job's fastest repeat),
verdict_tail_ms (the slowest job's fastest repeat), peak_rss_mb and setup_s
(the median of seven imports plus input builds, spread over the run).
--trace 1 runs three passes untraced and three traced, reports the
per-layer metrics of the last traced pass and trace.overhead_s (fastest
traced minus fastest untraced pass), fits growth exponents for the
workload's layers, and writes the spans under perfbench/out/.
The line before the result holds provenance and details.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracing     # noqa: E402
import workloads   # noqa: E402

MODULES = ("cli", "words", "morphisms", "repetitions", "properness",
           "search", "structure")
SETUP_REPEATS = 7
TRACE_PASSES = 3
# Layers whose growth exponent the traced run of each workload fits.
SWEEPS = {"power-scan": ("is_power_free", "max_factor_exponent"),
          "decompose": ("is_proper",),
          "census": ("g_decode", "factor_complexity")}
TAIL_BEYOND = 10


def import_library() -> SimpleNamespace:
    """Import rotewords afresh from the checkout's src directory."""
    for name in [m for m in sys.modules
                 if m == "rotewords" or m.startswith("rotewords.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = SimpleNamespace(**{m: importlib.import_module(f"rotewords.{m}")
                             for m in MODULES})
    origin = Path(lib.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"rotewords was imported from {origin}, not {SRC}")
    return lib


def input_dir(args) -> Path:
    return OUT / f"inputs-{args.workload}-s{args.seed}"


def setup(args):
    """Import rotewords and build the workload's jobs; returns (lib, jobs)."""
    lib = import_library()
    build, _ = workloads.WORKLOADS[args.workload]
    inputs = workloads.Inputs(input_dir(args))
    return lib, build(lib, random.Random(args.seed), inputs)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, kind: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{kind}: {reason}")


def verdict(job, out, expect) -> str | None:
    try:
        job.verify(out, expect)
    except Exception as exc:     # any malformed or wrong output is a failure
        return f"{type(exc).__name__}: {exc}"
    return None


def run_job(job, tally: Tally, outputs: list | None = None) -> tuple[float, float]:
    """Run one job and judge its verdict; returns its call and return times."""
    t0 = perf_counter()
    try:
        out = job.run()
    except Exception as exc:  # a job that raises is a failed job
        t1 = perf_counter()
        reason = f"raised {type(exc).__name__}: {exc}"
    else:
        t1 = perf_counter()
        reason = verdict(job, out, job.expect)
        if outputs is not None:
            outputs.append((job, out))
    tally.add(job.kind, reason)
    return t0, t1


def run_pass(jobs, tally: Tally, outputs: list | None = None,
             tracer=None) -> float:
    """One pass over ``jobs``; returns its wall time."""
    start = perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        run_job(job, tally, outputs)
    return perf_counter() - start


def self_check(outputs) -> Tally:
    """Re-judge first-pass outputs against corrupted expectations.

    Every one of them must be counted as failed.
    """
    tally = Tally()
    for job, out in outputs:
        tally.add(job.kind, verdict(job, out, job.corrupt(job.expect)))
    return tally


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it, and its value."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def provenance(args) -> dict:
    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "git_revision": git_revision(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "seed": args.seed,
            "workload": args.workload,
            "why": workloads.WORKLOADS[args.workload][1],
            "seconds": args.seconds,
            "trace": args.trace}


def measure(args) -> tuple[dict, Tally, dict]:
    setups = []

    def timed_setup():
        t0 = perf_counter()
        built = setup(args)
        setups.append(perf_counter() - t0)
        return built

    # A closed loop with one client cycles through the jobs, all of them at
    # least once, and stops before a repeat that would not end within
    # --seconds at its fastest time so far.  Every metric uses each job's
    # fastest repeat: on a shared host the slower repeats measure other
    # tenants.  So the tail is the slowest job's fastest repeat; a percentile
    # with ten samples beyond it would need far more jobs, and over every
    # repeat it measures how often the host was slow.  The details keep that
    # one as loop_tail.
    # The set-up is repeated at even intervals of the run, outside the job
    # times, so that its median is not taken in one slow stretch.
    _, jobs = timed_setup()
    tally, outputs = Tally(), []
    times: list[list[float]] = [[] for _ in jobs]
    done = 0
    start = perf_counter()
    while True:
        if (len(setups) < SETUP_REPEATS and perf_counter() - start
                >= len(setups) * args.seconds / SETUP_REPEATS):
            timed_setup()
        k = done % len(jobs)
        if (done >= len(jobs)
                and perf_counter() - start + min(times[k]) > args.seconds):
            break
        t0, t1 = run_job(jobs[k], tally, outputs if done < len(jobs) else None)
        times[k].append(t1 - t0)
        done += 1
    elapsed = perf_counter() - start
    while len(setups) < SETUP_REPEATS:
        timed_setup()

    best = [min(ts) for ts in times]
    every = [t for ts in times for t in ts]
    percentile, loop_tail_s = tail(every)
    by_kind = {}
    for job, t in zip(jobs, best):
        by_kind.setdefault(job.kind, []).append(t)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "verdicts_per_s": (len(best) / sum(best), "1/s"),
        "verdict_p50_ms": (statistics.median(best) * 1000, "ms"),
        "verdict_tail_ms": (max(best) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    repeats = [len(ts) for ts in times]
    detail = {"jobs": len(jobs), "verdicts": done, "wall_s": elapsed,
              "repeats": [min(repeats), max(repeats)],
              "loop_verdicts_per_s": done / elapsed,
              "loop_p50_ms": statistics.median(every) * 1000,
              "verdict_tail": {"percentile": 100.0, "samples": len(best)},
              "loop_tail": {"ms": loop_tail_s * 1000, "percentile": percentile,
                            "samples": len(every)},
              "failed_share": tally.failed / tally.attempted,
              "setup_runs_s": setups,
              "best_ms_by_kind": {k: statistics.median(ts) * 1000
                                  for k, ts in sorted(by_kind.items())},
              "self_check": vars(self_check(outputs))}
    return metrics, tally, detail


def trace(args) -> tuple[dict, Tally, dict]:
    lib, jobs = setup(args)
    tally, outputs = Tally(), []
    untraced = [run_pass(jobs, tally, outputs if not i else None)
                for i in range(TRACE_PASSES)]
    traced = []
    for _ in range(TRACE_PASSES):
        tracer = tracing.Tracer()
        tracer.install(lib)
        try:
            traced.append(run_pass(jobs, tally, None, tracer))
        finally:
            tracer.uninstall()

    metrics = tracing.layer_metrics(tracer.spans)
    metrics["trace.overhead_s"] = (min(traced) - min(untraced), "s")
    metrics["trace.absent_hooks"] = (len(tracer.absent), "count")
    exponents, times = tracing.growth(lib, SWEEPS[args.workload])
    for name in sorted({n for names in SWEEPS.values() for n in names}):
        metrics[f"growth.{name}"] = (exponents.get(name, 0.0), "exp")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-s{args.seed}.tsv"
    tracer.write(spans_path)
    detail = {"untraced_s": untraced, "traced_s": traced,
              "spans": len(tracer.spans),
              "spans_file": str(spans_path.relative_to(ROOT)),
              "absent": tracer.absent,
              "growth_n": list(tracing.SWEEP_N), "growth_times_s": times,
              "not_swept": sorted(n for n in metrics if n.startswith("growth.")
                                  and n[7:] not in exponents),
              "failed_share": tally.failed / tally.attempted,
              "self_check": vars(self_check(outputs))}
    return metrics, tally, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        import_library()
    except ImportError as exc:
        print(f"error: cannot import rotewords from {SRC}: {exc}", file=sys.stderr)
        return 2

    try:
        metrics, tally, detail = (trace if args.trace else measure)(args)
    finally:
        shutil.rmtree(input_dir(args), ignore_errors=True)
    checked = detail["self_check"]
    correct = (tally.failed == 0
               and checked["failed"] == checked["attempted"] > 0)
    print(json.dumps({"provenance": provenance(args), "detail": detail,
                      "failures": tally.reasons}))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
