"""Traced run: spans at the module boundaries of rotewords, and growth fits.

Each hook replaces a name where the importing module bound it (for
example ``structure.is_proper``, which ``decompose`` looks up at call time)
with a wrapper that records a span.  Spans are kept in memory as
``[name, start, end, parent, job, amount]`` - ``amount`` is a per-call count
such as letters or bytes - and written out when the run ends.  A hooked
name that the library no longer has is reported as absent.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

import known


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.absent: list[str] = []
        self._restore: list = []

    def wrap(self, name: str, fn, amount=None):
        """``fn`` recording a span per call; ``amount(args, result)`` counts."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if amount is not None:
                span[5] = amount(args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def hook(self, owner, attr: str, name: str, amount=None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(f"{owner.__name__}.{attr}")
            return
        self._restore.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(name, fn, amount))

    def hook_table(self, owner, attr: str, names: dict, amount=None) -> None:
        """Wrap the functions held in a dispatch dict ``owner.attr``."""
        table = getattr(owner, attr, None)
        for key, name in names.items():
            entry = table.get(key) if isinstance(table, dict) else None
            fn = entry[0] if isinstance(entry, tuple) else entry
            if not callable(fn):
                self.absent.append(f"{owner.__name__}.{attr}[{key!r}]")
                continue
            wrapped = self.wrap(name, fn, amount)
            table[key] = ((wrapped, *entry[1:]) if isinstance(entry, tuple)
                          else wrapped)
            self._restore.append((table, key, entry))

    def install(self, lib) -> None:
        cli, rep, prop = lib.cli, lib.repetitions, lib.properness
        search, struct, Morphism = lib.search, lib.structure, lib.morphisms.Morphism
        out_len = lambda args, result: len(result)
        arg_len = lambda args, result: len(args[0])
        decoders = {"g": "structure.g_decode", "f": "structure.f_decode",
                    "h": "structure.h_decode"}

        self.hook(cli, "main", "cli.main")
        self.hook(cli, "parse_source", "cli.parse_source", out_len)
        for owner in (cli, search, lib.morphisms):
            self.hook(owner, "parse_word", "words.parse_word", arg_len)
        self.hook(cli, "factor_complexity", "words.factor_complexity", arg_len)
        self.hook(Morphism, "apply", "morphisms.apply", out_len)
        self.hook(Morphism, "iterate_prefix", "morphisms.iterate_prefix", out_len)
        self.hook(cli, "is_power_free", "repetitions.is_power_free")
        self.hook(rep, "max_factor_exponent", "repetitions.max_factor_exponent")
        self.hook(rep, "_mismatch_mask", "repetitions.mask",
                  lambda args, result: len(args[0]) - args[1])
        self.hook(search, "_suffix_52plus", "repetitions.suffix",
                  lambda args, result: int(result))
        for owner in (cli, search):
            self.hook(owner, "longest_avoiding", "search.longest_avoiding",
                      lambda args, result: result.nodes_explored)
        self.hook(prop, "_mismatch_mask", "properness.mask",
                  lambda args, result: len(args[0]) - args[1])
        self.hook(prop, "find_dominated_xyxyx", "properness.xyxyx")
        self.hook(struct, "is_proper", "properness.is_proper")
        self.hook(struct, "is_antiproper", "properness.is_antiproper")
        self.hook(struct, "_report", "structure.report")
        self.hook(cli, "decompose", "structure.decompose")
        for owner in (cli, struct):
            self.hook(owner, "classify_by_length4", "structure.classify")
        self.hook(cli, "generate_case_word", "structure.generate")
        for owner in (cli, struct):
            self.hook_table(owner, "_DECODERS", decoders, arg_len)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("name\tstart\tend\tparent\tjob\tamount\n")
            for name, start, end, parent, job, amount in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\t{amount}\n")


def span_stats(spans) -> dict:
    """Per span name: calls, busy_s, self_s and amount.

    busy_s and amount count only the outermost span of a name (parse_source
    recurses); self_s is a span's time minus the time of its child spans.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                 "amount": 0})
    for i, (name, start, end, parent, _, amount) in enumerate(spans):
        s = stats[name]
        s["calls"] += 1
        s["self_s"] += end - start - child[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            s["busy_s"] += end - start
            s["amount"] += amount
    return stats


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in BENCHMARK.json, from one traced pass."""
    st = span_stats(spans)
    m: dict[str, tuple[float, str]] = {}

    def put(span: str, metric: str, *fields: str) -> None:
        units = {"calls": "count", "busy_s": "s", "self_s": "s"}
        for field in fields:
            m[f"{metric}.{field}"] = (st[span][field], units[field])

    put("search.longest_avoiding", "search.longest_avoiding",
        "calls", "busy_s", "self_s")
    nodes = st["search.longest_avoiding"]["amount"]
    suffix = st["repetitions.suffix"]
    m["search.nodes"] = (nodes, "count")
    m["search.prunes_power"] = (suffix["amount"], "count")
    m["search.prunes_factor"] = (nodes - suffix["calls"], "count")
    m["repetitions.suffix_checks"] = (suffix["calls"], "count")
    m["repetitions.suffix_hits"] = (suffix["amount"], "count")
    m["repetitions.suffix_s"] = (suffix["busy_s"], "s")

    for fn in ("is_power_free", "max_factor_exponent"):
        put(f"repetitions.{fn}", f"repetitions.{fn}", "calls", "busy_s")
    for layer in ("repetitions", "properness"):
        mask = st[f"{layer}.mask"]
        m[f"{layer}.mask_scans"] = (mask["calls"], "count")
        m[f"{layer}.mask_bytes"] = (mask["amount"], "bytes")
        m[f"{layer}.mask_s"] = (mask["busy_s"], "s")

    for fn in ("is_proper", "is_antiproper"):
        put(f"properness.{fn}", f"properness.{fn}", "calls", "busy_s")
    put("properness.xyxyx", "properness.xyxyx", "calls", "busy_s", "self_s")

    checkers = [st["properness.is_proper"], st["properness.is_antiproper"]]
    calls = sum(c["calls"] for c in checkers)
    reports = st["structure.report"]["calls"]
    m["structure.checker_calls"] = (calls, "count")
    m["structure.reports"] = (reports, "count")
    m["structure.checker_reruns"] = (calls - reports, "count")
    m["structure.checker_s"] = (sum(c["busy_s"] for c in checkers), "s")

    for fn in ("g_decode", "f_decode", "h_decode", "classify", "generate"):
        put(f"structure.{fn}", f"structure.{fn}", "busy_s")
    m["structure.decode.letters"] = (
        sum(st[f"structure.{d}_decode"]["amount"] for d in "gfh"), "count")
    for fn in ("apply", "iterate_prefix"):
        put(f"morphisms.{fn}", f"morphisms.{fn}", "calls", "busy_s")
        m[f"morphisms.{fn}.letters_out"] = (st[f"morphisms.{fn}"]["amount"], "count")
    put("words.parse_word", "words.parse_word", "busy_s")
    m["words.parse_word.letters"] = (st["words.parse_word"]["amount"], "count")
    put("cli.parse_source", "cli.parse_source", "calls", "busy_s")
    m["cli.parse_source.letters"] = (st["cli.parse_source"]["amount"], "count")
    put("cli.main", "cli.main", "self_s")
    put("words.factor_complexity", "words.factor_complexity", "calls", "busy_s")
    m["words.factor_complexity.letters"] = (
        st["words.factor_complexity"]["amount"], "count")
    put("structure.decompose", "structure.decompose", "calls", "busy_s", "self_s")
    return m


# ------------------------------------------------------------ growth fits

SWEEP_N = (5000, 10000, 20000, 40000)


def _sweep_layers(lib):
    """Layer name -> function of n timing one call on an n-letter input."""
    n_max = SWEEP_N[-1]
    gf = known.apply(known.G_IMAGES, known.fixed_point(known.F_IMAGES, 0, n_max))[:n_max]
    fw = known.fixed_point(known.F_IMAGES, 0, n_max)
    Word = lib.words.Word

    def layer(module, attr, call):
        fn = getattr(module, attr, None)
        return None if fn is None else (lambda n: call(fn, n))

    return {
        "is_power_free": layer(lib.repetitions, "is_power_free",
                               lambda fn, n: fn(Word(gf[:n], 2), Fraction(5, 2), True)),
        "max_factor_exponent": layer(lib.repetitions, "max_factor_exponent",
                                     lambda fn, n: fn(Word(gf[:n], 2))),
        "is_proper": layer(lib.properness, "is_proper",
                           lambda fn, n: fn(Word(fw[:n], 3), max_length=None)),
        "g_decode": layer(lib.structure, "g_decode",
                          lambda fn, n: fn(Word(gf[:n], 2))),
        "factor_complexity": layer(lib.words, "factor_complexity",
                                   lambda fn, n: [fn(Word(gf[:n], 2), k)
                                                  for k in range(1, 101)]),
    }


def growth(lib, names) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Least-squares exponent of time against n, per layer in ``names``.

    Calls the library directly with tracing off; a call under 0.2 s is
    timed three times and the fastest kept.
    """
    layers = _sweep_layers(lib)
    exponents, times = {}, {}
    for name in names:
        call = layers[name]
        if call is None:
            continue
        ts = []
        for n in SWEEP_N:
            best = math.inf
            for _ in range(3):
                t0 = perf_counter()
                call(n)
                best = min(best, perf_counter() - t0)
                if best >= 0.2:
                    break
            ts.append(best)
        xs = [math.log(n) for n in SWEEP_N]
        ys = [math.log(t) for t in ts]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        exponents[name] = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                           / sum((x - mx) ** 2 for x in xs))
        times[name] = ts
    return exponents, times
