"""Backtracking search for binary words avoiding 5/2+ powers and factors.

The search walks binary words in lexicographic order (extend with 0 before
1), pruning a node as soon as its suffix is a 5/2+ power or ends with a
forbidden factor.  Because the predicate is prefix-closed, checking only
suffixes at each extension is equivalent to checking the whole word, and
the first word reaching any given length is the lexicographically least
word of that length satisfying the predicate.

Each node decides both of its children when it is pushed, and every step
of the loop pushes one node: child 0 if it is live, else child 1 if it is,
else the deepest child 1 still waiting on the path.  A pruned child is
counted, not visited, so ``nodes_explored`` counts every child tried, 0
before 1, as a node-by-node walk would.  Backing up pops the waiting
states and then cuts the word, the runs and ``at1`` back in one stride.
Forbidden factors are matched by an Aho-Corasick automaton over the
factors (``_automaton``): the path keeps the state of each waiting child
1, and a child whose letter ends a factor gets -1.
The 5/2+ test is a few whole-int operations.  For each prefix on the
current path, one int holds in lane p (``width`` bits at bit
``width * (p - 1)``) r_p + 1, where the trailing agreement run r_p is the
number of final positions i with w[i] == w[i - p].  A suffix of period p
has exponent above 5/2 exactly when r_p >= p + p // 2 + 1, so adding
``top`` minus that bound and masking the lanes' top bits marks at once
every lane in which a letter equal to w[n - p] would make one; splitting
the marks by the letter at w[n - p] prunes child 1, child 0 or both.
Lanes exist only for the periods up to the deepest length reached, so a
node costs time in the search's depth, not the target, and the runs kept
for backtracking take about width * n**2 / 2 bits at depth n.
``_lane_width`` makes every bound fit, so no lane ever overflows.

``REFERENCE_ROWS`` freezes the expected maxima for the searches the
verification command recomputes; ``run_reference_table`` reruns them all
and reports agreement row by row.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence
from itertools import combinations

from .words import AlphabetError, Record, Word, parse_word


class SearchOutcome(Record):
    max_length: int
    witness: Word            # lexicographically least word of max_length
    reached_target: bool
    nodes_explored: int


def _as_factor_bytes(forbidden: Iterable[Word | str]) -> tuple[bytes, ...]:
    if isinstance(forbidden, (str, Word)):
        # iterating it would forbid each of its letters on its own
        raise TypeError(f"forbidden must be a collection of factors, not the "
                        f"bare {type(forbidden).__name__} {str(forbidden)!r}")
    out = []
    for item in forbidden:
        w = parse_word(item, 2) if isinstance(item, str) else item
        if w.alphabet_size != 2:
            raise AlphabetError(f"forbidden factor {w} is not binary")
        if len(w) == 0:
            raise ValueError("forbidden factors must be nonempty")
        out.append(w.letters)
    return tuple(out)


def _automaton(factors: tuple[bytes, ...]) -> list[int]:
    """Aho-Corasick over binary factors as a flat table: ``delta[2*s + c]``
    is the state after reading c in state s, or -1 if a factor ends there.
    State 0 is the empty word; there are at most sum(len(f)) + 1 states."""
    delta, ends = [0, 0], [False]       # trie edges first, 0 where absent
    for f in factors:
        s = 0
        for c in f:
            if not delta[2 * s + c]:
                delta[2 * s + c] = len(ends)
                delta += (0, 0)
                ends.append(False)
            s = delta[2 * s + c]
        ends[s] = True
    fail = [0] * len(ends)
    queue = [0]
    for s in queue:                     # breadth first: fail[s] is shallower
        for c in (0, 1):
            t, back = delta[2 * s + c], delta[2 * fail[s] + c] if s else 0
            if t:
                fail[t] = back
                ends[t] = ends[t] or ends[back]
                queue.append(t)
            else:
                delta[2 * s + c] = back
    return [-1 if ends[t] else t for t in delta]


def _lane_width(target: int) -> int:
    """Bits per lane: the least b with p + p // 2 + 1 <= 2 ** (b - 1) for
    every period p <= target, so no lane ever carries into the next."""
    return (target + target // 2).bit_length() + 1


def longest_avoiding(forbidden: Iterable[Word | str], target: int = 200) -> SearchOutcome:
    """Depth-first lexicographic search under the avoidance predicate.

    If some word of length ``target`` satisfies the predicate, the search
    stops there and returns it (the least such word); otherwise it exhausts
    the tree and reports the longest satisfying word found, again the
    lexicographically least among those of maximal length.  ``forbidden``
    is a collection of factors; a bare ``str`` or ``Word`` raises
    ``TypeError``, as does a ``target`` that is not an integer.
    """
    try:
        target = operator.index(target)
    except TypeError:
        raise TypeError(f"target must be an integer, not "
                        f"{type(target).__name__}") from None
    if target < 0:
        raise ValueError("target must be non-negative")
    delta = _automaton(_as_factor_bytes(forbidden))
    width = _lane_width(target)
    top = 1 << (width - 1)
    lane = 2 * top - 1
    # 1, top - (p + p // 2 + 1) and top in each lane p <= deepest, the
    # longest length reached
    one = bias = high = deepest = 0
    # lane p of at1 is all ones iff w[n - p] == 1, for the prefix w[:n]
    at1 = 0
    w = bytearray()
    best = b""
    # s0, s1: the automaton state after w + 0 and w + 1, or -1 if that
    # child is pruned.  For each prefix w[:k] on the path, incs[k] holds
    # r_p + 1 in each lane p <= k, and for k < len(w) pending[k] is the
    # state after w[:k] + 1 while that child waits: -1 if it is pruned, and
    # -2 once it has been entered, so that backing up skips it uncounted
    s0, s1 = delta[0], delta[1]
    pending: list[int] = []
    inc, incs = 0, [0]
    nodes = 1                   # the empty word
    while deepest < target:
        if s0 >= 0:
            c, s = 0, s0
            pending.append(s1)
        else:
            nodes += 1          # child 0, pruned
            s = s1
            if s < 0:
                nodes += 1      # child 1 too: back up to a child 1 waiting
                while pending:
                    s = pending.pop()
                    if s >= 0:
                        break
                    nodes += s == -1    # a pruned child 1 counts as tried
                else:
                    break
                n = len(pending)
                at1 >>= width * (len(w) - n)
                del w[n:], incs[n + 1:]
                inc = incs[n]
            c = 1
            pending.append(-2)
        nodes += 1
        runs = inc & at1 if c else inc ^ (inc & at1)
        at1 = at1 << width | lane * c
        w.append(c)
        n = len(w)
        if n > deepest:
            best, deepest, shift = bytes(w), n, width * (n - 1)
            if n == target:
                break
            one |= 1 << shift
            bias |= (top - n - n // 2 - 1) << shift
            high |= top << shift
        inc = runs + (one >> width * (deepest - n))
        incs.append(inc)
        over = (inc + bias) & high
        over1 = over & at1      # the lanes that prune child 1
        s0 = -1 if over != over1 else delta[2 * s]
        s1 = -1 if over1 else delta[2 * s + 1]
    return SearchOutcome(len(best), Word(best, 2), deepest == target, nodes)


def _reference_rows() -> tuple[tuple[tuple[str, ...], int], ...]:
    rows: list[tuple[tuple[str, ...], int]] = [(("0110",), 14)]
    c = ("0010", "0100", "1011", "1101")
    rows.extend(zip(combinations(c, 2), (44, 28, 13, 13, 28, 44)))
    partners = ("0010", "0100", "0101", "1010", "1011", "1101", "1100")
    for a, m in zip(partners, (15, 31, 12, 18, 15, 31, 30)):
        rows.append((("0011", a), m))
    blockers = ("00100110", "01001100", "10011001", "00110010", "01100100",
                "11001001", "10010011", "00110011", "01100110", "11001101",
                "10011011", "00110110", "01101100", "11011001", "10110010",
                "10110011", "11001100")
    maxima = (24, 50, 33, 50, 24, 24, 24, 52, 33, 50, 24, 24, 24, 24, 88, 50, 52)
    for d, m in zip(blockers, maxima):
        rows.append((("0101", "1010", d), m))
    rows.append((("1011", "1010"), 20))
    return tuple(rows)


REFERENCE_ROWS: tuple[tuple[tuple[str, ...], int], ...] = _reference_rows()


class TableRow(Record):
    forbidden: tuple[str, ...]
    expected: int
    computed: int
    witness: Word
    nodes: int
    match: bool


def run_reference_table(rows: Sequence[tuple[Sequence[str], int]] | None = None,
                        target: int = 200) -> list[TableRow]:
    """Recompute every reference search and compare against expectations."""
    if rows is None:
        rows = REFERENCE_ROWS
    out = []
    for forbidden, expected in rows:
        outcome = longest_avoiding(forbidden, target)
        out.append(TableRow(tuple(forbidden), expected, outcome.max_length,
                            outcome.witness, outcome.nodes_explored,
                            outcome.max_length == expected
                            and not outcome.reached_target))
    return out
