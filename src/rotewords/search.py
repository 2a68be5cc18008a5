"""Backtracking search for binary words avoiding 5/2+ powers and factors.

The search walks binary words in lexicographic order (extend with 0 before
1), pruning a node as soon as its suffix is a 5/2+ power or ends with a
forbidden factor.  Because the predicate is prefix-closed, checking only
suffixes at each extension is equivalent to checking the whole word, and
the first word reaching any given length is the lexicographically least
word of that length satisfying the predicate.

Each node decides both of its children when it is pushed, and every step
of the loop pushes one node: child 0 if it is live, else child 1 if it is,
else the deepest child 1 still waiting beside the path.  A pruned child is
counted when it is decided, not visited, but a pruned child 1 is tried
only once the walk backs up past it, so those still beside the path at
the target are taken off again: ``nodes_explored`` counts every child
tried, 0 before 1, as a node-by-node walk would.  One stack holds each
waiting child 1, so backing up is one pop and one shift of ``at1``.
Forbidden factors are matched by an Aho-Corasick automaton over the
factors (``_automaton``), in which a letter that ends a factor gets -1.
The 5/2+ test is a few whole-int operations.  For each prefix on the
current path, one int holds in lane p (``width`` bits at bit
``width * (p - 1)``) r_p + 1, where the trailing agreement run r_p is the
number of final positions i with w[i] == w[i - p].  A suffix of period p
has exponent above 5/2 exactly when r_p >= p + p // 2 + 1, so adding
``top`` minus that bound and masking the lanes' top bits marks at once
every lane in which a letter equal to w[n - p] would make one; splitting
the marks by the letter at w[n - p] prunes child 1, child 0 or both.
Lanes exist only for the periods up to the deepest length reached, so a
node costs time in the search's depth, not the target, and the path keeps
such an int, width * k bits, only for each waiting child 1 of a parent of
length k.  ``_lane_width`` makes every bound fit, so no lane overflows.

``REFERENCE_ROWS`` freezes the expected maxima for the searches the
verification command recomputes; ``run_reference_table`` reruns them all
and reports agreement row by row.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence
from itertools import combinations, count

from .words import _FROM_DIGITS, AlphabetError, Record, Word, parse_word


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


def _automaton(factors: tuple[bytes, ...]) -> tuple[list[int], list[int]]:
    """Aho-Corasick over binary factors as one table per letter: ``delta_c[s]``
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
    delta = [-1 if ends[t] else t for t in delta]
    return delta[0::2], delta[1::2]


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
    delta0, delta1 = _automaton(_as_factor_bytes(forbidden))
    if target == 0:
        return SearchOutcome(0, Word(b"", 2), True, 1)
    width = _lane_width(target)
    top = 1 << (width - 1)
    lane = 2 * top - 1
    # 1, top - (p + p // 2 + 1) and top in each lane p <= deepest, the
    # longest length reached
    one = bias = high = deepest = 0
    # for the prefix w[:n] on the path, inc holds r_p + 1 in each lane
    # p <= n and lane p of at1 is all ones iff w[n - p] == 1; best is at1
    # at the first prefix of length deepest
    n = inc = at1 = best = 0
    # s0, s1: the automaton state after w + 0 and w + 1, or -1 if that
    # child is pruned.  For each waiting child 1 the stack holds its
    # parent's n, its state, its parent's inc and beside at its parent:
    # the pruned children 1 beside the path, counted but not yet tried
    s0, s1 = delta0[0], delta1[0]
    stack: list[tuple[int, int, int, int]] = []
    pruned = beside = 0
    for steps in count():               # each step pushes one node
        if s0 >= 0:
            if s1 >= 0:
                stack.append((n, s1, inc, beside))
            else:
                pruned, beside = pruned + 1, beside + 1
            s = s0
            runs = inc & ~at1
            at1 <<= width
        else:
            pruned += 1
            if s1 < 0:                  # back up to the deepest child 1 waiting
                pruned += 1
                if not stack:
                    break
                k, s1, inc, beside = stack.pop()
                n, at1 = k, at1 >> width * (n - k)
            s = s1
            runs = inc & at1
            at1 = at1 << width | lane
        n += 1
        if n > deepest:
            best, deepest, shift = at1, n, width * (n - 1)
            if n == target:             # this step pushed a node, and the
                steps += 1              # children 1 still beside the path
                pruned -= beside        # were never tried
                break
            one |= 1 << shift
            bias |= (top - n - n // 2 - 1) << shift
            high |= top << shift
        inc = runs + (one >> width * (deepest - n))
        over = (inc + bias) & high
        over1 = over & at1      # the lanes that prune child 1
        s0 = -1 if over != over1 else delta0[s]
        s1 = -1 if over1 else delta1[s]
    # after a leading 1, the top bit of each lane p is w[deepest - p]
    bits = format(best | 1 << width * deepest, "b")[1::width]
    return SearchOutcome(deepest, Word(bits.encode().translate(_FROM_DIGITS), 2),
                         deepest == target, 1 + steps + pruned)


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
