"""Backtracking search for binary words avoiding 5/2+ powers and factors.

The search walks binary words in lexicographic order (extend with 0 before
1), pruning a node as soon as its suffix is a 5/2+ power or ends with a
forbidden factor.  Because the predicate is prefix-closed, checking only
suffixes at each extension is equivalent to checking the whole word, and
the first word reaching any given length is the lexicographically least
word of that length satisfying the predicate.

``REFERENCE_ROWS`` freezes the expected maxima for the searches the
verification command recomputes; ``run_reference_table`` reruns them all
and reports agreement row by row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .repetitions import _suffix_52plus
from .words import AlphabetError, Record, Word, parse_word


@dataclass(frozen=True)
class SearchOutcome(Record):
    max_length: int
    witness: Word            # lexicographically least word of max_length
    reached_target: bool
    nodes_explored: int


def _as_factor_bytes(forbidden: Iterable[Word | str]) -> tuple[bytes, ...]:
    out = []
    for item in forbidden:
        w = parse_word(item, 2) if isinstance(item, str) else item
        if w.alphabet_size != 2:
            raise AlphabetError(f"forbidden factor {w} is not binary")
        if len(w) == 0:
            raise ValueError("forbidden factors must be nonempty")
        out.append(w.letters)
    return tuple(out)


def longest_avoiding(forbidden: Iterable[Word | str], target: int = 200) -> SearchOutcome:
    """Depth-first lexicographic search under the avoidance predicate.

    If some word of length ``target`` satisfies the predicate, the search
    stops there and returns it (the least such word); otherwise it exhausts
    the tree and reports the longest satisfying word found, again the
    lexicographically least among those of maximal length.
    """
    if target < 0:
        raise ValueError("target must be non-negative")
    factors = _as_factor_bytes(forbidden)

    w = bytearray()
    best_len = 0
    best = b""
    nodes = 0

    def good() -> bool:
        n = len(w)
        for f in factors:
            k = len(f)
            if n >= k and w[-k:] == f:
                return False
        return not _suffix_52plus(w)

    reached = False
    while len(w) <= target:
        nodes += 1
        if good():
            if len(w) > best_len:
                best_len = len(w)
                best = bytes(w)
            if len(w) == target:
                reached = True
                break
            w.append(0)
        else:
            while w and w[-1] == 1:
                w.pop()
            if not w:
                break
            w[-1] = 1
    return SearchOutcome(best_len, Word(best, 2), reached, nodes)


def _reference_rows() -> tuple[tuple[tuple[str, ...], int], ...]:
    rows: list[tuple[tuple[str, ...], int]] = [(("0110",), 14)]
    c = ("0010", "0100", "1011", "1101")
    pair_maxima = iter((44, 28, 13, 13, 28, 44))
    for i in range(4):
        for j in range(i + 1, 4):
            rows.append(((c[i], c[j]), next(pair_maxima)))
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


@dataclass(frozen=True)
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
        computed = outcome.max_length if not outcome.reached_target else target
        out.append(TableRow(tuple(forbidden), expected, computed,
                            outcome.witness, outcome.nodes_explored,
                            computed == expected and not outcome.reached_target))
    return out
