"""Alphabet-checked finite words and their elementary observables.

A word is an immutable sequence of small integer letters over a fixed
alphabet {0, ..., k-1}.  Letters are stored as ``bytes`` so that slicing,
equality, substring search, window hashing and the alphabet check all run
at C speed: a Word deletes its alphabet's letters with ``bytes.translate``
and finds the first bad one with ``bytes.lstrip`` only when some is left,
as ``parse_word`` does once ASCII digits read as letters and all else 0xFF.
Every function in this module is pure and safe to call concurrently.

Text I/O renders letters as ASCII digits with no separators ("0121"),
one word per line, so an alphabet has at most 10 letters.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import accumulate
from math import isqrt


class ParseError(ValueError):
    """Word text could not be parsed; ``position`` is the offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


class AlphabetError(ValueError):
    """An operation received a word over the wrong alphabet."""


class LengthLimitError(RuntimeError):
    """An input word exceeded a configured length guard."""


MAX_ALPHABET = 10        # one ASCII digit per letter
_TO_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
_FROM_DIGITS = bytes(b - 48 if 48 <= b < 58 else 0xFF for b in range(256))


class Record:
    """An immutable value whose fields its class annotates, in order.

    Each subclass's ``__init__`` stores exactly those fields, in that
    order, with one ``self.__dict__.update``: a signature of its own binds
    arguments faster than one generic ``__init__`` could.  A record equals
    another of the same class with equal fields and hashes by its fields;
    its repr is ``Cls(field=value, ...)``; setting or deleting an
    attribute raises AttributeError; and ``to_json()`` is its fields in
    order, with words as digit strings, tuples as lists and records as
    their own JSON.

    Field names are read once per class, and no method is written into a
    subclass's namespace: a subclass keeps the methods that a class
    decorator gives it, and still inherits ``to_json``.
    """

    _fields = ()        # the field names, in order

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__qualname__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__qualname__} is immutable")

    def to_json(self) -> dict:
        return {f: _json(getattr(self, f)) for f in self._fields}


class Word(Record):
    """A finite word; ``letters[i]`` is the integer letter at position i."""

    letters: bytes
    alphabet_size: int

    def __init__(self, letters: bytes, alphabet_size: int):
        if not isinstance(letters, bytes):
            letters = bytes(letters)
        if not 1 <= alphabet_size <= MAX_ALPHABET:
            raise AlphabetError(f"alphabet size must be in 1..{MAX_ALPHABET}, "
                                f"got {alphabet_size}")
        ok = bytes(range(alphabet_size))
        if letters.translate(None, ok):
            bad = len(letters) - len(letters.lstrip(ok))
            raise AlphabetError(
                f"letter {letters[bad]} at position {bad} is outside "
                f"the {alphabet_size}-letter alphabet")
        self.__dict__.update(letters=letters, alphabet_size=alphabet_size)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Word(self.letters[index], self.alphabet_size)
        return self.letters[index]

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if self.alphabet_size != other.alphabet_size:
            raise AlphabetError("cannot concatenate words over different alphabets")
        return Word(self.letters + other.letters, self.alphabet_size)

    def __str__(self) -> str:
        return self.letters.translate(_TO_DIGITS).decode("ascii")

    def __repr__(self) -> str:
        return f"Word({str(self)!r}, k={self.alphabet_size})"


def _json(value):
    """Word -> digit string, tuple -> list, result -> its to_json()."""
    if isinstance(value, Word):
        return str(value)
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    return value.to_json() if hasattr(value, "to_json") else value


def word(letters: Iterable[int] | str, alphabet_size: int) -> Word:
    """Build a Word from an iterable of letters or a digit string."""
    if isinstance(letters, str):
        return parse_word(letters, alphabet_size)
    return Word(bytes(letters), alphabet_size)


def digit_alphabet(text: str) -> int:
    """One more than the largest ASCII digit in ``text``, or 1 when it has
    none; other characters are left for ``parse_word`` to name."""
    return next((int(c) for c in "987654321" if c in text), 0) + 1


def parse_word(text: str, alphabet_size: int) -> Word:
    """Parse a digit string into a Word over the given alphabet."""
    # one byte per character, non-ASCII ones as "?": non-digits read 0xFF
    data = text.encode("ascii", "replace").translate(_FROM_DIGITS)
    ok = bytes(range(min(alphabet_size, MAX_ALPHABET)))
    if data.translate(None, ok):
        i = len(data) - len(data.lstrip(ok))    # the first bad character
        if data[i] == 0xFF:
            raise ParseError(
                f"non-digit character {text[i]!r} at position {i}", i)
        raise ParseError(f"letter {data[i]} at position {i} is outside the "
                         f"{alphabet_size}-letter alphabet", i)
    return Word(data, alphabet_size)    # which checks the alphabet size


_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def complement(w: Word) -> Word:
    """Flip 0 and 1 letterwise; defined for binary words only."""
    if w.alphabet_size != 2:
        raise AlphabetError("complement is defined for binary words only")
    return Word(w.letters.translate(_FLIP), 2)


def reverse(w: Word) -> Word:
    return Word(w.letters[::-1], w.alphabet_size)


def parikh(w: Word) -> tuple[int, ...]:
    """Occurrence count of each letter, as a length-k tuple."""
    return tuple(w.letters.count(i) for i in range(w.alphabet_size))


def dominates(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Strict Parikh dominance: componentwise >= with at least one >."""
    if len(a) != len(b):
        raise AlphabetError(
            f"Parikh vectors have different lengths: {len(a)} vs {len(b)}")
    return all(x >= y for x, y in zip(a, b)) and any(x > y for x, y in zip(a, b))


def factors_of_length(w: Word, n: int) -> set[Word]:
    """All distinct length-n factors of w; empty set when n exceeds |w|."""
    if n < 0:
        raise ValueError("factor length must be non-negative")
    if n > len(w):
        return set()
    return {Word(window, w.alphabet_size)
            for window in _windows(w.letters, n) if b"\xff" not in window}


def factor_complexity(w: Word, n: int) -> int:
    """Number of distinct length-n factors of w (1 for n = 0, 0 past |w|)."""
    return complexity_profile(w, n)[n] if n <= len(w) else 0


def complexity_profile(w: Word, max_n: int) -> list[int]:
    """``[p(0), ..., p(max_n)]``, where p(n) counts the distinct length-n
    factors of w, from one sort of the distinct windows of w.

    Each position starts a window of length L = min(max_n, |w|), padded
    past the end of w with 0xFF, which no letter is (see MAX_ALPHABET).  In
    sorted order a window shares its first ``lcp`` bytes with the one before
    it, so it adds one new factor for each length from lcp+1 to its unpadded
    length (never below lcp: windows that agree into the padding are equal).
    The windows are cut from samples t letters apart (see ``_windows``), so
    on a word of complexity near 2n this takes about 2 sqrt(2 |w| L)
    slices, not |w|.  Memory is (distinct samples) x (L + t - 1) bytes,
    then (distinct windows) x L.
    """
    if max_n < 0:
        raise ValueError("factor length must be non-negative")
    data, size = w.letters, min(max_n, len(w))
    windows = _windows(data, size)
    windows.discard(b"\xff" * size)    # position |w|: all padding
    new_from = [0] * (size + 2)     # difference array over lengths
    previous = (1 << 8 * size) - 1  # all padding: shares no letter
    for window in sorted(windows):
        value = int.from_bytes(window, "big")
        new_from[size - ((value ^ previous).bit_length() + 7) // 8 + 1] += 1
        new_from[len(window.rstrip(b"\xff")) + 1] -= 1
        previous = value
    return [1, *accumulate(new_from[1:size + 1])] + [0] * (max_n - size)


def _stride(length: int, size: int) -> int:
    """The spacing t of ``_windows``' samples: on a word of complexity near
    2n, length / t sample slices plus 2 size t cuts is least at this t."""
    return max(1, isqrt(length // (2 * size))) if size else 1


def _windows(data: bytes, size: int) -> set[bytes]:
    """The distinct ``size``-byte windows at positions 0..|data| of data
    padded with 0xFF; the last is all padding.  Position i lies in the
    (size + t - 1)-byte sample at t * (i // t), so cutting each distinct
    sample at offsets 0..t-1 finds every window, and past |data| only the
    all-padding one."""
    step = _stride(len(data), size)
    span = size + step - 1
    padded = data + b"\xff" * span
    samples = {padded[j:j + span] for j in range(0, len(data) + 1, step)}
    return {sample[i:i + size] for sample in samples for i in range(step)}
