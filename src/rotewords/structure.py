"""Length-4 factor classification, block decoding, and decomposition.

Binary words in this package's scope carry one of four length-4 factor
sets: the base set

    F = {0110, 1001, 0011, 1100, 0010, 0100, 1101, 1010}

or its image under complement, reversal, or both.  A word of class F (or
its complement) peels as g applied to an iterated f-image of a ternary
word; the reversed classes peel through h instead.  The decoders below
invert one morphism application on a finite prefix: they drop a bounded
number of leading letters to reach a block boundary, parse maximal blocks
greedily, and truncate an incomplete final block, so that re-encoding the
preimage and re-attaching both margins reproduces the input exactly.

Block grammars (each image carries its initial letter exactly once for
g/f, and its final 0 exactly once for h, which is what makes the greedy
left-to-right parse unambiguous):

    g:  011 -> 0,   0 -> 1,    01 -> 2     (blocks split at each 0)
    f:  0121 -> 0,  021 -> 1,  01 -> 2     (blocks split at each 0)
    h:  1210 -> 0,  120 -> 1,  10 -> 2     (blocks end at each 0)

``decompose`` chains the decoders to the requested depth and attaches a
properness report to every ternary level.  Structure on a finite prefix
is only evidence about a final segment of the underlying infinite word,
so reports tolerate violations near the front and each level drops its
last decoded letter when the final block could be the cut-off start of a
longer image - such a letter is not trustworthy evidence.  A report is
one forgiving scan of the level word (``properness.forgiving_scan``):
violations that start before the front-trim bound are forgiven, the
recorded trim is one past the start of the last of them, and the first
violation at or after the bound is reported.  The scan walks the
forbidden-factor occurrences once and runs the xyxyx search once, however
many violations it forgives.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .morphisms import named
from .properness import Violation, forgiving_scan
from .words import AlphabetError, Word, complement, factors_of_length


class CaseTag(Enum):
    F = "F"
    FBAR = "Fbar"
    FREV = "Frev"
    FBARREV = "FbarRev"


_BASE_FACTORS = ("0110", "1001", "0011", "1100", "0010", "0100", "1101", "1010")


def _factor_bytes(text: str) -> bytes:
    return bytes(int(c) for c in text)


def _build_factor_sets() -> dict[CaseTag, frozenset[bytes]]:
    base = frozenset(_factor_bytes(t) for t in _BASE_FACTORS)
    flip = bytes.maketrans(b"\x00\x01", b"\x01\x00")
    return {
        CaseTag.F: base,
        CaseTag.FBAR: frozenset(b.translate(flip) for b in base),
        CaseTag.FREV: frozenset(b[::-1] for b in base),
        CaseTag.FBARREV: frozenset(b[::-1].translate(flip) for b in base),
    }


FACTOR_SETS: dict[CaseTag, frozenset[bytes]] = _build_factor_sets()


@dataclass(frozen=True)
class FactorClass:
    """Outcome of the length-4 classification.

    Exactly one of the three shapes applies: a definite ``tag``; an
    ``Ambiguous`` result listing every case whose factor set contains the
    observed one; or an ``Inconsistent`` result carrying the observed
    factors that do not fit the best-matching case.
    """

    tag: CaseTag | None = None
    compatible: tuple[CaseTag, ...] = ()
    offenders: tuple[Word, ...] = ()

    @property
    def is_definite(self) -> bool:
        return self.tag is not None

    @property
    def is_ambiguous(self) -> bool:
        return self.tag is None and bool(self.compatible)

    @property
    def is_inconsistent(self) -> bool:
        return self.tag is None and not self.compatible

    def to_json(self):
        if self.is_definite:
            return self.tag.value
        if self.is_ambiguous:
            return {"ambiguous": [t.value for t in self.compatible]}
        return {"inconsistent": [str(w) for w in self.offenders]}


class ClassificationError(ValueError):
    """Raised when decomposition needs a definite class but has none."""

    def __init__(self, message: str, factor_class: FactorClass):
        super().__init__(message)
        self.factor_class = factor_class


def classify_by_length4(w: Word) -> FactorClass:
    """Match the length-4 factor set of w against the four case sets."""
    if w.alphabet_size != 2:
        raise AlphabetError("classification applies to binary words")
    if len(w) < 4:
        raise ValueError("classification needs at least 4 letters")
    observed = frozenset(f.letters for f in factors_of_length(w, 4))
    order = (CaseTag.F, CaseTag.FBAR, CaseTag.FREV, CaseTag.FBARREV)
    for tag in order:
        if observed == FACTOR_SETS[tag]:
            return FactorClass(tag=tag)
    supersets = tuple(t for t in order if observed <= FACTOR_SETS[t])
    if supersets:
        return FactorClass(compatible=supersets)
    best = max(order, key=lambda t: (len(observed & FACTOR_SETS[t]), -order.index(t)))
    offenders = tuple(Word(b, 2) for b in sorted(observed - FACTOR_SETS[best]))
    return FactorClass(offenders=offenders)


class DecodeError(ValueError):
    """A word is not a margin-trimmed image of the requested morphism."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class DecodeResult:
    """Preimage plus the letters discarded at either end of the input.

    ``input[:dropped_prefix] + encode(preimage) + input[n-truncated_suffix:]``
    reproduces the decoded input exactly.
    """

    preimage: Word
    dropped_prefix: int
    truncated_suffix: int

    def to_json(self) -> dict:
        return {"preimage": str(self.preimage),
                "dropped_prefix": self.dropped_prefix,
                "truncated_suffix": self.truncated_suffix}


_MAX_MARGIN = 3  # longest image length minus one, over f, g, h


def g_decode(w: Word) -> DecodeResult:
    """Invert g on a binary word: blocks 011 -> 0, 0 -> 1, 01 -> 2.

    Leading 1s (at most two) are dropped; a run of three or more 1s is not
    part of any g-image and raises.  Every 0-initiated block of at most
    two 1s is itself a complete image, so nothing is ever truncated.
    """
    if w.alphabet_size != 2:
        raise AlphabetError("g_decode expects a binary word")
    data = w.letters
    n = len(data)
    i = 0
    while i < n and data[i] == 1:
        i += 1
    dropped = i
    if dropped >= 3:
        raise DecodeError("run of three or more 1s at position 0", 0)
    out = bytearray()
    by_ones = {0: 1, 1: 2, 2: 0}
    while i < n:
        j = i + 1
        while j < n and data[j] == 1:
            j += 1
        ones = j - i - 1
        if ones >= 3:
            raise DecodeError(f"run of three or more 1s at position {i + 1}", i + 1)
        out.append(by_ones[ones])
        i = j
    return DecodeResult(Word(bytes(out), 3), dropped, 0)


def _block_decode(u: Word, images: dict[bytes, int], boundary_letter: int,
                  morphism_name: str) -> DecodeResult:
    """Shared f/h block parser; blocks are delimited by ``boundary_letter``."""
    data = u.letters
    n = len(data)
    i = data.find(boundary_letter)
    dropped = i if i != -1 else n
    if dropped > _MAX_MARGIN:
        raise DecodeError(
            f"leading segment of {dropped} letters is too long to be the "
            f"tail of an {morphism_name}-image", 0)
    if i == -1:
        return DecodeResult(Word(b"", 3), dropped, 0)
    out = bytearray()
    while i < n:
        j = data.find(boundary_letter, i + 1)
        if j == -1:
            block = data[i:]
            letter = images.get(block)
            if letter is not None:
                out.append(letter)
                return DecodeResult(Word(bytes(out), 3), dropped, 0)
            if any(img.startswith(block) for img in images):
                return DecodeResult(Word(bytes(out), 3), dropped, len(block))
            raise DecodeError(
                f"final block {''.join(map(str, block))} at position {i} is "
                f"not an {morphism_name}-image or a prefix of one", i)
        block = data[i:j]
        letter = images.get(block)
        if letter is None:
            raise DecodeError(
                f"block {''.join(map(str, block))} at position {i} is not "
                f"an {morphism_name}-image", i)
        out.append(letter)
        i = j
    return DecodeResult(Word(bytes(out), 3), dropped, 0)


_F_BLOCKS = {bytes([0, 1, 2, 1]): 0, bytes([0, 2, 1]): 1, bytes([0, 1]): 2}


def f_decode(u: Word) -> DecodeResult:
    """Invert f on a ternary word: 0-blocks 0121 -> 0, 021 -> 1, 01 -> 2."""
    if u.alphabet_size != 3:
        raise AlphabetError("f_decode expects a ternary word")
    return _block_decode(u, _F_BLOCKS, 0, "f")


def h_decode(u: Word) -> DecodeResult:
    """Invert h on a ternary word: blocks 1210 -> 0, 120 -> 1, 10 -> 2.

    Each h-image contains exactly one 0, at its end, so blocks run from a
    starting 1 through the next 0.
    """
    if u.alphabet_size != 3:
        raise AlphabetError("h_decode expects a ternary word")
    data = u.letters
    n = len(data)
    i = data.find(1)
    dropped = i if i != -1 else n
    if dropped > _MAX_MARGIN:
        raise DecodeError(
            f"leading segment of {dropped} letters is too long to be the "
            f"tail of an h-image", 0)
    if i == -1:
        return DecodeResult(Word(b"", 3), dropped, 0)
    images = {bytes([1, 2, 1, 0]): 0, bytes([1, 2, 0]): 1, bytes([1, 0]): 2}
    out = bytearray()
    while i < n:
        if data[i] != 1:
            raise DecodeError(f"block at position {i} does not start with 1", i)
        j = data.find(0, i)
        if j == -1:
            block = data[i:]
            if any(img.startswith(block) for img in images):
                return DecodeResult(Word(bytes(out), 3), dropped, len(block))
            raise DecodeError(
                f"final block {''.join(map(str, block))} at position {i} is "
                f"not an h-image or a prefix of one", i)
        block = data[i:j + 1]
        letter = images.get(block)
        if letter is None:
            raise DecodeError(
                f"block {''.join(map(str, block))} at position {i} is not an "
                f"h-image", i)
        out.append(letter)
        i = j + 1
    return DecodeResult(Word(bytes(out), 3), dropped, 0)


_DECODERS = {"g": g_decode, "f": f_decode, "h": h_decode}

# Final decoded letters that may be the cut-off start of a longer image:
# for g, blocks "0" (letter 1) and "01" (letter 2) extend to "011"; for f,
# block "01" (letter 2) extends to "0121".  h-images are mutually
# prefix-free, so h never misreads its final block.
_AMBIGUOUS_FINAL = {"g": (1, 2), "f": (2,), "h": ()}


def _tail_trim(morphism_name: str, result: DecodeResult) -> int:
    if result.truncated_suffix > 0 or len(result.preimage) == 0:
        return 0
    last = result.preimage.letters[-1]
    return 1 if last in _AMBIGUOUS_FINAL[morphism_name] else 0


@dataclass(frozen=True)
class PropernessReport:
    """One-sided properness evidence on a finite level word.

    Structure is only promised for a final segment, so violations that
    start before the front-trim bound are forgiven.  ``trim`` is one past
    the start of the last one forgiven (0 when none was), and the level
    word from there on, ``checked_length`` letters, is what the report
    covers.  ``violation`` is the first violation of that segment, which
    starts at or after the bound, or None when the segment is clean;
    positions are in the level word's own coordinates.  The result equals
    re-running the checker on the segment after each forgiveness, but
    comes from one scan.
    """

    checked_length: int
    trim: int
    violation: Violation | None

    @property
    def clean(self) -> bool:
        return self.violation is None

    def to_json(self) -> dict:
        return {"checked_length": self.checked_length, "trim": self.trim,
                "violation": None if self.violation is None
                else self.violation.to_json()}


def _report(level_word: Word, mirrored: bool, trim_bound: int,
            guard: int | None) -> PropernessReport:
    """Properness (antiproperness when ``mirrored``) report of a level word.

    One forgiving scan: violations that start before ``trim_bound`` are
    forgiven and set ``trim`` to one past their start, and the first one
    at or after the bound is reported (see properness.forgiving_scan).
    """
    trim, violation = forgiving_scan(level_word, trim_bound,
                                     mirrored=mirrored, max_length=guard)
    return PropernessReport(len(level_word) - trim, trim, violation)


@dataclass(frozen=True)
class LevelRecord:
    """One decoding level: the morphism inverted, its result, and reports.

    ``tail_trim`` counts letters dropped from the end of the preimage
    before the properness checks and the next decode (see _AMBIGUOUS_FINAL).
    ``antiproper`` is populated on h-chain levels only.
    """

    morphism: str
    decode: DecodeResult
    tail_trim: int
    proper: PropernessReport
    antiproper: PropernessReport | None

    def to_json(self) -> dict:
        return {"morphism": self.morphism, "decode": self.decode.to_json(),
                "tail_trim": self.tail_trim, "proper": self.proper.to_json(),
                "antiproper": None if self.antiproper is None
                else self.antiproper.to_json()}


@dataclass(frozen=True)
class DecompositionCertificate:
    factor_class: FactorClass
    levels: tuple[LevelRecord, ...]
    depth_achieved: int

    def to_json(self) -> dict:
        return {"class": self.factor_class.to_json(),
                "levels": [lv.to_json() for lv in self.levels],
                "depth_achieved": self.depth_achieved}


class DecompositionError(ValueError):
    """Decoding failed at some level; carries the certificate built so far."""

    def __init__(self, message: str,
                 partial: DecompositionCertificate | None = None):
        super().__init__(message)
        self.partial = partial


def decompose(w: Word, depth: int, *, min_level_length: int = 10,
              front_trim_bound: int = 64,
              length_guard: int | None = None) -> DecompositionCertificate:
    """Peel w through g and then ``depth`` rounds of f or h.

    The class decides the pipeline: Fbar/FbarRev inputs are complemented
    first, and the reversed classes decode through h instead of f.  Every
    ternary level gets a properness report (h-chain levels additionally an
    antiproperness report).  Levels stop early, with depth_achieved below
    the request, once a preimage falls under ``min_level_length`` letters.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    cls = classify_by_length4(w)
    if not cls.is_definite:
        kind = "ambiguous" if cls.is_ambiguous else "inconsistent"
        raise ClassificationError(
            f"cannot decompose: length-4 factor classification is {kind}", cls)
    work = complement(w) if cls.tag in (CaseTag.FBAR, CaseTag.FBARREV) else w
    chain = "h" if cls.tag in (CaseTag.FREV, CaseTag.FBARREV) else "f"

    levels: list[LevelRecord] = []
    achieved = 0

    def add_level(name: str, source: Word) -> Word:
        try:
            result = _DECODERS[name](source)
        except DecodeError as exc:
            partial = DecompositionCertificate(cls, tuple(levels), achieved)
            raise DecompositionError(
                f"{name}-decode failed at level {len(levels)}: {exc}",
                partial) from exc
        trim = _tail_trim(name, result)
        trimmed = (result.preimage[:len(result.preimage) - trim]
                   if trim else result.preimage)
        proper = _report(trimmed, False, front_trim_bound, length_guard)
        anti = (_report(trimmed, True, front_trim_bound, length_guard)
                if chain == "h" else None)
        levels.append(LevelRecord(name, result, trim, proper, anti))
        return trimmed

    current = add_level("g", work)
    for _ in range(depth):
        if len(current) < min_level_length:
            break
        current = add_level(chain, current)
        achieved += 1
    return DecompositionCertificate(cls, tuple(levels), achieved)


def generate_case_word(case: CaseTag | str, depth: int, min_length: int) -> Word:
    """Construct a word of the designated class from a fixed-point prefix.

    Class F is g applied to depth-fold f-images of a prefix of f's fixed
    point from 0; the reversed classes use h from its fixed point on 1,
    the only letter h is prolongable on.  Bar classes are complements.
    The result is truncated to exactly ``min_length`` letters.
    """
    tag = CaseTag(case) if not isinstance(case, CaseTag) else case
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if min_length < 0:
        raise ValueError("length must be non-negative")
    g = named("g")
    if tag in (CaseTag.F, CaseTag.FBAR):
        inner, seed = named("f"), 0
    else:
        inner, seed = named("h"), 1
    seed_length = 4
    while True:
        base = inner.iterate_prefix(seed, seed_length)
        for _ in range(depth):
            base = inner.apply(base)
        out = g.apply(base)
        if len(out) >= min_length:
            break
        seed_length *= 2
    out = out[:min_length]
    if tag in (CaseTag.FBAR, CaseTag.FBARREV):
        out = complement(out)
    return out
