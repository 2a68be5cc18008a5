"""Length-4 factor classification, block decoding, and decomposition.

Binary words in this package's scope carry one of four length-4 factor
sets: the base set

    F = {0110, 1001, 0011, 1100, 0010, 0100, 1101, 1010}

or its image under complement, reversal, or both.  A word of class F (or
its complement) peels as g applied to an iterated f-image of a ternary
word; the reversed classes peel through h instead.

``decode`` inverts one application of a morphism on a finite factor of
an image, reading its grammar off the morphism's images:

- the start letter begins every image (0 for g, f and tau; 1 for h);
- the marker occurs exactly once in every image, always at the same
  end: first for g, f and tau (where it is the start letter), last for h;
- the margin is the longest image length minus one (2 for g, 3 for f, h).

Letters before the first start letter are dropped, at most the margin of
them.  The rest splits at each marker into blocks (one marker per image,
at a fixed end, makes this the only parse), each an image, except that
the last may be a proper prefix of one, cut off by the end of the word.
Re-encoding the preimage and re-attaching both margins reproduces
the input exactly.  Morphisms without a start letter or marker (mu,
theta, sigma, sigma_inv) are not decoded.

``decompose`` chains decodes through g and then f or h to the requested
depth and attaches a properness report to every ternary level.  Structure
on a finite prefix is only evidence about a final segment of the
underlying infinite word, so reports tolerate violations near the front,
and each level drops its last decoded letter when that letter's image is
a proper prefix of another image ({1, 2} under g, {2} under f, none under
h): its final block could be the cut-off start of a longer image, so it
is not trustworthy evidence.  A report is one forgiving scan of the
level word (``properness.forgiving_scan``): violations that start before
the front-trim bound are forgiven, the recorded trim is one past the
start of the last of them, and the first violation at or after the bound
is reported.  The scan walks the forbidden-factor occurrences once and
runs the xyxyx search once, however many violations it forgives.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import accumulate

from .morphisms import Morphism, named
from .properness import Violation, forgiving_scan
from .words import (AlphabetError, LengthLimitError, Record, Word, _json,
                    complement, factors_of_length, parikh)


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
class DecodeResult(Record):
    """Preimage plus the letters discarded at either end of the input.

    ``input[:dropped_prefix] + encode(preimage) + input[n-truncated_suffix:]``
    reproduces the decoded input exactly.
    """

    preimage: Word
    dropped_prefix: int
    truncated_suffix: int


def _grammar(m: Morphism) -> tuple[bytes, bytes, bool, dict[bytes, int]]:
    """(start letter, marker, whether the marker comes first, image bodies).

    An image body is the image without its marker; the bodies name the
    letters they encode.
    """
    images = [img.letters for img in m.images]
    start = images[0][:1]
    if start and all(img.startswith(start) for img in images):
        for first, marker in ((True, start), (False, images[0][-1:])):
            if all((img.startswith if first else img.endswith)(marker)
                   and img.count(marker) == 1 for img in images):
                return start, marker, first, {
                    img[1:] if first else img[:-1]: a
                    for a, img in enumerate(images)}
    raise ValueError(f"{m!r} cannot be decoded: its images need a common "
                     f"first letter and a letter that occurs once in each, "
                     f"always at the same end")


def decode(m: Morphism, w: Word) -> DecodeResult:
    """Invert one application of the marker morphism m on a finite word w.

    See the module docstring for how the parse follows from m's images.
    Raises ValueError when m has no start letter or no marker, and
    DecodeError when w is not a margin-trimmed image of m.
    """
    start, mark, first, bodies = _grammar(m)
    if w.alphabet_size != m.target_alphabet:
        raise AlphabetError(f"decoding {m!r} expects a word over "
                            f"{m.target_alphabet} letters")
    data = w.letters
    dropped = len(data.partition(start)[0])
    if dropped > max(map(len, m.images)) - 1:
        raise DecodeError(f"leading segment of {dropped} letters is too long "
                          f"to be the tail of an image", 0)
    pieces = data[dropped:].split(mark)
    if first:
        del pieces[0]                   # empty: the rest begins with the marker
        tail = b"" if not pieces or pieces[-1] in bodies else mark + pieces.pop()
    else:
        tail = pieces.pop()             # the letters after the last marker
    letters = list(map(bodies.get, pieces))
    k = letters.index(None) if None in letters else len(pieces)
    if k < len(pieces) or tail and not any(img.letters.startswith(tail)
                                           for img in m.images):
        at = dropped + sum(map(len, pieces[:k])) + k
        raise DecodeError(f"block at position {at} is not an image, nor a "
                          f"proper prefix of one ending the word", at)
    return DecodeResult(Word(bytes(letters), m.source_alphabet), dropped,
                        len(tail))


g_decode = partial(decode, named("g"))
f_decode = partial(decode, named("f"))
h_decode = partial(decode, named("h"))


def _tail_trim(m: Morphism, result: DecodeResult) -> int:
    """1 when the last decoded letter's image is a proper prefix of another
    image, so the final block may be the cut-off start of a longer one."""
    if result.truncated_suffix > 0 or len(result.preimage) == 0:
        return 0
    last = m.images[result.preimage.letters[-1]].letters
    return int(any(img.letters != last and img.letters.startswith(last)
                   for img in m.images))


@dataclass(frozen=True)
class PropernessReport(Record):
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
class LevelRecord(Record):
    """One decoding level: the morphism inverted, its result, and reports.

    ``tail_trim`` counts letters dropped from the end of the preimage
    before the properness checks and the next decode (see _tail_trim).
    ``antiproper`` is populated on h-chain levels only.
    """

    morphism: str
    decode: DecodeResult
    tail_trim: int
    proper: PropernessReport
    antiproper: PropernessReport | None


@dataclass(frozen=True)
class DecompositionCertificate:
    factor_class: FactorClass
    levels: tuple[LevelRecord, ...]
    depth_achieved: int

    def to_json(self) -> dict:
        # not a Record: its key "class" is a Python keyword, so no field
        # can carry that name
        return {"class": self.factor_class.to_json(),
                "levels": _json(self.levels),
                "depth_achieved": self.depth_achieved}


class DecompositionError(ValueError):
    """Decoding failed at some level; carries the certificate built so far."""

    def __init__(self, message: str,
                 partial: DecompositionCertificate | None = None):
        super().__init__(message)
        self.partial = partial


def decompose(w: Word, depth: int, *, min_level_length: int = 10,
              front_trim_bound: int = 64) -> DecompositionCertificate:
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
        m = named(name)
        try:
            result = decode(m, source)
        except DecodeError as exc:
            so_far = DecompositionCertificate(cls, tuple(levels), achieved)
            raise DecompositionError(
                f"{name}-decode failed at level {len(levels)}: {exc}",
                so_far) from exc
        trim = _tail_trim(m, result)
        trimmed = (result.preimage[:len(result.preimage) - trim]
                   if trim else result.preimage)
        proper = _report(trimmed, False, front_trim_bound, None)
        anti = (_report(trimmed, True, front_trim_bound, None)
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


def generate_case_word(case: CaseTag | str, depth: int, min_length: int,
                       limit: int | None = None) -> Word:
    """Construct a word of the designated class from a fixed-point prefix.

    Class F is g applied to depth-fold f-images of a prefix of f's fixed
    point from 0; the reversed classes use h from its fixed point on 1,
    the only letter h is prolongable on.  Bar classes are complements.
    The result is truncated to exactly ``min_length`` letters.

    Before any image is built, LengthLimitError is raised when
    ``min_length`` exceeds ``limit`` or when a word of the first build
    (the depth-fold image of the 4-letter seed prefix, then g of it)
    would; their lengths follow from the seed prefix's letter counts.
    The word is then built once, from the shortest fixed-point prefix whose
    letters' images g(inner^depth(a)) reach ``min_length`` letters, so no
    image built passes ``min_length`` by a whole letter image.
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
    if limit is not None:
        if min_length > limit:
            raise LengthLimitError(
                f"generate length {min_length} exceeds the limit {limit}")
        counts = parikh(inner.iterate_prefix(seed, 4))
        for k in range(depth + 1):
            m = inner if k < depth else g
            counts = [sum(c * img.letters.count(b)
                          for c, img in zip(counts, m.images))
                      for b in range(m.target_alphabet)]
            if sum(counts) > limit:
                raise LengthLimitError(
                    f"generate depth {depth} builds a word of {sum(counts)} "
                    f"letters, which exceeds the limit {limit}")
    lengths = [len(img) for img in g.images]    # |g inner^k (a)|, k = 0..depth
    for _ in range(depth):
        lengths = [sum(lengths[b] for b in img.letters) for img in inner.images]
    prefix = inner.iterate_prefix(seed, -(-min_length // min(lengths)))
    ends = list(accumulate(lengths[b] for b in prefix.letters))
    base = prefix[:bisect_left(ends, min_length) + 1]   # shortest that reaches
    for _ in range(depth):
        base = inner.apply(base)
    out = g.apply(base)[:min_length]
    if tag in (CaseTag.FBAR, CaseTag.FBARREV):
        out = complement(out)
    return out
