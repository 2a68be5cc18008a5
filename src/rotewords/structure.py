"""Length-4 factor classification, block decoding, and decomposition.

Binary words in this package's scope carry one of four length-4 factor
sets: the base set

    F = {0110, 1001, 0011, 1100, 0010, 0100, 1101, 1010}

or its image under complement, reversal, or both.  A word of class F (or
its complement) peels as g applied to an iterated f-image of a ternary
word (f's fixed point on 0); the reversed classes peel through h (its
fixed point on 1) instead.  ``_BARRED`` and ``_REVERSED`` state this once
for the factor sets, ``decompose`` and ``generate_case_word``, which walk
their ``depth`` levels one at a time, never as a list.
``generate_case_word`` builds a word top down from the seed letter, through
as many levels as the requested length needs, and each level drops the
letters the answer does not reach before applying its morphism, so no image
built passes that length by 4 letters or more.  ``depth`` bounds only the
refusal: the word is the same at every depth.

``decode`` inverts one application of a morphism on a finite factor of
an image, reading its grammar off the morphism's images:

- the start letter begins every image (0 for g, f and tau; 1 for h);
- the marker occurs exactly once in every image, always at the same
  end: first for g, f and tau (where it is the start letter), last for h;
- the margin is the longest image length minus one (2 for g, 3 for f, h);
- the prefixes are the images' non-empty proper prefixes.

Letters before the first start letter are dropped, at most the margin of
them.  The rest is blocks, one per marker, each an image but the last,
which may be one of the prefixes, cut off by the end of the word: that
tail is split off first.  Each image, longest first, is then replaced by
its placeholder byte 0x80 + a, and one translate reads the preimage off
the placeholders.  An image holds its marker once, at a fixed end, so no
match crosses a block, and a block that is no image leaves a letter that
locates it.  Re-encoding the preimage and re-attaching both margins
reproduces the input exactly.  Morphisms without a start letter or
marker (mu, theta, sigma, sigma_inv) are not decoded.

``decompose`` chains decodes through g and then f or h to the requested
depth and attaches a properness report to every ternary level.  Structure
on a finite prefix is only evidence about a final segment of the
underlying infinite word, so reports tolerate violations near the front,
and a level that decoded to its end drops its last letter when that
letter's image is one of the prefixes ({1, 2} under g, {2} under f, none
under h): its final block could be the cut-off start of a longer image,
so it is not trustworthy evidence.  Each report is the one that
``properness.forgiving_scan`` returns for the level word: violations that
start before the front-trim bound are forgiven, the recorded trim is one
past the start of the last of them, and the first violation at or after
the bound is reported.  The scan walks the forbidden-factor occurrences
once and runs the xyxyx search once, however many violations it forgives.
"""

from __future__ import annotations

import operator
from enum import Enum
from functools import cache, partial
from itertools import product

from .morphisms import _LETTERS, _PLACEHOLDERS, Morphism, named
from .properness import PropernessReport, forgiving_scan
from .words import (AlphabetError, LengthLimitError, Record, Word, _FLIP,
                    _json, complement, parikh, parse_word)


class CaseTag(Enum):
    F = "F"
    FBAR = "Fbar"
    FREV = "Frev"
    FBARREV = "FbarRev"


_BASE_FACTORS = ("0110", "1001", "0011", "1100", "0010", "0100", "1101", "1010")


_BARRED = (CaseTag.FBAR, CaseTag.FBARREV)     # complements of F and Frev
_REVERSED = (CaseTag.FREV, CaseTag.FBARREV)   # peel through h, not f

FACTOR_SETS: dict[CaseTag, frozenset[bytes]] = {
    tag: frozenset(parse_word(t[::-1] if tag in _REVERSED else t, 2).letters
                   .translate(_FLIP if tag in _BARRED else None)
                   for t in _BASE_FACTORS)
    for tag in CaseTag}
_BINARY_4 = tuple(bytes(f) for f in product((0, 1), repeat=4))  # by code


class FactorClass(Record):
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
    # byte t is 8x[t-3] + 4x[t-2] + 2x[t-1] + x[t], the code of a window
    windows = (int.from_bytes(w.letters, "big") * 0x1020408).to_bytes(
        len(w) + 3, "big")[3:len(w)]
    observed = {f for code, f in enumerate(_BINARY_4) if code in windows}
    for tag in CaseTag:
        if observed == FACTOR_SETS[tag]:
            return FactorClass(tag=tag)
    supersets = tuple(t for t in CaseTag if observed <= FACTOR_SETS[t])
    if supersets:
        return FactorClass(compatible=supersets)
    # max keeps the first of equal maxima: ties go to the earliest case
    best = max(CaseTag, key=lambda t: len(observed & FACTOR_SETS[t]))
    offenders = tuple(Word(b, 2) for b in sorted(observed - FACTOR_SETS[best]))
    return FactorClass(offenders=offenders)


class DecodeError(ValueError):
    """A word is not a margin-trimmed image of the requested morphism."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


class DecodeResult(Record):
    """Preimage plus the letters discarded at either end of the input.

    ``input[:dropped_prefix] + encode(preimage) + input[n-truncated_suffix:]``
    reproduces the decoded input exactly.
    """

    preimage: Word
    dropped_prefix: int
    truncated_suffix: int


@cache
def _grammar(m: Morphism) -> tuple[bytes, bytes, bool, dict, frozenset]:
    """(start, marker, marker first?, image -> placeholder, longest first,
    the images' non-empty proper prefixes)."""
    images = [img.letters for img in m.images]
    start = images[0][:1]
    if start and all(img.startswith(start) for img in images):
        for first, marker in ((True, start), (False, images[0][-1:])):
            if all((img.startswith if first else img.endswith)(marker)
                   and img.count(marker) == 1 for img in images):
                codes = {img: _PLACEHOLDERS[a:a + 1] for a, img in sorted(
                    enumerate(images), key=lambda e: -len(e[1]))}
                prefixes = frozenset(img[:i] for img in images
                                     for i in range(1, len(img)))
                return start, marker, first, codes, prefixes
    raise ValueError(f"{m!r} cannot be decoded: its images need a common "
                     f"first letter and a letter that occurs once in each, "
                     f"always at the same end")


def decode(m: Morphism, w: Word) -> DecodeResult:
    """Invert one application of the marker morphism m on a finite word w.

    See the module docstring for how the parse follows from m's images.
    Raises ValueError when m has no start letter or no marker, and
    DecodeError when w is not a margin-trimmed image of m.
    """
    start, mark, first, codes, prefixes = _grammar(m)
    if w.alphabet_size != m.target_alphabet:
        raise AlphabetError(f"decoding {m!r} expects a word over "
                            f"{m.target_alphabet} letters")
    data = w.letters
    dropped = len(data.partition(start)[0])
    if dropped > max(map(len, codes)) - 1:
        raise DecodeError(f"leading segment of {dropped} letters is too long "
                          f"to be the tail of an image", 0)
    end = max(data.rfind(mark, dropped) + (not first), dropped)
    if first and data[end:] in codes:
        end = len(data)
    coded = data[dropped:end]
    for img, ph in codes.items():
        coded = coded.replace(img, ph)
    letters, tail = coded.translate(_LETTERS), data[end:]
    if 0xFF in letters or tail and tail not in prefixes:
        bad = (letters + b"\xff").index(0xFF)    # the first letter left
        at = dropped + sum(coded.count(ph, 0, bad) * len(img)
                           for img, ph in codes.items())
        at = data.rfind(mark, 0, at + 1) if first else at
        raise DecodeError(f"block at position {at} is not an image, nor a "
                          f"proper prefix of one ending the word", at)
    return DecodeResult(Word(letters, m.source_alphabet), dropped, len(tail))


g_decode = partial(decode, named("g"))
f_decode = partial(decode, named("f"))
h_decode = partial(decode, named("h"))


class LevelRecord(Record):
    """One decoding level: the morphism inverted, its result, and reports.

    ``tail_trim`` counts letters dropped from the end of the preimage
    before the properness checks and the next decode: 1 when nothing was
    truncated and the last letter's image is a proper prefix of another.
    ``antiproper`` is populated on h-chain levels only.
    """

    morphism: str
    decode: DecodeResult
    tail_trim: int
    proper: PropernessReport
    antiproper: PropernessReport | None


class DecompositionCertificate(Record):
    factor_class: FactorClass
    levels: tuple[LevelRecord, ...]

    @property
    def depth_achieved(self) -> int:
        """Rounds of f or h decoded after g; 0 also when g itself failed."""
        return max(len(self.levels) - 1, 0)

    def to_json(self) -> dict:
        # not its fields: the key "class" is a Python keyword, so no field
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
    chain = "h" if cls.tag in _REVERSED else "f"
    current = complement(w) if cls.tag in _BARRED else w
    levels: list[LevelRecord] = []
    for level in range(depth + 1):
        if level and len(current) < min_level_length:
            break
        name = chain if level else "g"
        m = named(name)
        try:
            result = decode(m, current)
        except DecodeError as exc:
            raise DecompositionError(
                f"{name}-decode failed at level {level}: {exc}",
                DecompositionCertificate(cls, tuple(levels))) from exc
        pre, prefixes = result.preimage, _grammar(m)[-1]
        trim = int(not result.truncated_suffix and len(pre) > 0
                   and m.images[pre[-1]].letters in prefixes)
        current = pre[:len(pre) - trim]
        proper = forgiving_scan(current, front_trim_bound)
        anti = (forgiving_scan(current, front_trim_bound, mirrored=True)
                if chain == "h" else None)
        levels.append(LevelRecord(name, result, trim, proper, anti))
    return DecompositionCertificate(cls, tuple(levels))


def generate_case_word(case: CaseTag | str, depth: int, min_length: int,
                       limit: int | None = None) -> Word:
    """Construct a word of the designated class from its seed letter.

    Class F is g applied to f's fixed point from 0; the reversed classes
    use h from its fixed point on 1, the only letter h is prolongable on.
    Bar classes are complements.  The result is truncated to exactly
    ``min_length`` letters and is the same at every depth.

    Before any image is built, LengthLimitError is raised when
    ``min_length`` exceeds ``limit`` or when a word of the first build
    (the depth-fold image of the 4-letter seed prefix, then g of it)
    would; their lengths follow from the seed prefix's letter counts,
    carried one level at a time, so the refusal comes at the first level
    over ``limit`` and costs the same at any depth beyond it.
    The word is then built from the seed letter, through as many levels
    as ``min_length`` needs, as the module docstring describes.
    """
    tag = CaseTag(case)
    if operator.index(depth) < 0:
        raise ValueError("depth must be non-negative")
    if min_length < 0:
        raise ValueError("length must be non-negative")
    g = named("g")
    inner, seed = (named("h"), 1) if tag in _REVERSED else (named("f"), 0)
    if limit is not None:
        if min_length > limit:
            raise LengthLimitError(
                f"generate length {min_length} exceeds the limit {limit}")
        counts = parikh(inner.iterate_prefix(seed, 4))
        for k in range(depth, -1, -1):
            m = inner if k else g
            counts = [sum(c * img.letters.count(b)
                          for c, img in zip(counts, m.images))
                      for b in range(m.target_alphabet)]
            if sum(counts) > limit:
                raise LengthLimitError(
                    f"generate depth {depth} builds a word of {sum(counts)} "
                    f"letters, which exceeds the limit {limit}")
    tables = [[len(img) for img in g.images]]  # tables[k][a] = |g inner^k (a)|
    while tables[-1][seed] < min_length:
        tables.append([sum(tables[-1][b] for b in img.letters)
                       for img in inner.images])
    w = inner.images[seed][:1]
    total = tables[-1][seed]   # the length w builds to, the same at each level
    for k in range(len(tables) - 1, -1, -1):
        # drop the last letters whose images the answer does not reach
        while w and total - tables[k][w[-1]] >= min_length:
            total -= tables[k][w[-1]]
            w = w[:-1]
        w = (inner if k else g).apply(w)
    return (complement(w) if tag in _BARRED else w)[:min_length]
