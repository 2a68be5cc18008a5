"""Morphism values and the library's named morphisms.

A morphism maps each source letter to a word over the target alphabet and
extends to words by concatenation.  The closed registry holds the eight
named morphisms used throughout the package:

    f: 0->0121, 1->021,  2->01      (ternary, the proper-side inflation)
    h: 0->1210, 1->120,  2->10      (letterwise reversal of f's images)
    g: 0->011,  1->0,    2->01      (ternary -> binary coding)
    mu: 0->01,  1->10               (the overlap-free binary fixture)
    tau: 0->0,  1->01,   2->011
    theta: 0->01, 1->2,  2->02
    sigma: the cycle 0->1->2->0, and sigma_inv its inverse

``tau == g.compose(sigma)`` and ``theta^2 == sigma_inv.h.sigma`` hold on
letters; both identities are exercised by the verification command.
Images are built with no loop over letters: one translate turns each
letter a into the placeholder byte 0x80 + a, which no letter is, and one
replace per letter puts its image in (``_substitute``).
"""

from __future__ import annotations

from collections.abc import Sequence

from .words import AlphabetError, Record, Word, digit_alphabet, parse_word

_PLACEHOLDERS = bytes(range(0x80, 0x100)) * 2  # letter a -> byte 0x80 + a
_LETTERS = b"\xff" * 0x80 + bytes(range(0x80))  # and back; a letter -> 0xFF


def _substitute(images: Sequence[Word], data: bytes) -> bytes:
    """The images of data's letters, concatenated."""
    data = data.translate(_PLACEHOLDERS)
    for a, img in enumerate(images):
        data = data.replace(_PLACEHOLDERS[a:a + 1], img.letters)
    return data


class Morphism(Record):
    source_alphabet: int
    target_alphabet: int
    images: tuple[Word, ...]

    def __init__(self, source_alphabet: int, target_alphabet: int,
                 images: tuple[Word, ...]):
        if len(images) != source_alphabet:
            raise AlphabetError(
                f"expected {source_alphabet} images, got {len(images)}")
        for a, img in enumerate(images):
            if img.alphabet_size != target_alphabet:
                raise AlphabetError(
                    f"image of {a} is over a {img.alphabet_size}-letter alphabet, "
                    f"expected {target_alphabet}")
        self.__dict__.update(source_alphabet=source_alphabet,
                             target_alphabet=target_alphabet, images=images)

    @classmethod
    def from_strings(cls, images: Sequence[str],
                     target_alphabet: int | None = None) -> "Morphism":
        """Build from digit strings; target alphabet inferred if omitted."""
        if target_alphabet is None:
            target_alphabet = digit_alphabet("".join(images))
        imgs = tuple(parse_word(s, target_alphabet) for s in images)
        return cls(len(images), target_alphabet, imgs)

    @property
    def non_erasing(self) -> bool:
        return all(len(img) > 0 for img in self.images)

    def image(self, letter: int) -> Word:
        return self.images[letter]

    def apply(self, w: Word) -> Word:
        """Concatenate the images of w's letters."""
        if w.alphabet_size != self.source_alphabet:
            raise AlphabetError(
                f"word is over a {w.alphabet_size}-letter alphabet, morphism "
                f"expects {self.source_alphabet}")
        return Word(_substitute(self.images, w.letters), self.target_alphabet)

    def compose(self, inner: "Morphism") -> "Morphism":
        """self after inner: letter a maps to self(inner(a))."""
        if inner.target_alphabet != self.source_alphabet:
            raise AlphabetError(
                f"cannot compose: inner target alphabet {inner.target_alphabet} "
                f"differs from outer source {self.source_alphabet}")
        return Morphism(inner.source_alphabet, self.target_alphabet,
                        tuple(self.apply(im) for im in inner.images))

    def iterate_prefix(self, seed: int, min_length: int) -> Word:
        """Prefix of the fixed point obtained by iterating from ``seed``.

        Requires an endomorphism that is non-erasing and prolongable on the
        seed (its image starts with the seed and is at least 2 letters), so
        successive iterates extend each other and the prefix is unique.
        As x = m(x), the seed's image is extended by the images of its own
        letters, to at most ``min_length`` + (longest image - 1) letters.
        """
        if self.source_alphabet != self.target_alphabet:
            raise AlphabetError("fixed points require source and target alphabets to match")
        if not 0 <= seed < self.source_alphabet:
            raise AlphabetError(f"seed {seed} is not a source letter")
        if min_length < 0:
            raise ValueError("prefix length must be non-negative")
        if not self.non_erasing:
            raise ValueError("fixed-point iteration requires a non-erasing morphism")
        img = self.images[seed].letters
        if len(img) < 2 or img[0] != seed:
            raise ValueError(
                f"morphism is not prolongable on {seed}: image {self.images[seed]}")
        longest = max(map(len, self.images))
        out, i = bytearray(img), 1
        while len(out) < min_length:
            # the next letters' images fit in what is missing, or one image
            j = min(i + max(1, (min_length - len(out)) // longest), len(out))
            out += _substitute(self.images, out[i:j])
            i = j
        return Word(bytes(out[:min_length]), self.source_alphabet)

    def __repr__(self) -> str:
        body = ",".join(str(im) for im in self.images)
        return f"Morphism({self.source_alphabet}->{self.target_alphabet}: {body})"


def equal_on_letters(a: Morphism, b: Morphism) -> bool:
    """Letterwise image agreement (sufficient for morphism equality)."""
    if a.source_alphabet != b.source_alphabet:
        raise AlphabetError("morphisms have different source alphabets")
    return a.images == b.images


_REGISTRY: dict[str, Morphism] = {
    "f": Morphism.from_strings(["0121", "021", "01"]),
    "g": Morphism.from_strings(["011", "0", "01"]),
    "h": Morphism.from_strings(["1210", "120", "10"]),
    "mu": Morphism.from_strings(["01", "10"]),
    "tau": Morphism.from_strings(["0", "01", "011"]),
    "theta": Morphism.from_strings(["01", "2", "02"]),
    "sigma": Morphism.from_strings(["1", "2", "0"]),
    "sigma_inv": Morphism.from_strings(["2", "0", "1"]),
}

NAMED_MORPHISMS = tuple(_REGISTRY)


def named(name: str) -> Morphism:
    """Look up one of the eight registry morphisms by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown morphism {name!r}; known names: {', '.join(_REGISTRY)}") from None


def parse_morphism(text: str) -> tuple[str, Morphism]:
    """Parse the ``name: image0,image1[,image2]`` text format."""
    name, sep, body = text.partition(":")
    if not sep:
        raise ValueError("morphism text must look like 'name: img0,img1[,img2]'")
    name = name.strip()
    images = [part.strip() for part in body.split(",")]
    if not name or any(not part for part in images):
        raise ValueError(f"malformed morphism text {text!r}")
    return name, Morphism.from_strings(images)
