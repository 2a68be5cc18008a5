"""Known answers and input words, kept apart from the library under test.

Nothing here imports rotewords.  The morphism images and the 32 search
maxima are copied from the paper, and every input word is built from those
images with plain ``bytes`` joins, so a defect in the library's morphism
code cannot shift an input and its expectation together.
"""

from __future__ import annotations

# Images of letters 0, 1, 2 (0, 1 for mu), one byte per letter.
F_IMAGES = (b"\0\1\2\1", b"\0\2\1", b"\0\1")
H_IMAGES = (b"\1\2\1\0", b"\1\2\0", b"\1\0")
G_IMAGES = (b"\0\1\1", b"\0", b"\0\1")
MU_IMAGES = (b"\0\1", b"\1\0")

# The reference search table: forbidden factors -> longest binary word
# avoiding 5/2+ powers and those factors.
TABLE = (
    (("0110",), 14),
    (("0010", "0100"), 44), (("0010", "1011"), 28), (("0010", "1101"), 13),
    (("0100", "1011"), 13), (("0100", "1101"), 28), (("1011", "1101"), 44),
    (("0011", "0010"), 15), (("0011", "0100"), 31), (("0011", "0101"), 12),
    (("0011", "1010"), 18), (("0011", "1011"), 15), (("0011", "1101"), 31),
    (("0011", "1100"), 30),
    (("0101", "1010", "00100110"), 24), (("0101", "1010", "01001100"), 50),
    (("0101", "1010", "10011001"), 33), (("0101", "1010", "00110010"), 50),
    (("0101", "1010", "01100100"), 24), (("0101", "1010", "11001001"), 24),
    (("0101", "1010", "10010011"), 24), (("0101", "1010", "00110011"), 52),
    (("0101", "1010", "01100110"), 33), (("0101", "1010", "11001101"), 50),
    (("0101", "1010", "10011011"), 24), (("0101", "1010", "00110110"), 24),
    (("0101", "1010", "01101100"), 24), (("0101", "1010", "11011001"), 24),
    (("0101", "1010", "10110010"), 88), (("0101", "1010", "10110011"), 50),
    (("0101", "1010", "11001100"), 52),
    (("1011", "1010"), 20),
)

# Maximum factor exponents, as (numerator, denominator).
GF_MAX_EXPONENT = (5, 2)   # g(f^w) and its reversed complement
TM_MAX_EXPONENT = (2, 1)   # Thue-Morse, the fixed point of mu

_FLIP = bytes.maketrans(b"\0\1", b"\1\0")
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
_LETTERS = bytes.maketrans(b"0123456789", bytes(range(10)))


def apply(images, word: bytes) -> bytes:
    return b"".join([images[c] for c in word])


def fixed_point(images, seed: int, length: int) -> bytes:
    """Prefix of the fixed point of a morphism prolongable on ``seed``."""
    w = bytes([seed])
    while len(w) < length:
        w = apply(images, w)
    return w[:length]


def complement(w: bytes) -> bytes:
    return w.translate(_FLIP)


def digits(w: bytes) -> str:
    return w.translate(_DIGITS).decode("ascii")


def letters(text: str) -> bytes:
    return text.encode("ascii").translate(_LETTERS)


def class_word(tag: str, length: int) -> bytes:
    """A prefix of the infinite word whose length-4 class is ``tag``.

    F is g(f^w); the reversed classes use h's fixed point from 1; the bar
    classes are complements.
    """
    if tag in ("F", "Fbar"):
        inner = fixed_point(F_IMAGES, 0, length)
    else:
        inner = fixed_point(H_IMAGES, 1, length)
    w = apply(G_IMAGES, inner)[:length]
    return complement(w) if tag in ("Fbar", "FbarRev") else w


CLASS_TAGS = ("F", "Fbar", "Frev", "FbarRev")
# Reversed classes decode through h, whose levels are antiproper.
CHECKED_SIDE = {"F": "proper", "Fbar": "proper",
                "Frev": "antiproper", "FbarRev": "antiproper"}


def front_defect_word(prefix: bytes, length: int) -> bytes:
    """g(f^4(prefix . f^w)) cut to ``length``: clean after a defective front."""
    inner = 8
    while True:
        u = prefix + fixed_point(F_IMAGES, 0, inner)
        for _ in range(4):
            u = apply(F_IMAGES, u)
        w = apply(G_IMAGES, u)
        if len(w) >= length:
            return w[:length]
        inner *= 2


def has_period(w: bytes, start: int, length: int, period: int) -> bool:
    """Direct slice comparison: w[start:start+length] has period ``period``."""
    if not (0 <= start and 0 < period <= length and start + length <= len(w)):
        return False
    return (w[start:start + length - period]
            == w[start + period:start + length])
