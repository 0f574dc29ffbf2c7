"""Glyph raster handling: PGM I/O, thresholding, cropping, square resizing.

Each image holds one read-only 2-D numpy array (uint8 intensities for
grayscale, bool for a mask), so every operation is a whole-array step and
no code loops over pixels in Python. Otsu's threshold is chosen in exact
integer arithmetic on the image's histogram, or in closed form for one
level (no cut) or two (the lower). All operations are pure and the image
types are immutable, which keeps the whole pipeline deterministic.
"""
from __future__ import annotations

import functools
import re

import numpy as np

from . import _FrozenValue

__all__ = [
    "GrayImage",
    "BinaryImage",
    "PgmParseError",
    "EmptyGlyphError",
    "load_pgm",
    "write_pgm",
    "binary_to_gray",
    "binarize_otsu",
    "crop_to_bbox",
    "resize_nearest",
    "resize_to_square",
]


class PgmParseError(ValueError):
    """Raised when a PGM byte stream violates the P2/P5 format."""


class EmptyGlyphError(ValueError):
    """Raised when an operation needs ink but the image has none."""


class _Raster(_FrozenValue):
    """A width-by-height raster; `pixels` is a read-only (height, width) array.

    Caller data, flat (row-major, top row first) or a (height, width) array
    of integers in [0, `_top`], is checked and copied as the subclass's
    `_dtype` (`_noun` names a value in errors); arrays this module makes are
    handed over read-only, unchecked and uncopied, through `_adopt`. Caller
    data that breaks these rules raises ValueError, a width or height that
    is not a number TypeError. Images compare equal when their type, shape
    and pixels are equal.
    """

    def __init__(self, width: int, height: int, pixels: np.ndarray):
        if width < 1 or height < 1:
            raise ValueError("image dimensions must be positive")
        arr = np.asarray(pixels)
        if arr.shape not in ((width * height,), (height, width)):
            raise ValueError(f"pixel count {arr.size} does not match {width}x{height}")
        if arr.dtype.kind not in "biu":
            raise ValueError(f"pixels must be integers, got {arr.dtype}")
        if arr.dtype != self._dtype:
            worst = arr.min() if arr.min() < 0 else arr.max()
            if not 0 <= worst <= self._top:
                raise ValueError(f"{self._noun} {worst} outside [0, {self._top}]")
        arr = arr.astype(self._dtype).reshape(height, width)
        arr.setflags(write=False)
        self.__dict__.update(width=width, height=height, pixels=arr)

    @classmethod
    def _adopt(cls, arr: np.ndarray):
        """An image of a (height, width) array of the class's dtype that no
        other code holds a writable reference to."""
        arr.setflags(write=False)
        img = object.__new__(cls)  # fields set as the frozen __init__ would
        img.__dict__["height"], img.__dict__["width"] = arr.shape
        img.__dict__["pixels"] = arr
        return img

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.pixels, other.pixels)

    def __hash__(self):
        return hash((self.width, self.height, self.pixels.tobytes()))


class GrayImage(_Raster):
    """8-bit grayscale raster (top row first)."""

    _dtype, _top, _noun = np.uint8, 255, "intensity"


class BinaryImage(_Raster):
    """Binary raster: True (1) = ink, False (0) = background."""

    _dtype, _top, _noun = bool, 1, "binary pixel"

    @property
    def ink_count(self) -> int:
        return int(np.count_nonzero(self.pixels))


_WHITESPACE = b" \t\r\n\x0b\x0c"
_SAMPLE_BYTES = b"0123456789" + _WHITESPACE  # all a P2 raster may hold
_COMMENT = re.compile(rb"#[^\r\n]*")
# Four header tokens, each after any whitespace and comments (in a bytes
# pattern \s is exactly _WHITESPACE); a token is empty where the data ends.
_HEADER = re.compile(rb"(?:\s+|#[^\r\n]*)*([^\s#]*)" * 4)


def _header_int(token: bytes, field: str) -> int:
    """The header field's value: plain ASCII digits naming a positive integer."""
    if not token:
        raise PgmParseError(f"missing {field} in header")
    if not token.isdigit():  # bytes.isdigit accepts ASCII digits only
        raise PgmParseError(f"invalid {field} {token!r}")
    try:
        value = int(token)
    except ValueError:  # past the interpreter's int-conversion digit limit
        raise PgmParseError(f"{field} has too many digits") from None
    if value < 1:
        raise PgmParseError(f"{field} must be positive, got {value}")
    return value


def load_pgm(data: bytes) -> GrayImage:
    """Parse a PGM file (binary P5 or ASCII P2, maxval <= 255).

    Comments starting with '#' and ending at CR or LF are allowed in the
    header and in a P2 raster. Every number must be plain ASCII digits (no
    sign, no '_'). Raises PgmParseError naming the offending field on any
    malformed input.
    """
    data = bytes(data)
    header = _HEADER.match(data)
    magic = header[1]
    if not magic:
        raise PgmParseError("missing magic number in header")
    if magic not in (b"P2", b"P5"):
        raise PgmParseError(f"malformed magic number {magic!r}: expected P2 or P5")
    width = _header_int(header[2], "width")
    height = _header_int(header[3], "height")
    maxval = _header_int(header[4], "maxval")
    if maxval > 255:
        raise PgmParseError(f"maxval {maxval} exceeds 255")

    count = width * height
    pos = header.end()
    if magic == b"P5":
        if pos >= len(data) or data[pos] not in _WHITESPACE:
            raise PgmParseError("maxval must be followed by a single whitespace byte")
        found = min(count, len(data) - pos - 1)
        if found < count:
            raise PgmParseError(
                f"truncated pixel data: expected {count} bytes, found {found}"
            )
        values = np.frombuffer(data, dtype=np.uint8, count=count, offset=pos + 1)
    else:
        # Plain format: strip comments, then whitespace-separated decimals.
        text = _COMMENT.sub(b"", data[pos:]) if b"#" in data else data[pos:]
        valid = not text.translate(None, _SAMPLE_BYTES)
        if valid and text.strip():  # fromstring reads a blank text as [0]
            values = np.fromstring(text, dtype=np.int64, sep=" ")
            found = len(values)
        else:
            tokens = text.split()
            found = len(tokens)
        if found < count:
            raise PgmParseError(
                f"truncated pixel data: expected {count} values, found {found}"
            )
        if found > count:
            raise PgmParseError(
                f"excess pixel data: expected {count} values, found {found}"
            )
        if not valid:
            bad = next(tok for tok in tokens if not tok.isdigit())
            raise PgmParseError(f"invalid pixel value {bad!r}")

    # a P5 byte cannot exceed maxval 255, so that case skips the scan
    worst = int(values.max()) if magic == b"P2" or maxval < 255 else 0
    if worst > maxval:
        if magic == b"P2":
            try:  # fromstring saturates a sample past int64; this parse refuses it
                np.array(text.split(), dtype=np.int64)
            except (OverflowError, ValueError):  # past int64, or too many digits
                raise PgmParseError(f"pixel value exceeds maxval {maxval}") from None
        raise PgmParseError(f"pixel value {worst} exceeds maxval {maxval}")
    if magic == b"P2":  # in [0, 255] now; P5 pixels are uint8 views of immutable `data`
        values = values.astype(np.uint8)
    return GrayImage._adopt(values.reshape(height, width))


# Row 0 holds each intensity's digits and a space, row 1 its digits and a
# newline, NUL-padded to 4 bytes; write_pgm gathers a raster's cells.
_P2_CELLS = np.frombuffer(
    b"".join(f"{v}{end}".encode().ljust(4, b"\0") for end in " \n" for v in range(256)),
    dtype=np.uint8,
).reshape(2, 256, 4)


def write_pgm(img: GrayImage) -> bytes:
    """Serialize as ASCII P2, maxval 255: a `P2\\n<w> <h>\\n255\\n` header, then
    one line per raster row, its samples separated by single spaces."""
    cells = _P2_CELLS[0].take(img.pixels, axis=0)  # (height, width, 4)
    cells[:, -1] = _P2_CELLS[1].take(img.pixels[:, -1], axis=0)
    return b"P2\n%d %d\n255\n" % (img.width, img.height) + cells[cells != 0].tobytes()


def binary_to_gray(img: BinaryImage) -> GrayImage:
    """Render a binary mask as grayscale: ink 0 on background 255."""
    return GrayImage._adopt(~img.pixels * np.uint8(255))


def _otsu_scan(pixels: np.ndarray) -> int:
    """The Otsu threshold of one intensity array from its histogram."""
    hist = np.bincount(pixels.ravel(), minlength=256)
    levels = np.flatnonzero(hist)
    counts = hist[levels]
    total = pixels.size
    total_sum = int(levels @ counts)

    # Between-class variance at t is proportional to
    # (s0*n1 - s1*n0)^2 / (n0*n1); compare fractions by cross-multiplying,
    # in Python ints because the squared term overflows int64 on images
    # past ~83x83. Between two occupied levels n0 and s0 do not change, so
    # scanning only occupied levels with a strict comparison keeps the
    # smallest maximizing threshold. Every t below the lowest level scores
    # 0 and the lowest scores more unless it is the only level, so the
    # running best starts at t = -1, which only a uniform image keeps.
    best_t, best_num, best_den = -1, 0, 1
    n0 = 0
    s0 = 0
    for t, k in zip(levels.tolist(), counts.tolist()):
        n0 += k
        s0 += t * k
        n1 = total - n0
        if n1 == 0:
            break
        num = (s0 * n1 - (total_sum - s0) * n0) ** 2
        den = n0 * n1
        if num * best_den > best_num * den:
            best_t, best_num, best_den = t, num, den
    return best_t


def binarize_otsu(img: GrayImage) -> tuple[BinaryImage, int]:
    """Threshold by maximizing between-class intensity variance.

    Pixels with intensity <= t become ink. Variance ties resolve to the
    smallest threshold. The comparison is done in exact integer arithmetic,
    so the argmax is unambiguous. A uniform-intensity image has no
    distinguishable glyph content: it maps to an all-background mask with
    threshold 0. Two levels have one splitting cut, the lower: no histogram.
    """
    pixels = img.pixels
    lo, hi = int(pixels.min()), int(pixels.max())
    if lo == hi:  # no ink
        return BinaryImage._adopt(np.zeros(pixels.shape, bool)), 0
    ink = pixels == lo
    if np.count_nonzero(ink) + np.count_nonzero(pixels == hi) == pixels.size:
        return BinaryImage._adopt(ink), lo  # no third level: cut at lo
    cut = _otsu_scan(pixels)
    return BinaryImage._adopt(pixels <= cut), cut


def crop_to_bbox(img: BinaryImage) -> BinaryImage:
    """Crop to the minimal axis-aligned rectangle containing all ink; a mask
    with ink on all four borders, as any cropped glyph has, is returned as is."""
    px = img.pixels
    if all(map(np.count_nonzero, (px[0], px[-1], px[:, 0], px[:, -1]))):
        return img
    rows = px.any(axis=1)
    top = rows.argmax()
    if not rows[top]:
        raise EmptyGlyphError("empty glyph")
    band = px[top : len(rows) - rows[::-1].argmax()]  # inked rows, a view
    cols = band.any(axis=0)  # over the band only: no column has ink outside it
    return BinaryImage._adopt(band[:, cols.argmax() : len(cols) - cols[::-1].argmax()])


@functools.lru_cache(maxsize=256)
def _nearest(size: int, n: int) -> np.ndarray:
    """floor(k*size/n) for k < n, read-only: resize_nearest's source indices."""
    index = np.arange(n) * size // n
    index.setflags(write=False)
    return index


def resize_nearest(img: BinaryImage, height: int, width: int) -> BinaryImage:
    """Nearest-neighbor resample: out(r, c) = in(floor(r*H/height), floor(c*W/width))."""
    if height < 1 or width < 1:
        raise ValueError("target size must be a positive integer")
    rows, cols = _nearest(img.height, height), _nearest(img.width, width)
    return BinaryImage._adopt(img.pixels.take(rows, axis=0).take(cols, axis=1))


def resize_to_square(img: BinaryImage, n: int) -> BinaryImage:
    """Resample to an n-by-n raster. Identity when the image is already n-by-n."""
    if img.width == n and img.height == n:
        return img
    return resize_nearest(img, n, n)

