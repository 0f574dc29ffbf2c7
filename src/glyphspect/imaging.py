"""Glyph raster handling: PGM I/O, thresholding, cropping, square resizing.

Each image holds one read-only 2-D numpy array (uint8 intensities for
grayscale, bool for a mask), so every operation is a whole-array step and
no code loops over pixels in Python. Otsu's threshold is still chosen in
exact integer arithmetic. All operations are pure and the image types are
immutable, which keeps the whole pipeline deterministic.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GrayImage",
    "BinaryImage",
    "PgmParseError",
    "EmptyGlyphError",
    "load_pgm",
    "write_pgm",
    "binary_to_gray",
    "binarize_otsu",
    "binarize_fixed",
    "crop_to_bbox",
    "resize_nearest",
    "resize_to_square",
]


class PgmParseError(ValueError):
    """Raised when a PGM byte stream violates the P2/P5 format."""


class EmptyGlyphError(ValueError):
    """Raised when an operation needs ink but the image has none."""


@dataclass(frozen=True, eq=False)
class _Raster:
    """A width-by-height raster; `pixels` is a read-only (height, width) array.

    `pixels` may be given flat (row-major, top row first) or as a
    (height, width) array of integers; the image keeps its own copy.
    Images compare equal when their type, shape and pixels are equal.
    """

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")
        arr = np.asarray(self.pixels)
        if arr.shape not in ((self.width * self.height,), (self.height, self.width)):
            raise ValueError(
                f"pixel count {arr.size} does not match {self.width}x{self.height}"
            )
        if arr.dtype.kind not in "biu":
            raise ValueError(f"pixels must be integers, got {arr.dtype}")
        arr = self._convert(arr).reshape(self.height, self.width)
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @staticmethod
    def _convert(arr: np.ndarray) -> np.ndarray:
        """Check the value range and return a new array of the image's dtype."""
        raise NotImplementedError

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.pixels, other.pixels)

    def __hash__(self):
        return hash((self.width, self.height, self.pixels.tobytes()))

    def at(self, row: int, col: int) -> int:
        return int(self.pixels[row, col])


class GrayImage(_Raster):
    """8-bit grayscale raster (top row first)."""

    @staticmethod
    def _convert(arr):
        if arr.dtype != np.uint8:
            worst = arr.min() if arr.min() < 0 else arr.max()
            if not 0 <= worst <= 255:
                raise ValueError(f"intensity {worst} outside [0, 255]")
        return arr.astype(np.uint8)


class BinaryImage(_Raster):
    """Binary raster: True (1) = ink, False (0) = background."""

    @staticmethod
    def _convert(arr):
        if arr.dtype != bool:
            bad = arr[(arr != 0) & (arr != 1)]
            if bad.size:
                raise ValueError(f"binary pixel {bad[0]} not in {{0, 1}}")
        return arr.astype(bool)

    @property
    def ink_count(self) -> int:
        return int(np.count_nonzero(self.pixels))


_WHITESPACE = b" \t\r\n\x0b\x0c"
_SAMPLE_BYTES = b"0123456789" + _WHITESPACE  # all a P2 raster may hold
_COMMENT = re.compile(rb"#[^\n]*")


def load_pgm(data: bytes) -> GrayImage:
    """Parse a PGM file (binary P5 or ASCII P2, maxval <= 255).

    Header comments starting with '#' are allowed. Every number must be
    plain ASCII digits (no sign, no '_'). Raises PgmParseError naming the
    offending field on any malformed input.
    """
    data = bytes(data)

    def skip_separators(pos: int) -> int:
        while pos < len(data):
            if data[pos] in _WHITESPACE:
                pos += 1
            elif data[pos] == 0x23:  # '#' comment runs to end of line
                while pos < len(data) and data[pos] not in (0x0A, 0x0D):
                    pos += 1
            else:
                break
        return pos

    def next_token(pos: int, field: str) -> tuple[bytes, int]:
        pos = skip_separators(pos)
        start = pos
        while pos < len(data) and data[pos] not in _WHITESPACE and data[pos] != 0x23:
            pos += 1
        if start == pos:
            raise PgmParseError(f"missing {field} in header")
        return data[start:pos], pos

    def int_token(pos: int, field: str) -> tuple[int, int]:
        tok, pos = next_token(pos, field)
        if not tok.isdigit():  # bytes.isdigit accepts ASCII digits only
            raise PgmParseError(f"invalid {field} {tok!r}")
        try:
            return int(tok), pos
        except ValueError:  # past the interpreter's int-conversion digit limit
            raise PgmParseError(f"{field} has too many digits") from None

    magic, pos = next_token(0, "magic number")
    if magic not in (b"P2", b"P5"):
        raise PgmParseError(f"malformed magic number {magic!r}: expected P2 or P5")
    width, pos = int_token(pos, "width")
    height, pos = int_token(pos, "height")
    if width < 1:
        raise PgmParseError(f"width must be positive, got {width}")
    if height < 1:
        raise PgmParseError(f"height must be positive, got {height}")
    maxval, pos = int_token(pos, "maxval")
    if maxval < 1:
        raise PgmParseError(f"maxval must be positive, got {maxval}")
    if maxval > 255:
        raise PgmParseError(f"maxval {maxval} exceeds 255")

    count = width * height
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
        text = _COMMENT.sub(b"", data[pos:])
        tokens = text.split()
        if len(tokens) < count:
            raise PgmParseError(
                f"truncated pixel data: expected {count} values, found {len(tokens)}"
            )
        if len(tokens) > count:
            raise PgmParseError(
                f"excess pixel data: expected {count} values, found {len(tokens)}"
            )
        if text.translate(None, _SAMPLE_BYTES):
            bad = next(tok for tok in tokens if not tok.isdigit())
            raise PgmParseError(f"invalid pixel value {bad!r}")
        try:
            values = np.array(tokens, dtype=np.int64)
        except (OverflowError, ValueError):  # past int64, or too many digits
            raise PgmParseError(f"pixel value exceeds maxval {maxval}") from None

    worst = int(values.max())
    if worst > maxval:
        raise PgmParseError(f"pixel value {worst} exceeds maxval {maxval}")
    return GrayImage(width, height, values)


def write_pgm(img: GrayImage) -> bytes:
    """Serialize as ASCII P2 with a maxval of 255, one raster row per line."""
    lines = [b"P2", f"{img.width} {img.height}".encode(), b"255"]
    for row in img.pixels.tolist():
        lines.append(" ".join(map(str, row)).encode())
    return b"\n".join(lines) + b"\n"


def binary_to_gray(img: BinaryImage, ink: int = 0, background: int = 255) -> GrayImage:
    """Render a binary mask as grayscale (dark ink on light ground by default)."""
    return GrayImage(img.width, img.height, np.where(img.pixels, ink, background))


def binarize_otsu(img: GrayImage) -> tuple[BinaryImage, int]:
    """Threshold by maximizing between-class intensity variance.

    Pixels with intensity <= t become ink. Variance ties resolve to the
    smallest threshold. The comparison is done in exact integer arithmetic,
    so the argmax is unambiguous. A uniform-intensity image has no
    distinguishable glyph content: it maps to an all-background mask with
    threshold 0.
    """
    hist = np.bincount(img.pixels.ravel(), minlength=256)
    levels = np.flatnonzero(hist)
    if len(levels) == 1:
        return BinaryImage(img.width, img.height, np.zeros_like(img.pixels, bool)), 0
    counts = hist[levels]
    total = img.pixels.size
    total_sum = int(levels @ counts)

    # Between-class variance at t is proportional to
    # (s0*n1 - s1*n0)^2 / (n0*n1); compare fractions by cross-multiplying,
    # in Python ints because the squared term overflows int64 on images
    # past ~83x83. Between two occupied levels n0 and s0 do not change, so
    # scanning only occupied levels with a strict comparison keeps the
    # smallest maximizing threshold. Every t below the lowest level scores
    # 0, which seeds the running best at t = 0.
    best_t, best_num, best_den = 0, 0, 1
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

    return binarize_fixed(img, best_t), best_t


def binarize_fixed(img: GrayImage, t: int) -> BinaryImage:
    """Mark every pixel with intensity <= t as ink."""
    if not 0 <= t <= 255:
        raise ValueError(f"threshold {t} outside [0, 255]")
    return BinaryImage(img.width, img.height, img.pixels <= t)


def crop_to_bbox(img: BinaryImage) -> BinaryImage:
    """Crop to the minimal axis-aligned rectangle containing all ink."""
    rows = np.flatnonzero(img.pixels.any(axis=1))
    if len(rows) == 0:
        raise EmptyGlyphError("empty glyph")
    cols = np.flatnonzero(img.pixels.any(axis=0))
    out = img.pixels[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
    return BinaryImage(out.shape[1], out.shape[0], out)


def resize_nearest(img: BinaryImage, height: int, width: int) -> BinaryImage:
    """Nearest-neighbor resample: out(r, c) = in(floor(r*H/height), floor(c*W/width))."""
    if height < 1 or width < 1:
        raise ValueError("target size must be a positive integer")
    rows = np.arange(height) * img.height // height
    cols = np.arange(width) * img.width // width
    return BinaryImage(width, height, img.pixels[rows[:, None], cols])


def resize_to_square(img: BinaryImage, n: int) -> BinaryImage:
    """Resample to an n-by-n raster. Identity when the image is already n-by-n."""
    if n < 1:
        raise ValueError("target size must be a positive integer")
    if img.width == n and img.height == n:
        return img
    return resize_nearest(img, n, n)
