"""Spectral features of glyph projection profiles.

A square binary glyph is reduced to two ink-count signals (row sums and
column sums), each signal goes through a DFT, and the lowest m coefficient
magnitudes of both axes are concatenated into the classifier feature
vector. Magnitudes make the features invariant to cyclic shifts of the
projection signals, so small in-frame translations of a glyph barely move
its feature vector.

`feature_rows` computes the vectors of an (n, n) glyph mask or an (N, n, n)
stack in whole-array steps; `extract_features` is its one-glyph case. The
DFT is each signal's own product with a cached matrix of cos and -sin
values, so a stack, one glyph and `dft` of one signal agree bit for bit.
"""
from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from . import _FrozenValue, _floats, _int, _numbers
from .imaging import BinaryImage

__all__ = [
    "ProjectionPair",
    "Spectrum",
    "FeatureVector",
    "project",
    "dft",
    "truncate_spectrum",
    "extract_features",
    "feature_rows",
]


def _frozen(values, dtype) -> np.ndarray:
    """A read-only copy of `values` as `dtype`. Text, and values numpy would
    cast to `dtype` only across kinds (a float to int64; None or a huge int,
    held as objects), raise TypeError."""
    arr = np.asarray(_numbers(values))
    if arr.size and not np.can_cast(arr.dtype, dtype, "same_kind"):
        raise TypeError(f"expected {np.dtype(dtype)} values, got {arr.dtype}")
    arr = arr.astype(dtype)
    arr.setflags(write=False)
    return arr


class ProjectionPair(_FrozenValue):
    """Row and column ink counts of an n-by-n binary image, n = len(h), as
    read-only arrays. Empty, non-1-D or unequal-length projections, counts
    outside [0, n] or unequal ink totals raise ValueError; non-integers TypeError."""

    __eq__, __hash__ = object.__eq__, object.__hash__  # equal only to itself

    def __init__(self, h: np.ndarray, v: np.ndarray):
        self.__dict__.update(h=_frozen(h, np.int64), v=_frozen(v, np.int64))
        if self.h.ndim != 1 or not self.h.size or self.h.shape != self.v.shape:
            raise ValueError("projections must be 1-D, non-empty and of one length")
        h, v = self.h.tolist(), self.v.tolist()  # builtins beat tiny numpy reductions
        if min(h + v) < 0 or max(h + v) > len(h):
            raise ValueError(f"projection count outside [0, {len(h)}]")
        if sum(h) != sum(v):
            raise ValueError("row and column projections must count the same ink")


class Spectrum(_FrozenValue):
    """Complex DFT coefficients of one projection signal (read-only array).
    No coefficient is a ValueError; text, None or a huge int a TypeError."""

    __eq__, __hash__ = object.__eq__, object.__hash__  # equal only to itself

    def __init__(self, coeffs: np.ndarray):
        self.__dict__["coeffs"] = _frozen(coeffs, np.complex128)
        if self.coeffs.ndim != 1 or not len(self.coeffs):
            raise ValueError("spectrum must contain at least one coefficient")

    def __len__(self) -> int:
        return len(self.coeffs)


class FeatureVector(_FrozenValue):
    """2m finite nonnegative reals, m >= 1: m truncated magnitudes per axis.
    Another count or value raises ValueError, a non-number (text too) TypeError."""

    def __init__(self, values: tuple[float, ...]):
        self.__dict__["values"] = _floats(values)
        if not self.values or len(self.values) % 2:
            raise ValueError(f"expected 2m values, m >= 1, got {len(self.values)}")
        if not all(0.0 <= v < math.inf for v in self.values):  # NaN fails too
            raise ValueError("feature magnitudes must be finite and nonnegative")

    @classmethod
    def _adopt(cls, values: tuple[float, ...]) -> FeatureVector:
        """2m float magnitudes this module has just computed, unchecked."""
        vec = object.__new__(cls)  # fields set as the frozen __init__ would
        vec.__dict__["values"] = values
        return vec


def project(img: BinaryImage) -> ProjectionPair:
    """Count ink per row (h) and per column (v) of a square binary image."""
    if img.width != img.height:
        raise ValueError(
            f"projection requires a square image, got {img.width}x{img.height}"
        )
    return ProjectionPair(img.pixels.sum(axis=1), img.pixels.sum(axis=0))


@functools.lru_cache(maxsize=8)
def _ones(n: int) -> np.ndarray:
    return _frozen(np.ones(n), np.float64)


@functools.lru_cache(maxsize=8)
def _basis(n: int) -> np.ndarray:
    """The read-only (n, 2n) DFT matrix: column 2k holds cos(2*pi*k*t/n) and
    column 2k+1 holds -sin(2*pi*k*t/n), exactly 0 or +-1 at quarter turns."""
    turns = np.outer(np.arange(n), np.arange(n)) % n  # k*t reduced: exact angles
    angle = (2 * np.pi / n) * turns
    basis = np.empty((n, n, 2))
    basis[..., 0], basis[..., 1] = np.cos(angle), -np.sin(angle)
    quarter = 4 * turns % n == 0
    basis[quarter] = np.rint(basis[quarter]) + 0.0  # + 0.0 turns -0.0 into 0.0
    return _frozen(basis.reshape(n, 2 * n), np.float64)


def _dft(signals: np.ndarray) -> np.ndarray:
    """The DFT of each length-n row of a C-contiguous float64 array, as
    (..., 2n) interleaved real and imaginary parts. Each row is its own
    (1, n) @ (n, 2n) product, so its coefficients are the same bits whatever
    batch it is in (one (k, n) @ (n, 2n) product would round differently)."""
    *lead, n = signals.shape
    return (signals.reshape(*lead, 1, n) @ _basis(n)).reshape(*lead, 2 * n)


def dft(signal: Sequence[float]) -> Spectrum:
    """Discrete Fourier transform of a real signal.

    Coefficient k is sum_t s(t) * exp(-2j*pi*k*t/N), computed directly as one
    product with a cached N-by-2N matrix of cos and -sin values: O(N^2) time
    and 16*N^2 bytes per distinct N, with the matrices of the last 8 lengths
    kept (an lru_cache). For glyph projections (N of a few dozen) that costs
    less than an FFT call, and agrees with one to rounding. An empty or
    non-1-D signal raises ValueError; text, None, complex or huge ints TypeError.
    """
    if len(signal) == 0:
        raise ValueError("empty signal")
    return Spectrum(_dft(_frozen(signal, np.float64)).view(np.complex128))


def _magnitudes(pairs: np.ndarray) -> np.ndarray:
    """|c| of interleaved (re, im) pairs on the last axis. hypot, as
    abs(complex) takes; np.abs can differ in the last bit."""
    return np.hypot(pairs[..., 0::2], pairs[..., 1::2])


def truncate_spectrum(spec: Spectrum, m: int) -> tuple[float, ...]:
    """Keep the magnitudes of the lowest m coefficients. An m outside
    [1, len(spec)] raises ValueError, a non-integer (True, 2.0) TypeError."""
    m = _int(m, "m")
    if not 1 <= m <= len(spec):
        raise ValueError(f"m must satisfy 1 <= m <= {len(spec)}, got {m}")
    return tuple(_magnitudes(spec.coeffs[:m].view(np.float64)).tolist())


def feature_rows(masks: np.ndarray, m: int, normalize: bool = False) -> np.ndarray:
    """The (..., 2m) rows of an (..., n, n) array of binary glyph masks: the
    lowest m DFT magnitudes of the row sums, then of the column sums, each
    row divided by its L2 norm if `normalize`. A non-square mask or an m
    outside [1, n] raises ValueError, a non-integer m TypeError."""
    *lead, height, n = masks.shape
    if height != n:
        raise ValueError(f"projection requires a square image, got {n}x{height}")
    m = _int(m, "m")
    if not 1 <= m <= n:
        raise ValueError(f"m must satisfy 1 <= m <= {n}, got {m}")
    # exact 0/1 sums; bool sums cast inside the reduction at twice the cost
    ink, ones = masks.astype(np.float64), _ones(n)
    signals = np.empty((*lead, 2, n))
    np.matmul(ink, ones, out=signals[..., 0, :])
    np.matmul(ones, ink, out=signals[..., 1, :])
    rows = _magnitudes(_dft(signals)[..., : 2 * m]).reshape(*lead, 2 * m)
    if normalize and rows.size:  # an empty stack has no row to divide
        flat = rows.reshape(-1, 2 * m)  # a view: dividing it divides rows
        # builtin sum() rounds unlike numpy's sums; 1 keeps an inkless glyph's zeros
        flat /= [[math.sqrt(sum(sq)) or 1.0] for sq in np.square(flat).tolist()]
    return rows


def extract_features(img: BinaryImage, m: int, normalize: bool = False) -> FeatureVector:
    """feature_rows of one n-by-n glyph, as a FeatureVector (m <= n).

    Equals truncate_spectrum(dft(h), m) + truncate_spectrum(dft(v), m).
    Optionally L2-normalizes the final vector; off by default since the
    fixed square resize already standardizes scale.
    """
    return FeatureVector._adopt(tuple(feature_rows(img.pixels, m, normalize).tolist()))
