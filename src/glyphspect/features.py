"""Spectral features of glyph projection profiles.

A square binary glyph is reduced to two ink-count signals (row sums and
column sums), each signal goes through a DFT, and the lowest m coefficient
magnitudes of both axes are concatenated into the classifier feature
vector. Magnitudes make the features invariant to cyclic shifts of the
projection signals, so small in-frame translations of a glyph barely move
its feature vector.

`feature_rows` computes the vectors of an (N, n, n) stack of glyphs in one
FFT; `extract_features` runs the same helpers on one glyph.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ProjectionPair:
    """Row and column ink counts of an n-by-n binary image (read-only arrays)."""

    h: np.ndarray
    v: np.ndarray
    n: int

    def __post_init__(self):
        object.__setattr__(self, "h", _frozen(self.h, np.int64))
        object.__setattr__(self, "v", _frozen(self.v, np.int64))
        if self.h.shape != (self.n,) or self.v.shape != (self.n,):
            raise ValueError("projection length does not match n")
        h, v = self.h.tolist(), self.v.tolist()  # builtins beat tiny numpy reductions
        if min(h + v) < 0 or max(h + v) > self.n:
            raise ValueError(f"projection count outside [0, {self.n}]")
        if sum(h) != sum(v):
            raise ValueError("row and column projections must count the same ink")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Complex DFT coefficients of one projection signal (read-only array)."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen(self.coeffs, np.complex128))
        if self.coeffs.ndim != 1 or not len(self.coeffs):
            raise ValueError("spectrum must contain at least one coefficient")

    def __len__(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class FeatureVector:
    """2m nonnegative reals: m truncated magnitudes per projection axis."""

    values: tuple[float, ...]
    m: int

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(map(float, self.values)))
        if self.m < 1:
            raise ValueError("m must be positive")
        if len(self.values) != 2 * self.m:
            raise ValueError(f"expected {2 * self.m} values, got {len(self.values)}")
        if min(self.values) < 0:
            raise ValueError("feature magnitudes must be nonnegative")

    @classmethod
    def _adopt(cls, values: tuple[float, ...], m: int) -> FeatureVector:
        """2m float magnitudes this module has just computed, unchecked."""
        vec = object.__new__(cls)  # fields set as the frozen __init__ would
        vars(vec).update(values=values, m=m)
        return vec


def project(img: BinaryImage) -> ProjectionPair:
    """Count ink per row (h) and per column (v) of a square binary image."""
    if img.width != img.height:
        raise ValueError(
            f"projection requires a square image, got {img.width}x{img.height}"
        )
    return ProjectionPair(img.pixels.sum(axis=1), img.pixels.sum(axis=0), img.width)


def dft(signal: Sequence[float]) -> Spectrum:
    """Discrete Fourier transform of a real signal.

    Coefficient k is sum_t s(t) * exp(-2j*pi*k*t/N). Computed with an FFT;
    signals here are short (N <= 64) so either route is exact to rounding.
    """
    if len(signal) == 0:
        raise ValueError("empty signal")
    return Spectrum(np.fft.fft(np.asarray(signal, dtype=np.float64)))


def _magnitudes(coeffs: np.ndarray) -> np.ndarray:
    # |c| by hypot, as abs(complex) does; np.abs can differ in the last bit
    return np.hypot(coeffs.real, coeffs.imag)


def truncate_spectrum(spec: Spectrum, m: int) -> tuple[float, ...]:
    """Keep the magnitudes of the lowest m coefficients."""
    if not 1 <= m <= len(spec):
        raise ValueError(f"m must satisfy 1 <= m <= {len(spec)}, got {m}")
    return tuple(_magnitudes(spec.coeffs[:m]).tolist())


def _spectra(masks: np.ndarray, m: int) -> np.ndarray:
    """The lowest m DFT magnitudes of row sums, then of column sums: (..., 2m)."""
    *lead, height, n = masks.shape
    if height != n:
        raise ValueError(f"projection requires a square image, got {n}x{height}")
    if not 1 <= m <= n:
        raise ValueError(f"m must satisfy 1 <= m <= {n}, got {m}")
    signals = np.empty((*lead, 2, n))
    masks.sum(axis=-1, out=signals[..., 0, :])
    masks.sum(axis=-2, out=signals[..., 1, :])
    return _magnitudes(np.fft.fft(signals)[..., :m]).reshape(*lead, 2 * m)


def _l2_norm(squares: list[float]) -> float:
    # builtin sum() rounds unlike numpy's sums; 1 keeps an inkless glyph's zeros
    return math.sqrt(sum(squares)) or 1.0


def feature_rows(masks: np.ndarray, m: int, normalize: bool = False) -> np.ndarray:
    """The (N, 2m) feature rows of an (N, n, n) stack of binary glyphs (m <= n):
    row i is extract_features of glyph i."""
    rows = _spectra(masks, m)
    if normalize:
        rows /= [[_l2_norm(sq)] for sq in np.square(rows).tolist()]
    return rows


def extract_features(
    img: BinaryImage, m: int, normalize: bool = False
) -> FeatureVector:
    """Build the 2m-value feature vector of an n-by-n glyph (m <= n).

    Equals truncate_spectrum(dft(h), m) + truncate_spectrum(dft(v), m).
    Optionally L2-normalizes the final vector; off by default since the
    fixed square resize already standardizes scale.
    """
    row = _spectra(img.pixels, m)
    if normalize:
        row /= _l2_norm(np.square(row).tolist())
    return FeatureVector._adopt(tuple(row.tolist()), m)
