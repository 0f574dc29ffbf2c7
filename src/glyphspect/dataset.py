"""Sample ingestion, stratified splitting, and synthetic corpus generation.

The training protocol wants labeled glyph images split evenly per class
into train and test halves. Real confusable-character scans are usually
proprietary, so this module also synthesizes perturbed corpora from a small
set of bundled template glyphs (two visually close pairs), which makes the
whole pipeline exercisable out of the box.
"""
from __future__ import annotations

import csv
import random
import re
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import _csv_text, _FrozenValue
from .imaging import (
    BinaryImage,
    GrayImage,
    binary_to_gray,
    crop_to_bbox,
    load_pgm,
    resize_nearest,
    resize_to_square,
    write_pgm,
)
from .svm import ConvergenceError, PairRegistry

__all__ = [
    "GlyphSample",
    "ManifestRow",
    "SynthParams",
    "ManifestError",
    "RegistryError",
    "SynthesisError",
    "read_manifest",
    "load_manifest",
    "load_registry",
    "write_registry",
    "split_even",
    "synth_generate",
    "write_corpus",
    "builtin_templates",
    "builtin_registry",
]

_MAX_RETRIES = 100


class ManifestError(ValueError):
    """Raised for a missing, empty, or malformed sample manifest."""


class RegistryError(ValueError):
    """Raised for a missing or malformed confusable-pair registry."""


class SynthesisError(ConvergenceError):
    """Raised when every retry of a sample ends with no ink: the noise or
    the n x n resize dropped every ink pixel."""


class GlyphSample(_FrozenValue):
    """One labeled glyph image plus an opaque provenance string."""

    def __init__(self, image: GrayImage | BinaryImage, label: str, source_id: str):
        if not label:
            raise ValueError("sample label must be non-empty")
        self.__dict__.update(image=image, label=label, source_id=source_id)


class SynthParams(_FrozenValue):
    """Perturbation knobs for corpus generation."""

    def __init__(
        self, flips: float = 0.0, max_shift: int = 0, scale_jitter: float = 0.0,
        count: int = 1, seed: int = 0,
    ):
        if not 0.0 <= flips <= 1.0:
            raise ValueError("flips must lie in [0, 1]")
        if max_shift < 0:
            raise ValueError("max_shift must be nonnegative")
        if not 0.0 <= scale_jitter <= 0.5:
            raise ValueError("scale_jitter must lie in [0, 0.5]")
        if count < 1:
            raise ValueError("count must be positive")
        self.__dict__.update(
            flips=flips, max_shift=max_shift, scale_jitter=scale_jitter,
            count=count, seed=seed,
        )


def _read_csv(
    path: Path, what: str, header: list[str], error: type[ValueError]
) -> list[list[str]]:
    """The data rows of a UTF-8 CSV file (a leading byte-order mark is
    ignored, as Excel and Notepad write one) that must start with `header`.

    Raises `error` for a missing file, bytes that are not UTF-8, a CSV
    syntax error (such as a cell over the csv module's field limit), a
    wrong header or no data rows.
    """
    if not path.is_file():
        raise error(f"{what} not found: {str(path)!r}")
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise error(f"{what} {str(path)!r}: {exc}") from None
    if rows and [cell.strip() for cell in rows[0]] != header:
        raise error(f"{what} must start with a '{','.join(header)}' header")
    if len(rows) < 2:
        raise error(f"{what} is empty")
    return rows[1:]


class ManifestRow(NamedTuple):
    """One checked manifest row before its image is decoded."""

    line_no: int
    source_id: str  # the image path as written, relative to the manifest
    label: str


def read_manifest(path) -> list[ManifestRow]:
    """The checked rows of a 'path,label' CSV manifest, in order, decoding no
    image. Labels are taken verbatim and duplicate paths are legal data.
    Raises ManifestError naming the offending row."""
    rows = _read_csv(Path(path), "manifest", ["path", "label"], ManifestError)
    checked = []
    for line_no, row in enumerate(rows, start=2):
        if len(row) != 2 or not row[0].strip() or not row[1]:
            raise ManifestError(f"manifest row {line_no}: expected 'path,label'")
        checked.append(ManifestRow(line_no, row[0].strip(), row[1]))
    return checked


def load_manifest(path, rows=None) -> list[GlyphSample]:
    """Decode the given `read_manifest` rows (default: all) in order; `train`
    and `evaluate` pass only the half they use. Image paths resolve against
    the manifest's folder as each row is decoded. Raises ManifestError
    naming the first row that fails to decode."""
    path = Path(path)
    if rows is None:
        rows = read_manifest(path)
    folder = path.parent
    samples = []
    for line_no, rel, label in rows:
        try:
            image = load_pgm((folder / rel).read_bytes())
        except (OSError, ValueError) as exc:  # PgmParseError, or a NUL in the path
            raise ManifestError(f"manifest row {line_no}: {rel!r}: {exc}") from exc
        samples.append(GlyphSample(image, label, rel))
    return samples


def load_registry(path) -> PairRegistry:
    """Read a 'correct_class,error_class' CSV registry.

    The pair rules are PairRegistry's; their ValueError becomes RegistryError.
    """
    rows = _read_csv(
        Path(path), "registry", ["correct_class", "error_class"], RegistryError
    )
    for line_no, row in enumerate(rows, start=2):
        if len(row) != 2:
            raise RegistryError(
                f"registry row {line_no}: expected 'correct_class,error_class'"
            )
    try:
        return PairRegistry(tuple(rows))
    except ValueError as exc:
        raise RegistryError(f"registry: {exc}") from None


def write_registry(registry: PairRegistry, path) -> None:
    text = _csv_text([("correct_class", "error_class"), *registry.pairs])
    Path(path).write_bytes(text.encode("utf-8"))


def split_even(
    samples: Sequence[GlyphSample | ManifestRow], seed: int
) -> tuple[list, list]:
    """Per-class stratified halving: ceil(k/2) train, floor(k/2) test.

    Assignment comes from a seed-deterministic shuffle per class; both
    halves keep the original sample order. Classes iterate in first
    appearance order so the partition depends only on (samples, seed).
    """
    by_class: dict[str, list[int]] = {}
    for idx, sample in enumerate(samples):
        by_class.setdefault(sample.label, []).append(idx)
    if not by_class:
        raise ValueError("no samples to split")
    rng = random.Random(seed)
    train_idx: set[int] = set()
    for label, idxs in by_class.items():
        if len(idxs) < 2:
            raise ValueError(
                f"class {label!r} has only {len(idxs)} sample(s); "
                "need at least 2 to split"
            )
        rng.shuffle(idxs)
        train_idx.update(idxs[: (len(idxs) + 1) // 2])

    train = [s for i, s in enumerate(samples) if i in train_idx]
    test = [s for i, s in enumerate(samples) if i not in train_idx]
    return train, test


def synth_generate(
    templates: Mapping[str, BinaryImage], params: SynthParams, n: int = 32
) -> list[GlyphSample]:
    """Generate `params.count` perturbed samples per template class.

    Each sample applies, in order: scale jitter (factor in [1-j, 1+j]),
    random translation up to max_shift inside a padded canvas, independent
    per-pixel flips, then bounding-box crop and square resize to n. A draw
    whose flips or resize leave no ink pixel is discarded and redrawn, up
    to a bounded retry count. The sequence is fully determined by params.seed;
    classes iterate in sorted label order.
    """
    if n < 1:
        raise ValueError("n must be positive")
    for label in sorted(templates):
        if templates[label].ink_count == 0:
            raise ValueError(f"template {label!r} has no ink")

    rng = random.Random(params.seed)
    samples = []
    for label in sorted(templates):
        template = templates[label]
        for i in range(params.count):
            for _ in range(_MAX_RETRIES):
                candidate = _perturb(template, params, rng)
                if candidate.ink_count == 0:
                    continue
                squared = resize_to_square(crop_to_bbox(candidate), n)
                # a severe downscale can also drop every ink pixel
                if squared.ink_count > 0:
                    break
            else:
                raise SynthesisError(
                    f"class '{label}': no ink left after noise and the {n}x{n} "
                    f"resize in {_MAX_RETRIES} consecutive draws"
                )
            samples.append(GlyphSample(squared, label, f"synth:{label}:{i:03d}"))
    return samples


def _perturb(
    template: BinaryImage, params: SynthParams, rng: random.Random
) -> BinaryImage:
    img = template
    if params.scale_jitter > 0.0:
        factor = rng.uniform(1.0 - params.scale_jitter, 1.0 + params.scale_jitter)
        new_h = max(1, round(img.height * factor))
        new_w = max(1, round(img.width * factor))
        img = resize_nearest(img, new_h, new_w)

    pad = params.max_shift
    dy = rng.randint(-pad, pad) if pad else 0
    dx = rng.randint(-pad, pad) if pad else 0
    canvas = np.zeros((img.height + 2 * pad, img.width + 2 * pad), dtype=bool)
    top, left = pad + dy, pad + dx
    canvas[top : top + img.height, left : left + img.width] = img.pixels

    if params.flips > 0.0:
        # one draw per pixel in row-major order; seeded corpora depend on it
        draws = np.fromiter(iter(rng.random, None), float, count=canvas.size)
        canvas ^= (draws < params.flips).reshape(canvas.shape)
    return BinaryImage(canvas.shape[1], canvas.shape[0], canvas)


def write_corpus(samples: Sequence[GlyphSample], out_dir) -> Path:
    """Write samples as P2 PGM files plus a manifest.csv; returns its path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [("path", "label")]
    for idx, sample in enumerate(samples):
        name = f"{_safe_name(sample.label)}_{idx:04d}.pgm"
        image = sample.image
        if isinstance(image, BinaryImage):
            image = binary_to_gray(image)
        (out_dir / name).write_bytes(write_pgm(image))
        rows.append((name, sample.label))
    manifest = out_dir / "manifest.csv"
    manifest.write_bytes(_csv_text(rows).encode("utf-8"))
    return manifest


def _safe_name(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "-", label) or "glyph"


def builtin_templates() -> dict[str, BinaryImage]:
    """Bundled stand-in glyphs: two visually close pairs.

    'ring' vs 'ring-gap' differ by a missing arc on the right; 'cup' vs
    'cup-bar' differ by a closing top stroke. Both pairs look alike but
    have clearly distinct projection profiles. (A mirror pair would not:
    coefficient magnitudes of a reflected signal are unchanged, so exact
    mirror glyphs are indistinguishable to this feature.) Drawn close to
    the usual 32-pixel raster so resampling barely amplifies pixel noise.
    """
    size = 28
    center = (size - 1) / 2.0
    r_out = 0.48 * size
    r_in = r_out - max(2.5, 0.16 * size)

    rr, cc = np.indices((size, size))
    dist = np.hypot(rr - center, cc - center)
    ring = (r_in <= dist) & (dist <= r_out)
    in_gap = (cc > center + 0.15 * size) & (np.abs(rr - center) <= 0.18 * size)
    gap = ring & ~in_gap

    bar = max(3, round(size * 0.14))
    margin = max(2, round(size * 0.1))
    top = max(1, round(size * 0.08))
    bottom = size - top

    cup = np.zeros((size, size), dtype=bool)
    cup[top:bottom, margin : margin + bar] = True
    cup[top:bottom, size - margin - bar : size - margin] = True
    cup[bottom - bar : bottom, margin : size - margin] = True
    cup_bar = cup.copy()
    cup_bar[top : top + bar, margin : size - margin] = True

    out = {}
    for label, grid in (
        ("ring", ring),
        ("ring-gap", gap),
        ("cup", cup),
        ("cup-bar", cup_bar),
    ):
        out[label] = crop_to_bbox(BinaryImage(size, size, grid))
    return out


def builtin_registry() -> PairRegistry:
    """The confusable pairs matching builtin_templates()."""
    return PairRegistry((("ring", "ring-gap"), ("cup", "cup-bar")))

