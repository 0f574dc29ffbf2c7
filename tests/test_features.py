import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glyphspect import cli, features
from glyphspect.dataset import GlyphSample
from glyphspect.imaging import (
    BinaryImage,
    GrayImage,
    binarize_otsu,
    crop_to_bbox,
    resize_to_square,
)
from glyphspect.svm import ModelMeta
from glyphspect.features import (
    FeatureVector,
    ProjectionPair,
    Spectrum,
    dft,
    extract_features,
    feature_rows,
    project,
    truncate_spectrum,
)


def spectra_close(a, b, tol=1e-9):
    scale = max(1.0, max(abs(c) for c in b))
    return all(abs(x - y) <= tol * scale for x, y in zip(a, b))


class TestProject:
    def test_all_ink(self):
        pair = project(BinaryImage(3, 3, (1,) * 9))
        assert pair.h.tolist() == [3, 3, 3]
        assert pair.v.tolist() == [3, 3, 3]

    def test_hand_counted_mask(self):
        rows = [(1, 1, 0), (0, 1, 0), (0, 1, 1)]
        img = BinaryImage(3, 3, tuple(p for row in rows for p in row))
        pair = project(img)
        assert pair.h.tolist() == [2, 1, 2]
        assert pair.v.tolist() == [1, 3, 1]

    def test_all_background(self):
        pair = project(BinaryImage(4, 4, (0,) * 16))
        assert pair.h.tolist() == [0, 0, 0, 0]
        assert pair.v.tolist() == [0, 0, 0, 0]

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            project(BinaryImage(2, 3, (0,) * 6))

    def test_conservation_random(self):
        rng = random.Random(8)
        for _ in range(50):
            n = rng.randint(1, 16)
            px = tuple(int(rng.random() < 0.4) for _ in range(n * n))
            pair = project(BinaryImage(n, n, px))
            assert sum(pair.h) == sum(pair.v) == sum(px)

    def test_projection_and_spectrum_arrays_are_read_only(self):
        pair = project(BinaryImage(2, 2, (1, 0, 1, 1)))
        spec = dft(pair.h)
        for arr in (pair.h, pair.v, spec.coeffs):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


class TestProjectionPairInvariants:
    def test_rejects_mismatched_sums(self):
        with pytest.raises(ValueError, match="same ink"):
            ProjectionPair((1, 0), (0, 0))

    def test_rejects_out_of_range_counts(self):
        with pytest.raises(ValueError):
            ProjectionPair((3, 0), (2, 1))

    @pytest.mark.parametrize("h, v", [((1,), (1, 0)), ((1, 0), (1, 0, 0))])
    def test_rejects_projections_of_two_lengths(self, h, v):
        with pytest.raises(ValueError, match="of one length"):
            ProjectionPair(h, v)


def test_spectrum_rejects_no_coefficients():
    with pytest.raises(ValueError, match="at least one coefficient"):
        Spectrum(())


class TestDft:
    def test_constant_signal(self):
        spec = dft([1, 1, 1, 1])
        assert spectra_close(spec.coeffs, [4, 0, 0, 0], 1e-12)

    def test_impulse(self):
        spec = dft([1, 0, 0, 0])
        assert spectra_close(spec.coeffs, [1, 1, 1, 1], 1e-12)

    def test_pure_tone(self):
        spec = dft([0, 1, 0, -1])
        assert spectra_close(spec.coeffs, [0, -2j, 0, 2j], 1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            dft([])

    def test_linearity(self):
        rng = random.Random(19)
        for _ in range(20):
            n = rng.randint(1, 24)
            x = [rng.uniform(-3, 3) for _ in range(n)]
            y = [rng.uniform(-3, 3) for _ in range(n)]
            a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
            combo = dft([a * xi + b * yi for xi, yi in zip(x, y)]).coeffs
            parts = [
                a * cx + b * cy for cx, cy in zip(dft(x).coeffs, dft(y).coeffs)
            ]
            assert spectra_close(combo, parts)

    def test_dc_equals_sum(self):
        rng = random.Random(20)
        for _ in range(20):
            sig = [rng.randint(0, 9) for _ in range(rng.randint(1, 16))]
            assert dft(sig).coeffs[0] == complex(sum(sig))

    def test_conjugate_symmetry(self):
        rng = random.Random(22)
        sig = [rng.uniform(-1, 1) for _ in range(16)]
        coeffs = dft(sig).coeffs
        for k in range(1, 16):
            assert abs(coeffs[k] - coeffs[16 - k].conjugate()) <= 1e-9

    def test_matches_numpy_fft(self):
        rng = np.random.default_rng(23)
        for n in range(1, 129):
            sig = rng.uniform(-5, 5, size=n)
            got, want = dft(sig).coeffs, np.fft.fft(sig)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_same_bits_from_any_container(self):
        ints = np.random.default_rng(24).integers(0, 40, size=40)
        strided = np.zeros(80)[::2]  # a non-contiguous float view
        strided[:] = ints
        spectra = [dft(sig).coeffs for sig in (ints.tolist(), ints, strided)]
        assert all(s.tobytes() == spectra[0].tobytes() for s in spectra)

    def test_cached_matrix_is_read_only(self):
        dft([1.0, 2.0, 3.0])
        basis = features._basis(3)
        assert basis.shape == (3, 6) and not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0] = 2.0

    def test_quarter_turns_are_exact(self):
        even_k = features._basis(8).reshape(8, 8, 2)[:, ::2]  # 2*pi*k*t/8 at k = 0, 2, 4, 6
        assert set(even_k.ravel().tolist()) == {-1.0, 0.0, 1.0}
        assert dft([0, 1, 0, -1]).coeffs.tolist() == [0j, -2j, 0j, 2j]


class TestTruncateSpectrum:
    def test_constant_signal(self):
        assert truncate_spectrum(dft([1, 1, 1, 1]), 2) == (4.0, 0.0)

    def test_tone_magnitude(self):
        out = truncate_spectrum(dft([0, 1, 0, -1]), 2)
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(2.0, abs=1e-12)

    def test_full_length_keeps_order(self):
        sig = [3, 1, 4, 1, 5]
        spec = dft(sig)
        assert truncate_spectrum(spec, 5) == tuple(abs(c) for c in spec.coeffs)

    def test_rejects_zero_and_overlong(self):
        spec = dft([1, 2, 3])
        with pytest.raises(ValueError):
            truncate_spectrum(spec, 0)
        with pytest.raises(ValueError):
            truncate_spectrum(spec, 4)


class TestExtractFeatures:
    def test_all_ink_4x4(self):
        fv = extract_features(BinaryImage(4, 4, (1,) * 16), 2)
        assert fv.values == pytest.approx((16.0, 0.0, 16.0, 0.0), abs=1e-12)

    def test_all_background(self):
        fv = extract_features(BinaryImage(4, 4, (0,) * 16), 3)
        assert fv.values == (0.0,) * 6

    def test_dc_entries_equal_ink_count(self):
        rng = random.Random(30)
        n = 8
        px = tuple(int(rng.random() < 0.5) for _ in range(n * n))
        fv = extract_features(BinaryImage(n, n, px), n)
        ink = sum(px)
        assert fv.values[0] == pytest.approx(ink, abs=1e-9)
        assert fv.values[n] == pytest.approx(ink, abs=1e-9)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square image, got 3x2$"):
            extract_features(BinaryImage(3, 2, (0,) * 6), 1)

    def test_m_must_not_exceed_n(self):
        with pytest.raises(ValueError):
            extract_features(BinaryImage(2, 2, (1, 0, 0, 1)), 3)

    def test_normalize_flag(self):
        img = BinaryImage(4, 4, (1, 0) * 8)
        fv = extract_features(img, 2, normalize=True)
        assert math.hypot(*fv.values) == pytest.approx(
            math.sqrt(sum(v * v for v in fv.values)), abs=1e-12
        )
        assert sum(v * v for v in fv.values) == pytest.approx(1.0, abs=1e-12)

    def test_normalize_keeps_zero_vector(self):
        fv = extract_features(BinaryImage(2, 2, (0,) * 4), 2, normalize=True)
        assert fv.values == (0.0,) * 4

    @pytest.mark.parametrize("normalize", [False, True])
    def test_equals_public_construction(self, normalize):
        img = BinaryImage(4, 4, (1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 0, 1))
        fv = extract_features(img, 3, normalize)
        assert all(type(v) is float and v >= 0 for v in fv.values)
        rebuilt = FeatureVector(fv.values)
        assert fv == rebuilt and hash(fv) == hash(rebuilt)

    def test_deterministic(self):
        img = BinaryImage(4, 4, (1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 0, 1))
        assert extract_features(img, 3) == extract_features(img, 3)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_equals_per_axis_spectra_bit_for_bit(self, normalize):
        rng = random.Random(32)
        for _ in range(200):
            n = rng.randint(1, 40)
            density = rng.random()
            px = tuple(int(rng.random() < density) for _ in range(n * n))
            img = BinaryImage(n, n, px)
            m = rng.randint(1, n)
            pair = project(img)
            ref = truncate_spectrum(dft(pair.h), m) + truncate_spectrum(dft(pair.v), m)
            if normalize:
                norm = math.sqrt(sum(v * v for v in ref))
                if norm > 0.0:
                    ref = tuple(v / norm for v in ref)
            got = extract_features(img, m, normalize).values
            assert [v.hex() for v in got] == [v.hex() for v in ref]


    @pytest.mark.parametrize("normalize", [False, True])
    def test_stack_of_96x96_glyphs_equals_one_glyph_calls(self, normalize):
        rng = np.random.default_rng(33)
        masks = rng.random((12, 96, 96)) < rng.uniform(0.05, 0.6, size=(12, 1, 1))
        masks[0] = False  # an inkless glyph keeps its zeros
        rows = feature_rows(masks, 48, normalize)
        for mask, row in zip(masks, rows.tolist()):
            want = extract_features(BinaryImage(96, 96, mask), 48, normalize).values
            assert [v.hex() for v in row] == [v.hex() for v in want]
        # any leading axes: a (3, 4) grid of the same glyphs, the same bits
        grid = feature_rows(masks.reshape(3, 4, 96, 96), 48, normalize)
        assert grid.tobytes() == rows.tobytes() and grid.shape == (3, 4, 96)
        assert feature_rows(masks[:0], 48, normalize).shape == (0, 96)


@pytest.mark.parametrize("m", [True, 2.0], ids=["bool", "float"])
@pytest.mark.parametrize(
    "call",
    [
        lambda m: truncate_spectrum(dft([1, 2, 3]), m),
        lambda m: feature_rows(np.ones((3, 3), bool), m),
        lambda m: extract_features(BinaryImage(2, 2, (1, 0, 1, 1)), m),
    ],
    ids=["truncate_spectrum", "feature_rows", "extract_features"],
)
def test_m_must_be_an_integer(call, m):
    """ModelMeta's rule for a count: 1 is not True, and 2.0 is not 2."""
    with pytest.raises(TypeError, match="^m must be an integer$"):
        call(m)


class TestFeatureVectorInvariants:
    def test_length_must_be_2m(self):
        with pytest.raises(ValueError):
            FeatureVector((1.0, 2.0, 3.0))

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            FeatureVector((1.0, -0.5))

    def test_m_must_be_positive(self):
        with pytest.raises(ValueError, match="m >= 1, got 0"):
            FeatureVector(())


@st.composite
def gray_manifests(draw):
    """Gray rasters of mixed shapes, 1xN and Nx1 among them, more than one
    featurize block of them; each holds at least 3 intensity levels."""
    shapes = [(1, draw(st.integers(3, 12))), (draw(st.integers(3, 12)), 1)]
    shapes += draw(st.lists(st.tuples(st.integers(2, 12), st.integers(2, 12)), max_size=3))
    levels = draw(st.lists(st.integers(0, 255), min_size=3, max_size=6, unique=True))
    order = draw(st.permutations(range(len(shapes))))
    counts = [1 + draw(st.integers(0, 4)) for _ in shapes]
    counts[order[0]] += cli._BLOCK  # one shape fills more than a block
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = []
    for k in rng.permutation(np.repeat(np.arange(len(shapes)), counts)):
        height, width = shapes[k]
        pixels = rng.choice(levels, size=height * width)
        pixels[:3] = levels[:3]
        rng.shuffle(pixels)
        label = "abc"[len(samples) % 3]
        gray = GrayImage(width, height, pixels)
        samples.append(GlyphSample(gray, label, f"g{len(samples)}.pgm"))
    return samples


@settings(max_examples=20)
@given(gray_manifests(), st.integers(1, 12), st.data(), st.booleans())
def test_batch_featurize_equals_per_glyph_bit_for_bit(samples, n, data, normalize):
    m = data.draw(st.integers(1, n))
    meta = ModelMeta(n=n, m=m, seed=0, normalize=normalize)
    vectors, labels = cli._featurize_samples(samples, meta)
    expected = []
    for sample in samples:
        square = resize_to_square(crop_to_bbox(binarize_otsu(sample.image)[0]), n)
        expected.append(extract_features(square, m, normalize).values)
    assert labels == [s.label for s in samples]
    assert [[v.hex() for v in row] for row in vectors.tolist()] == [
        [v.hex() for v in row] for row in expected
    ]


def test_batch_featurize_names_the_first_blank_past_the_first_block():
    # uniform rasters in the second and third blocks: the earlier is named
    rng = np.random.default_rng(5)
    blanks = (cli._BLOCK + 1, 2 * cli._BLOCK + 1)
    samples = []
    for i in range(2 * cli._BLOCK + 3):
        pixels = np.full((6, 6), 90, dtype=np.uint8)
        if i not in blanks:
            pixels = rng.integers(0, 256, (6, 6), dtype=np.uint8)
            pixels[0, :2] = (0, 255)
        samples.append(GlyphSample(GrayImage(6, 6, pixels), "a", f"g{i}.pgm"))
    meta = ModelMeta(n=4, m=2, seed=0, normalize=False)
    with pytest.raises(ValueError, match=rf"^'g{blanks[0]}\.pgm': empty glyph$"):
        cli._featurize_samples(samples, meta)
    vectors, _ = cli._featurize_samples(samples[: blanks[0]], meta)
    assert vectors.shape == (blanks[0], 4)


def test_batch_featurize_of_no_samples():
    vectors, labels = cli._featurize_samples([], ModelMeta(n=3, m=2, seed=0, normalize=True))
    assert vectors.shape == (0, 4) and labels == []
