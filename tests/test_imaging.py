import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from glyphspect.features import extract_features
from glyphspect.imaging import (
    BinaryImage,
    EmptyGlyphError,
    GrayImage,
    PgmParseError,
    binarize_otsu,
    binary_to_gray,
    crop_to_bbox,
    load_pgm,
    resize_nearest,
    resize_to_square,
    write_pgm,
)


def otsu_histogram_oracle(pixels) -> int:
    """Exact Otsu argmax over all 256 thresholds from the histogram, in Fractions.

    First maximum wins (smallest threshold on ties); a uniform image gives 0.
    """
    hist = [0] * 256
    for p in pixels:
        hist[p] += 1
    total = len(pixels)
    best_t, best_var = 0, Fraction(-1)
    for t in range(256):
        n0 = sum(hist[: t + 1])
        n1 = total - n0
        if n0 == 0 or n1 == 0:
            var = Fraction(0)
        else:
            mean0 = Fraction(sum(i * hist[i] for i in range(t + 1)), n0)
            mean1 = Fraction(sum(i * hist[i] for i in range(t + 1, 256)), n1)
            var = Fraction(n0 * n1, total * total) * (mean0 - mean1) ** 2
        if var > best_var:
            best_t, best_var = t, var
    return best_t


def otsu_mask(img: GrayImage, t: int) -> list:
    """binarize_otsu's mask at threshold t: ink <= t, and none in a uniform image."""
    px = img.pixels
    return ((px <= t) & (px.min() < px.max())).tolist()


# one-level, two-level and three-level rasters for the exact oracle; the
# closed form for one and two levels must agree with it
OTSU_EDGE_RASTERS = {
    "uniform-0": (3, 2, (0,) * 6),
    "uniform-255": (2, 3, (255,) * 6),
    "1x1": (1, 1, (7,)),
    "1x1-0": (1, 1, (0,)),
    "two-level-0-255": (3, 3, (0, 255, 255, 0, 0, 255, 255, 255, 0)),
    "two-level-0-1": (4, 2, (1, 0, 1, 1, 1, 0, 1, 1)),
    "two-level-254-255": (2, 4, (254, 255, 255, 255, 254, 254, 255, 255)),
    "lone-ink-pixel": (5, 4, (255,) * 13 + (0,) + (255,) * 6),
    "lone-paper-pixel": (5, 4, (0,) * 7 + (255,) + (0,) * 12),
    "equal-counts": (4, 2, (9, 200, 200, 9, 9, 200, 9, 200)),
    "1x2": (2, 1, (40, 41)),
    "three-level": (3, 3, (0, 128, 255, 255, 128, 0, 0, 0, 255)),
    "three-level-adjacent": (3, 2, (10, 11, 12, 12, 11, 12)),
    "three-level-one-middle": (4, 3, (0,) * 5 + (254,) + (255,) * 6),
}


class TestGrayImage:
    def test_pixel_count_must_match(self):
        with pytest.raises(ValueError):
            GrayImage(2, 2, (0, 0, 0))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GrayImage(1, 1, (256,))

    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            GrayImage(0, 1, ())

    def test_at(self):
        img = GrayImage(2, 2, (1, 2, 3, 4))
        assert int(img.pixels[1, 0]) == 3


class TestBinaryImage:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BinaryImage(1, 2, (0, 2))

    def test_ink_count(self):
        assert BinaryImage(2, 2, (1, 0, 1, 1)).ink_count == 3


# A caller's integers of another dtype are cast when all lie in [0, top];
# otherwise the error names the most extreme value: the least if negative.
@pytest.mark.parametrize(
    "cls, dtype, values, worst",
    [
        (GrayImage, np.int8, [0, -1, 127], -1),
        (GrayImage, np.int8, [-128, 5], -128),
        (GrayImage, np.int64, [0, -1, 255], -1),
        (GrayImage, np.int64, [0, 256, 255], 256),
        (GrayImage, np.int64, [300, -5, 0], -5),
        (GrayImage, np.uint16, [0, 256, 255], 256),
        (GrayImage, np.uint16, [65535, 0], 65535),
        (BinaryImage, np.int8, [0, -1, 1], -1),
        (BinaryImage, np.int8, [0, 2, 1], 2),
        (BinaryImage, np.int64, [0, -1, 1], -1),
        (BinaryImage, np.int64, [0, 2, 1], 2),
        (BinaryImage, np.int64, [3, -1, 0], -1),
        (BinaryImage, np.uint16, [0, 2, 1], 2),
    ],
)
def test_raster_rule_names_the_value_outside_the_range(cls, dtype, values, worst):
    noun, top = ("intensity", 255) if cls is GrayImage else ("binary pixel", 1)
    with pytest.raises(ValueError, match=rf"^{noun} {worst} outside \[0, {top}\]$"):
        cls(len(values), 1, np.array(values, dtype=dtype))


@pytest.mark.parametrize(
    "cls, pixels",
    [
        (GrayImage, np.array([[0, 7], [200, 255]], dtype=np.uint8)),
        (BinaryImage, np.array([[True, False], [False, True]])),
    ],
    ids=["gray-uint8", "binary-bool"],
)
def test_raster_of_its_own_dtype_is_copied_unchanged(cls, pixels):
    img = cls(2, 2, pixels)
    assert img.pixels.dtype == pixels.dtype
    assert np.array_equal(img.pixels, pixels)
    assert not np.shares_memory(img.pixels, pixels)


def test_gray_image_of_bools_holds_zero_and_one():
    img = GrayImage(3, 1, np.array([True, False, True]))
    assert img.pixels.dtype == np.uint8 and img.pixels.tolist() == [[1, 0, 1]]


def old_gray_rule(arr):
    """GrayImage's conversion before the raster types shared one rule."""
    if arr.dtype != np.uint8:
        worst = arr.min() if arr.min() < 0 else arr.max()
        if not 0 <= worst <= 255:
            raise ValueError(f"intensity {worst} outside [0, 255]")
    return arr.astype(np.uint8)


def old_binary_rule(arr):
    """BinaryImage's conversion before the raster types shared one rule."""
    if arr.dtype != bool:
        bad = arr[(arr != 0) & (arr != 1)]
        if bad.size:
            raise ValueError(f"binary pixel {bad[0]} not in {{0, 1}}")
    return arr.astype(bool)


def _raster_values(dtype):
    if dtype is bool:
        return st.booleans()
    info = np.iinfo(dtype)
    near = st.one_of(st.integers(-2, 3), st.integers(253, 258))
    near = near.filter(lambda v: info.min <= v <= info.max)
    return st.one_of(near, st.integers(int(info.min), int(info.max)))


@settings(max_examples=200)
@given(
    data=st.sampled_from([np.int8, np.int64, np.uint16, bool]).flatmap(
        lambda dtype: st.lists(_raster_values(dtype), min_size=1, max_size=6).map(
            lambda values: np.array(values, dtype=dtype)
        )
    )
)
def test_raster_types_accept_what_the_old_rules_accepted(data):
    for cls, old_rule in ((GrayImage, old_gray_rule), (BinaryImage, old_binary_rule)):
        try:
            expected = old_rule(data)
        except ValueError:
            with pytest.raises(ValueError, match="outside"):
                cls(len(data), 1, data)
            continue
        img = cls(len(data), 1, data)
        assert img.pixels.dtype == expected.dtype
        assert img.pixels.ravel().tolist() == expected.tolist()


class TestImageValueSemantics:
    def test_equal_by_shape_and_pixels(self):
        flat = GrayImage(2, 2, (1, 2, 3, 4))
        assert flat == GrayImage(2, 2, np.array([[1, 2], [3, 4]], dtype=np.uint8))
        assert hash(flat) == hash(GrayImage(2, 2, [1, 2, 3, 4]))
        assert flat != GrayImage(2, 2, (1, 2, 3, 5))
        assert flat != GrayImage(4, 1, (1, 2, 3, 4))
        assert BinaryImage(2, 1, (1, 0)) == BinaryImage(2, 1, (True, False))
        assert BinaryImage(2, 1, (1, 0)) != GrayImage(2, 1, (1, 0))

    def test_pixels_are_a_read_only_2d_array(self):
        gray = GrayImage(3, 2, (1, 2, 3, 4, 5, 6))
        mask = BinaryImage(3, 2, (1, 0, 1, 0, 1, 0))
        assert (gray.pixels.shape, gray.pixels.dtype) == ((2, 3), np.uint8)
        assert (mask.pixels.shape, mask.pixels.dtype) == ((2, 3), np.bool_)
        for img in (gray, mask):
            with pytest.raises(ValueError, match="read-only"):
                img.pixels[0, 0] = 0
            with pytest.raises(dataclasses.FrozenInstanceError):
                img.pixels = np.zeros((2, 3), dtype=img.pixels.dtype)

    def test_keeps_its_own_copy(self):
        source = np.array([[7, 8]], dtype=np.uint8)
        img = GrayImage(2, 1, source)
        source[0, 0] = 9
        assert img.pixels.tolist() == [[7, 8]]

    def test_rejects_transposed_and_non_integer_pixels(self):
        with pytest.raises(ValueError):
            GrayImage(3, 2, np.zeros((3, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match="integers"):
            GrayImage(1, 1, (0.5,))
        with pytest.raises(ValueError):
            BinaryImage(1, 1, (-1,))


class TestLoadPgm:
    def test_ascii_payload(self):
        img = load_pgm(b"P2 2 2 255\n0 255 128 64\n")
        assert (img.width, img.height) == (2, 2)
        assert img.pixels.tolist() == [[0, 255], [128, 64]]

    def test_minimal_binary(self):
        img = load_pgm(b"P5 1 1 255\n" + bytes([0]))
        assert img.pixels.tolist() == [[0]]

    def test_binary_raster(self):
        img = load_pgm(b"P5\n3 2\n255\n" + bytes([1, 2, 3, 4, 5, 6]))
        assert img.pixels.tolist() == [[1, 2, 3], [4, 5, 6]]

    def test_header_comments(self):
        data = b"P2 # format\n# a comment line\n2 1 # dims\n255\n5 6\n"
        assert load_pgm(data).pixels.tolist() == [[5, 6]]
        # a CR ends a comment in the raster as it does in the header
        assert load_pgm(b"P2 2 1 255\n5 # c\r6\n").pixels.tolist() == [[5, 6]]

    def refuses(self, data, message):
        """load_pgm raises exactly PgmParseError(message) on `data`."""
        with pytest.raises(PgmParseError) as info:
            load_pgm(data)
        assert info.type is PgmParseError and str(info.value) == message

    def test_truncated_ascii(self):
        self.refuses(b"P2 2 2 255\n0 1 2\n", "truncated pixel data: expected 4 values, found 3")

    def test_truncated_binary(self):
        self.refuses(b"P5 2 2 255\n" + bytes([0, 1, 2]),
                     "truncated pixel data: expected 4 bytes, found 3")

    def test_excess_ascii(self):
        self.refuses(b"P2 1 1 255\n0 1\n", "excess pixel data: expected 1 values, found 2")

    def test_bad_magic(self):
        self.refuses(b"P7 1 1 255\n0", "malformed magic number b'P7': expected P2 or P5")

    def test_maxval_too_large(self):
        self.refuses(b"P2 1 1 65535\n0\n", "maxval 65535 exceeds 255")

    def test_zero_width(self):
        self.refuses(b"P2 0 2 255\n", "width must be positive, got 0")
        # the first faulty field in header order is the one named
        self.refuses(b"P2 0 x 255\n", "width must be positive, got 0")

    def test_zero_height(self):
        self.refuses(b"P2 2 0 255\n", "height must be positive, got 0")

    def test_zero_maxval(self):
        self.refuses(b"P2 1 1 0\n0\n", "maxval must be positive, got 0")

    def test_non_numeric_dimension(self):
        self.refuses(b"P2 x 2 255\n0 0\n", "invalid width b'x'")

    def test_pixel_above_maxval(self):
        self.refuses(b"P2 1 1 100\n101\n", "pixel value 101 exceeds maxval 100")

    def test_write_read_round_trip(self):
        rng = random.Random(5)
        img = GrayImage(7, 3, tuple(rng.randrange(256) for _ in range(21)))
        assert load_pgm(write_pgm(img)) == img

    @pytest.mark.parametrize("token", [b"1_0", b"+5", b"-0", b"\xd9\xa3"])
    @pytest.mark.parametrize(
        "template, field",
        [
            (b"P2 {} 1 255\n0\n", "width"),
            (b"P5 1 {} 255\n\x00", "height"),
            (b"P2 1 1 {}\n0\n", "maxval"),
            (b"P2 2 1 255\n0 {}\n", "pixel value"),
        ],
    )
    def test_rejects_numbers_that_are_not_plain_digits(self, template, field, token):
        self.refuses(template.replace(b"{}", token), f"invalid {field} {token!r}")

    def test_invalid_sample_is_named(self):
        self.refuses(b"P2 3 1 255\n7 1_0 # c\n8\n", "invalid pixel value b'1_0'")

    def test_leading_zeros_and_long_samples(self):
        img = load_pgm(b"P2 01 1 0255\n00000000000000000000007\n")
        assert img.pixels.tolist() == [[7]]
        # past the interpreter's int-conversion digit limit, yet only 7
        assert int(load_pgm(b"P2 1 1 255\n" + b"0" * 5000 + b"7\n").pixels[0, 0]) == 7
        self.refuses(b"P2 1 1 255\n" + b"9" * 20 + b"\n", "pixel value exceeds maxval 255")
        self.refuses(b"P2 1 1 255\n" + b"9" * 5000 + b"\n", "pixel value exceeds maxval 255")
        self.refuses(b"P2 " + b"9" * 5000 + b" 1 255\n0\n", "width has too many digits")

    @pytest.mark.parametrize(
        "raster", [b"", b" \n\t", b"\r\x0b\x0c", b"# only a comment\n", b"#a\r #b"]
    )
    def test_blank_raster_is_truncated(self, raster):
        self.refuses(b"P2 2 2 255\n" + raster, "truncated pixel data: expected 4 values, found 0")

    def test_sample_past_int64_names_no_value(self):
        # int64 saturates past 9223372036854775807; no number may be invented
        self.refuses(b"P2 2 1 255\n7 " + b"1" * 20 + b"\n", "pixel value exceeds maxval 255")
        self.refuses(b"P2 1 1 255\n09223372036854775807\n",
                     "pixel value 9223372036854775807 exceeds maxval 255")

    def test_p5_and_p2_encodings_decode_alike(self):
        rng = random.Random(17)
        w, h = 29, 23
        px = [rng.choice((0, 0, 0, 40, 200, 255)) for _ in range(w * h)]
        p2 = load_pgm(b"P2\n%d %d\n255\n" % (w, h) + " ".join(map(str, px)).encode())
        p5 = load_pgm(b"P5\n%d %d\n255\n" % (w, h) + bytes(px))
        assert p2 == p5
        assert p5.pixels.ravel().tolist() == px
        vectors = []
        for img in (p2, p5):
            mask, _ = binarize_otsu(img)
            squared = resize_to_square(crop_to_bbox(mask), 16)
            vectors.append(extract_features(squared, 8, normalize=True).values)
        assert vectors[0] == vectors[1]


_PGM_PREFIXES = [
    b"", b"P2", b"P5", b"P2 ", b"P5\n", b"P2 2 1 ", b"P5 3 2 ",
    b"P2 1 1 255\n", b"P2 2 1 9 ", b"P5 1 1 255\n", b"P5 2 2 255 ",
]
_PGM_TOKENS = st.sampled_from([
    b"0", b"1", b"7", b"255", b"256", b"-0", b"+5", b"1_0", b"99999999999999999999",
    b"#", b"# c\n", b"\r", b"\x00", b"\xff", b"P5", b"1e3",
])


@settings(max_examples=400)
@given(
    prefix=st.sampled_from(_PGM_PREFIXES),
    body=st.one_of(
        st.binary(max_size=64), st.lists(_PGM_TOKENS, max_size=6).map(b" ".join)
    ),
)
@example(prefix=b"P2 1 1 255\n", body=b"99999999999999999999")
@example(prefix=b"P2 1 1 255\n", body=b"1" * 5000)
def test_load_pgm_raises_only_its_named_error(prefix, body):
    try:
        img = load_pgm(prefix + body)
    except PgmParseError:
        return
    assert img.pixels.shape == (img.height, img.width)


def write_pgm_oracle(img: GrayImage) -> bytes:
    """Reference P2 writer: the header lines, then each row joined by spaces."""
    lines = [b"P2", f"{img.width} {img.height}".encode(), b"255"]
    for row in img.pixels.tolist():
        lines.append(" ".join(map(str, row)).encode())
    return b"\n".join(lines) + b"\n"


@settings(max_examples=300)
@given(
    raster=st.one_of(
        st.tuples(st.integers(1, 40), st.integers(1, 40)),
        st.integers(1, 40).map(lambda w: (1, w)),
        st.integers(1, 40).map(lambda h: (h, 1)),
    ).flatmap(
        lambda shape: st.binary(min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
        .map(lambda data: np.frombuffer(data, np.uint8).reshape(shape))
    )
)
@example(raster=np.arange(256, dtype=np.uint8).reshape(16, 16))
@example(raster=np.arange(256, dtype=np.uint8).reshape(1, 256))
@example(raster=np.arange(256, dtype=np.uint8).reshape(256, 1))
def test_write_pgm_matches_per_row_join(raster):
    img = GrayImage(raster.shape[1], raster.shape[0], raster)
    data = write_pgm(img)
    assert data == write_pgm_oracle(img)
    assert load_pgm(data) == img


class TestBinarizeOtsu:
    def test_bimodal(self):
        px = (0, 0, 255, 255)
        mask, t = binarize_otsu(GrayImage(2, 2, px))
        assert mask.pixels.tolist() == [[1, 1], [0, 0]]
        assert t == otsu_histogram_oracle(px)

    def test_uniform_is_all_background(self):
        mask, t = binarize_otsu(GrayImage(2, 2, (128,) * 4))
        assert t == 0
        assert mask.pixels.tolist() == [[0, 0], [0, 0]]

    def test_ramp_matches_scan(self):
        px = tuple(i * 17 for i in range(16))
        _, t = binarize_otsu(GrayImage(4, 4, px))
        assert t == otsu_histogram_oracle(px)

    def test_random_images_match_exhaustive_scan(self):
        rng = random.Random(99)
        rasters = dict(OTSU_EDGE_RASTERS)
        for k in range(25):
            w, h = rng.randint(1, 9), rng.randint(1, 9)
            rasters[f"random-{k}"] = (w, h, tuple(rng.randrange(256) for _ in range(w * h)))
        for k in range(10):
            w, h = rng.randint(1, 9), rng.randint(1, 9)
            levels = rng.sample(range(256), 2)
            px = tuple(rng.choice(levels) for _ in range(w * h))
            rasters[f"two-random-levels-{k}"] = (w, h, px)
        for name, (w, h, px) in rasters.items():
            img = GrayImage(w, h, px)
            mask, t = binarize_otsu(img)
            assert t == otsu_histogram_oracle(px), name
            assert mask.pixels.tolist() == otsu_mask(img, t), name

    @pytest.mark.parametrize(
        "w, h, px",
        [
            *OTSU_EDGE_RASTERS.values(),
            *(
                (96, 96, tuple(random.Random(7).choices(levels, k=96 * 96)))
                for levels in [(77,), (0, 255), (0, 128, 255), tuple(range(0, 256, 5))]
            ),
        ],
        ids=[*OTSU_EDGE_RASTERS, "96-one", "96-two", "96-three", "96-many"],
    )
    def test_mask_equals_compare_at_the_cut(self, w, h, px):
        # one and two levels reuse the min/max compares for the mask; it must
        # equal `pixels <= cut` in every bit and in layout, the cut -1 when
        # the raster is uniform
        img = GrayImage(w, h, px)
        mask, t = binarize_otsu(img)
        expected = img.pixels <= (t if len(set(px)) > 1 else -1)
        assert mask.pixels.dtype == expected.dtype
        assert mask.pixels.strides == expected.strides
        assert np.array_equal(mask.pixels, expected)

    @pytest.mark.parametrize(
        "levels",
        [
            tuple(range(256)),
            (0, 255),
            (30, 31),
            (0, 128, 255),
            (10, 90, 250),
            (0,),
            (255,),
            (0, 1),
            (254, 255),
            (0, 1, 255),
            (0, 254, 255),
            pytest.param((0,) + (255,) * 9215, id="lone-ink-pixel"),
            pytest.param((0,) * 9215 + (255,), id="lone-paper-pixel"),
        ],
    )
    def test_stream_size_matches_histogram_fraction_oracle(self, levels):
        # 96x96 is past the size where (s0*n1 - s1*n0)^2 overflows int64
        rng = random.Random(len(levels) * 1000 + levels[-1])
        px = [levels[i % len(levels)] for i in range(96 * 96)]
        rng.shuffle(px)
        img = GrayImage(96, 96, px)
        mask, t = binarize_otsu(img)
        assert t == otsu_histogram_oracle(px)
        assert mask.pixels.tolist() == otsu_mask(img, t)


def random_grids():
    """200 seeded grids with some ink, of sides 1-12; in about half of them
    the ink lies inside a random window, so some borders are blank."""
    rng = random.Random(35)
    grids = []
    while len(grids) < 200:
        height, width = rng.randint(1, 12), rng.randint(1, 12)
        r0, r1, c0, c1 = 0, height, 0, width
        if rng.random() < 0.5:
            r0, c0 = rng.randrange(height), rng.randrange(width)
            r1, c1 = rng.randint(r0 + 1, height), rng.randint(c0 + 1, width)
        density = rng.choice((0.1, 0.3, 0.7))
        grid = [
            "".join(
                "1" if r0 <= r < r1 and c0 <= c < c1 and rng.random() < density
                else "0"
                for c in range(width)
            )
            for r in range(height)
        ]
        if "1" in "".join(grid):
            grids.append(grid)
    return grids


class TestCropToBbox:
    def test_single_pixel(self):
        px = [0] * 25
        px[2 * 5 + 3] = 1
        out = crop_to_bbox(BinaryImage(5, 5, tuple(px)))
        assert (out.width, out.height, out.pixels.tolist()) == (1, 1, [[1]])

    def test_already_tight_is_identity(self):
        img = BinaryImage(3, 2, (1, 0, 1, 1, 0, 1))
        assert crop_to_bbox(img) == img

    def test_known_sub_rectangle(self):
        # ink occupies rows 1-2, cols 0-2 of a 4x4 grid
        grid = [
            [0, 0, 0, 0],
            [1, 1, 0, 0],
            [0, 1, 1, 0],
            [0, 0, 0, 0],
        ]
        img = BinaryImage(4, 4, tuple(p for row in grid for p in row))
        out = crop_to_bbox(img)
        assert (out.width, out.height) == (3, 2)
        assert out.pixels.tolist() == [[1, 1, 0], [0, 1, 1]]

    @pytest.mark.parametrize(
        "grids",
        [
            [["00100", "10000", "00001", "01000"]],  # ink on every border
            [["000", "000", "010"]],
            [["0000", "0000", "0001"]],  # a corner
            [["001010"]],  # 1 x k
            [["1", "0", "1", "1", "0", "0"]],  # k x 1
            [["011", "000", "000"]],
            # ink on exactly three borders, one grid per blank side
            [["0000", "1001", "0110"]],
            [["0110", "1001", "0000"]],
            [["010", "001", "001", "010"]],
            [["010", "100", "100", "010"]],
            [["1000", "0000", "0001"]],  # only two opposite corners
            [["1"]],
            random_grids(),
        ],
        ids=["all-borders", "one-pixel", "corner", "1xk", "kx1", "top-row",
             "no-top", "no-bottom", "no-left", "no-right", "opposite-corners",
             "1x1", "seeded-random"],
    )
    def test_matches_the_nonzero_box(self, grids):
        for grid in grids:
            pixels = [[c == "1" for c in row] for row in grid]
            mask = BinaryImage(len(grid[0]), len(grid), pixels)
            out = crop_to_bbox(mask)
            rows, cols = np.nonzero(mask.pixels)
            box = mask.pixels[rows.min() : rows.max() + 1, cols.min() : cols.max() + 1]
            assert out.pixels.tolist() == box.tolist(), grid

    def test_empty_glyph(self):
        with pytest.raises(EmptyGlyphError, match="empty glyph"):
            crop_to_bbox(BinaryImage(3, 3, (0,) * 9))

    @pytest.mark.parametrize("shape", [(1, 4), (4, 1), (1, 1)], ids=["1xk", "kx1", "1x1"])
    def test_empty_thin_mask(self, shape):
        with pytest.raises(EmptyGlyphError, match="^empty glyph$"):
            crop_to_bbox(BinaryImage(shape[1], shape[0], np.zeros(shape, dtype=bool)))

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(30):
            px = tuple(int(rng.random() < 0.3) for _ in range(36))
            if not any(px):
                continue
            once = crop_to_bbox(BinaryImage(6, 6, px))
            assert crop_to_bbox(once) == once


class TestResizeToSquare:
    def test_identity_when_already_square(self):
        img = BinaryImage(3, 3, (1, 0, 1, 0, 1, 0, 1, 0, 1))
        assert resize_to_square(img, 3) is img

    def test_single_pixel_upscale(self):
        out = resize_to_square(BinaryImage(1, 1, (1,)), 4)
        assert out.pixels.tolist() == [[1] * 4] * 4

    def test_checker_upscale(self):
        out = resize_to_square(BinaryImage(2, 2, (1, 0, 0, 1)), 4)
        assert out.pixels.tolist() == [
            [1, 1, 0, 0],
            [1, 1, 0, 0],
            [0, 0, 1, 1],
            [0, 0, 1, 1],
        ]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            resize_to_square(BinaryImage(1, 1, (1,)), 0)

    def test_index_mapping_oracle(self):
        rng = random.Random(21)
        for _ in range(10):
            w = rng.randint(1, 7)
            h = rng.randint(1, 7)
            n = rng.randint(1, 12)
            img = BinaryImage(
                w, h, tuple(int(rng.random() < 0.5) for _ in range(w * h))
            )
            out = resize_to_square(img, n)
            for r in range(n):
                for c in range(n):
                    assert int(out.pixels[r, c]) == int(img.pixels[r * h // n, c * w // n])


class TestOneGlyphChain:
    @pytest.mark.parametrize("size", [32, 96])
    @pytest.mark.parametrize("n", [20, 32, 40])
    def test_raster_kinds_match_the_oracles(self, size, n):
        # two-level, multi-level and uniform rasters: binarize_otsu's closed
        # form and its histogram scan, then crop_to_bbox and resize_to_square,
        # each checked against a rule written out from scratch
        rng = np.random.default_rng(size + n)

        def blob(lo, hi):
            raster = np.full((size, size), hi, dtype=np.uint8)
            top, left = rng.integers(0, size // 2, 2)
            height, width = rng.integers(2, size // 2, 2)
            raster[top : top + height, left : left + width] = lo
            return raster

        def blurred(raster):  # 3x3 box blur: several gray levels along each edge
            padded = np.pad(raster.astype(np.int64), 1, mode="edge")
            total = sum(padded[i : i + size, j : j + size] for i in range(3) for j in range(3))
            return (total // 9).astype(np.uint8)

        lone = np.full((size, size), 255, dtype=np.uint8)
        lone[size - 1, 3] = 0
        three = blob(0, 255)
        three[0, 0] = 128
        noise = rng.integers(0, 256, (size, size), dtype=np.uint8)
        kinds = [blob(0, 255), blurred(blob(0, 255)), blob(0, 1), three]
        kinds += [blob(254, 255), lone, noise, blurred(blob(30, 200))]
        for raster in kinds:
            gray = GrayImage(size, size, raster)
            mask, t = binarize_otsu(gray)
            assert t == otsu_histogram_oracle(raster.ravel().tolist())
            assert mask.pixels.tolist() == otsu_mask(gray, t)
            rows, cols = np.nonzero(mask.pixels)
            top, left = int(rows.min()), int(cols.min())
            height, width = int(rows.max()) + 1 - top, int(cols.max()) + 1 - left
            want = [
                [bool(mask.pixels[top + r * height // n, left + c * width // n]) for c in range(n)]
                for r in range(n)
            ]
            assert resize_to_square(crop_to_bbox(mask), n).pixels.tolist() == want
        for level in (0, 255, 77):
            uniform = GrayImage(size, size, np.full((size, size), level, dtype=np.uint8))
            with pytest.raises(EmptyGlyphError, match="^empty glyph$"):
                crop_to_bbox(binarize_otsu(uniform)[0])


class TestHandedOverImages:
    """The one-glyph functions hand their own arrays to the image types
    without the public constructor's checks and copy."""

    P5 = b"P5\n4 3\n255\n" + bytes(
        [255, 255, 255, 255, 255, 0, 0, 255, 255, 0, 60, 255]
    )

    @pytest.mark.parametrize("data", [P5, write_pgm(load_pgm(P5))], ids=["P5", "P2"])
    def test_read_only_and_equal_to_public_construction(self, data):
        gray = load_pgm(data)
        mask, _ = binarize_otsu(gray)
        cropped = crop_to_bbox(mask)
        images = [gray, mask, cropped, resize_to_square(cropped, 5),
                  resize_nearest(mask, 2, 7), binary_to_gray(cropped)]
        for img in images:
            assert img.pixels.shape == (img.height, img.width)
            assert not img.pixels.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                img.pixels[0, 0] = 0
            rebuilt = type(img)(img.width, img.height, img.pixels.tolist())
            assert img == rebuilt and hash(img) == hash(rebuilt)
            assert img.pixels.dtype == rebuilt.pixels.dtype
        assert cropped.pixels.tolist() == [[1, 1], [1, 1]]

    @pytest.mark.parametrize("data", [P5, write_pgm(load_pgm(P5))], ids=["P5", "P2"])
    def test_load_pgm_keeps_no_view_of_a_bytearray(self, data):
        buffer = bytearray(data)
        img = load_pgm(buffer)
        before = img.pixels.tolist()
        buffer[-2:] = b"00"
        assert img.pixels.tolist() == before

    def test_p5_sample_above_a_lower_maxval_still_fails(self):
        with pytest.raises(PgmParseError, match="pixel value 201 exceeds maxval 200"):
            load_pgm(b"P5\n2 1\n200\n" + bytes([200, 201]))
        assert load_pgm(b"P5\n2 1\n200\n" + bytes([200, 0])).pixels.tolist() == [
            [200, 0]
        ]


def test_binary_to_gray_round_trip():
    img = BinaryImage(2, 2, (1, 0, 0, 1))
    gray = binary_to_gray(img)
    assert gray.pixels.tolist() == [[0, 255], [255, 0]]
    mask, t = binarize_otsu(gray)
    assert mask == img


_SEPARATORS = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"\r\n"])
# A raster comment runs to CR or LF; its end byte stays as a separator.
_RASTER_COMMENTS = st.builds(
    lambda text, end: b"#" + text + end,
    st.binary(max_size=8).map(lambda b: b.replace(b"\r", b"").replace(b"\n", b"")),
    st.sampled_from([b"\n", b"\r"]),
)
_GAPS = st.lists(st.one_of(_SEPARATORS, _RASTER_COMMENTS), min_size=1, max_size=3).map(
    b"".join
)


@st.composite
def p2_files(draw):
    """A valid P2 file and its samples, each sample as its decimal token."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    maxval = draw(st.integers(1, 255))
    tokens = [
        b"0" * draw(st.integers(0, 3)) + b"%d" % draw(st.integers(0, maxval))
        for _ in range(width * height)
    ]
    data = b"P2\n%d %d\n%d" % (width, height, maxval)
    for tok in tokens:
        data += draw(_GAPS) + tok
    data += draw(st.one_of(st.just(b""), _GAPS))
    return data, width, tokens


@settings(max_examples=150)
@given(p2_files())
def test_load_pgm_p2_matches_int_parse(case):
    data, width, tokens = case
    expected = [int(tok) for tok in tokens]
    rows = [expected[i : i + width] for i in range(0, len(expected), width)]
    assert load_pgm(data).pixels.tolist() == rows
