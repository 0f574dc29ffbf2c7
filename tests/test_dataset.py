import hashlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from glyphspect.imaging import BinaryImage, binarize_otsu, crop_to_bbox, load_pgm, resize_to_square
from glyphspect import dataset
from glyphspect.dataset import (
    GlyphSample,
    ManifestError,
    ManifestRow,
    PairRegistry,
    RegistryError,
    SynthParams,
    SynthesisError,
    builtin_registry,
    builtin_templates,
    load_manifest,
    load_registry,
    read_manifest,
    split_even,
    synth_generate,
    write_corpus,
    write_registry,
)


def make_samples(counts):
    """counts: mapping label -> number of samples."""
    img = BinaryImage(2, 2, (1, 0, 0, 1))
    out = []
    for label, k in counts.items():
        for i in range(k):
            out.append(GlyphSample(img, label, f"{label}:{i}"))
    return out


def test_glyph_sample_needs_a_label():
    with pytest.raises(ValueError, match="sample label must be non-empty"):
        GlyphSample(BinaryImage(1, 1, (1,)), "", "x")


class TestManifest:
    def write_pgm_file(self, path, value=0):
        path.write_bytes(f"P2 1 1 255\n{value}\n".encode())

    def test_rows_load_in_order(self, tmp_path):
        for name in ("x.pgm", "y.pgm", "z.pgm"):
            self.write_pgm_file(tmp_path / name)
        (tmp_path / "m.csv").write_text(
            "path,label\nx.pgm,alpha\ny.pgm,beta\nz.pgm,alpha\n"
        )
        samples = load_manifest(tmp_path / "m.csv")
        assert [s.source_id for s in samples] == ["x.pgm", "y.pgm", "z.pgm"]
        assert [s.label for s in samples] == ["alpha", "beta", "alpha"]

    def test_missing_image_names_row(self, tmp_path):
        self.write_pgm_file(tmp_path / "x.pgm")
        (tmp_path / "m.csv").write_text("path,label\nx.pgm,a\nnope.pgm,b\n")
        with pytest.raises(ManifestError, match="row 3"):
            load_manifest(tmp_path / "m.csv")

    def test_malformed_row(self, tmp_path):
        (tmp_path / "m.csv").write_text("path,label\njust-one-field\n")
        with pytest.raises(ManifestError, match="row 2"):
            load_manifest(tmp_path / "m.csv")

    def test_empty_manifest(self, tmp_path):
        (tmp_path / "m.csv").write_text("path,label\n")
        with pytest.raises(ManifestError, match="empty"):
            load_manifest(tmp_path / "m.csv")

    def test_missing_header(self, tmp_path):
        self.write_pgm_file(tmp_path / "x.pgm")
        (tmp_path / "m.csv").write_text("x.pgm,a\n")
        with pytest.raises(ManifestError, match="header"):
            load_manifest(tmp_path / "m.csv")

    def test_duplicate_rows_accepted(self, tmp_path):
        self.write_pgm_file(tmp_path / "x.pgm")
        (tmp_path / "m.csv").write_text("path,label\nx.pgm,a\nx.pgm,a\n")
        assert len(load_manifest(tmp_path / "m.csv")) == 2

    def test_missing_manifest_file(self, tmp_path):
        with pytest.raises(ManifestError, match="not found"):
            load_manifest(tmp_path / "none.csv")

    def test_bad_image_reported_with_row(self, tmp_path):
        (tmp_path / "x.pgm").write_bytes(b"P9 broken")
        (tmp_path / "m.csv").write_text("path,label\nx.pgm,a\n")
        with pytest.raises(ManifestError, match="row 2"):
            load_manifest(tmp_path / "m.csv")

    def test_read_manifest_checks_rows_and_decodes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataset, "load_pgm", None)  # any decode would fail
        (tmp_path / "m.csv").write_text("path,label\n x.pgm ,a b\nno/such.pgm,c\n")
        assert read_manifest(tmp_path / "m.csv") == [
            ManifestRow(2, "x.pgm", "a b"), ManifestRow(3, "no/such.pgm", "c")
        ]
        (tmp_path / "m.csv").write_text("path,label\nx.pgm,a\nx.pgm\n")
        with pytest.raises(ManifestError, match="row 3: expected 'path,label'"):
            read_manifest(tmp_path / "m.csv")

    def test_load_manifest_without_rows_decodes_every_read_manifest_row(self, tmp_path):
        params = SynthParams(flips=0.05, max_shift=1, count=3, seed=8)
        manifest = write_corpus(synth_generate(builtin_templates(), params, 16), tmp_path)
        rows = read_manifest(manifest)
        expected = [
            GlyphSample(load_pgm((tmp_path / rel).read_bytes()), label, rel)
            for _, rel, label in rows
        ]
        assert load_manifest(manifest) == expected
        assert load_manifest(manifest, rows) == expected

    def test_load_manifest_decodes_only_the_given_rows_in_order(self, tmp_path):
        for name, value in (("x.pgm", 1), ("z.pgm", 3)):
            self.write_pgm_file(tmp_path / name, value)
        (tmp_path / "m.csv").write_text("path,label\nx.pgm,a\nmissing.pgm,b\nz.pgm,c\n")
        rows = read_manifest(tmp_path / "m.csv")
        samples = load_manifest(tmp_path / "m.csv", [rows[2], rows[0]])
        assert [(s.source_id, s.image.pixels.item()) for s in samples] == [
            ("z.pgm", 3), ("x.pgm", 1)
        ]
        assert load_manifest(tmp_path / "m.csv", []) == []
        with pytest.raises(ManifestError, match="^manifest row 3: 'missing.pgm'"):
            load_manifest(tmp_path / "m.csv", rows[1:])

    def test_split_even_splits_rows_as_it_splits_samples(self, tmp_path):
        params = SynthParams(count=5, seed=3)
        manifest = write_corpus(synth_generate(builtin_templates(), params, 8), tmp_path)
        for seed in (0, 42):
            by_rows = split_even(read_manifest(manifest), seed)
            by_samples = split_even(load_manifest(manifest), seed)
            for rows, samples in zip(by_rows, by_samples):
                assert [r.source_id for r in rows] == [s.source_id for s in samples]


class TestRegistry:
    def test_load(self, tmp_path):
        (tmp_path / "r.csv").write_text(
            "correct_class,error_class\nring,ring-gap\ncup,cup-bar\n"
        )
        reg = load_registry(tmp_path / "r.csv")
        assert reg.pairs == (("ring", "ring-gap"), ("cup", "cup-bar"))
        assert reg.classes == ("ring", "ring-gap", "cup", "cup-bar")

    def test_duplicate_unordered_pair_rejected(self, tmp_path):
        (tmp_path / "r.csv").write_text(
            "correct_class,error_class\na,b\nb,a\n"
        )
        with pytest.raises(RegistryError, match="duplicate"):
            load_registry(tmp_path / "r.csv")

    def test_self_pair_rejected(self, tmp_path):
        (tmp_path / "r.csv").write_text("correct_class,error_class\na,a\n")
        with pytest.raises(RegistryError, match="differ"):
            load_registry(tmp_path / "r.csv")

    def test_write_read_round_trip(self, tmp_path):
        for pairs in ((("a", "b"), ("c", "d")), (("a\rb", "c"), ("d", 'e,"f'))):
            reg = PairRegistry(pairs)
            write_registry(reg, tmp_path / "r.csv")
            assert load_registry(tmp_path / "r.csv") == reg


_HEADERS = {
    load_manifest: b"path,label\n", load_registry: b"correct_class,error_class\n"
}
_ERRORS = {load_manifest: ManifestError, load_registry: RegistryError}


@pytest.mark.parametrize("load", [load_manifest, load_registry])
@pytest.mark.parametrize(
    "body, match",
    [(b"a,\xff\n", "utf-8"), (b"a" * 131073 + b",b\n", "field limit")],
    ids=["not-utf8", "oversized-cell"],
)
def test_csv_loaders_name_decode_and_csv_errors(tmp_path, load, body, match):
    path = tmp_path / "f.csv"
    path.write_bytes(_HEADERS[load] + body)
    with pytest.raises(_ERRORS[load], match=match):
        load(path)


@pytest.mark.parametrize("load", [load_manifest, load_registry])
def test_csv_loaders_ignore_a_leading_byte_order_mark(tmp_path, load):
    # Excel's "CSV UTF-8" and Windows Notepad start the file with one
    (tmp_path / "x.pgm").write_bytes(b"P2 1 1 255\n0\n")
    body = _HEADERS[load] + (b"x.pgm,a\n" if load is load_manifest else b"a,b\n")
    (tmp_path / "plain.csv").write_bytes(body)
    (tmp_path / "marked.csv").write_bytes(b"\xef\xbb\xbf" + body)
    assert load(tmp_path / "marked.csv") == load(tmp_path / "plain.csv")


def test_manifest_overlong_image_path_is_manifest_error(tmp_path):
    (tmp_path / "m.csv").write_text("path,label\n" + "a" * 300 + ",b\n")
    with pytest.raises(ManifestError, match="row 2"):
        load_manifest(tmp_path / "m.csv")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "x.pgm").write_bytes(b"P2 1 1 255\n0\n")
    return root


_CSV_TOKENS = st.sampled_from([
    b"x.pgm", b"a", b"b", b",", b"\n", b"\r", b'"', b" ", b"\x00", b"\xff", b"\xc3",
    b"a" * 300,
])


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    prefix=st.sampled_from([b""] + list(_HEADERS.values())),
    body=st.one_of(
        st.binary(max_size=64), st.lists(_CSV_TOKENS, max_size=8).map(b"".join)
    ),
)
@example(prefix=b"path,label\n", body=b"a" * 131073)
def test_csv_loaders_raise_only_their_named_errors(fuzz_dir, prefix, body):
    path = fuzz_dir / "fuzz.csv"
    path.write_bytes(prefix + body)
    for load, error in _ERRORS.items():
        try:
            load(path)
        except error:
            pass


class TestSplitEven:
    def test_even_split(self):
        train, test = split_even(make_samples({"a": 24, "b": 24}), 1)
        for label in ("a", "b"):
            assert sum(s.label == label for s in train) == 12
            assert sum(s.label == label for s in test) == 12

    def test_odd_count_favors_train(self):
        train, test = split_even(make_samples({"a": 5, "b": 2}), 1)
        assert sum(s.label == "a" for s in train) == 3
        assert sum(s.label == "a" for s in test) == 2

    def test_determinism_and_seed_sensitivity(self):
        samples = make_samples({"a": 10, "b": 8})
        a1 = split_even(samples, 7)
        a2 = split_even(samples, 7)
        assert [s.source_id for s in a1[0]] == [s.source_id for s in a2[0]]
        b = split_even(samples, 8)
        assert sum(s.label == "a" for s in b[0]) == 5

    def test_partition_laws_across_seeds(self):
        samples = make_samples({"a": 7, "b": 4, "c": 9})
        ids = [s.source_id for s in samples]
        for seed in range(100):
            train, test = split_even(samples, seed)
            got = sorted(s.source_id for s in train + test)
            assert got == sorted(ids)
            assert not (
                {s.source_id for s in train} & {s.source_id for s in test}
            )
            assert sum(s.label == "a" for s in train) == 4
            assert sum(s.label == "b" for s in train) == 2
            assert sum(s.label == "c" for s in train) == 5

    def test_partition_is_pinned(self):
        # a model file keeps only its split seed and evaluate draws the test
        # half again, so a changed draw order would score training glyphs
        samples = make_samples({"a": 7, "b": 4, "c": 9})
        expected = {
            0: "a:0 a:1 a:2 a:4 b:0 b:2 c:0 c:2 c:6 c:7 c:8",
            7: "a:0 a:4 a:5 a:6 b:0 b:1 c:1 c:2 c:4 c:5 c:7",
            42: "a:1 a:2 a:3 a:4 b:0 b:3 c:0 c:2 c:5 c:6 c:7",
        }
        for seed, ids in expected.items():
            train, _ = split_even(samples, seed)
            assert [s.source_id for s in train] == ids.split()

    def test_no_samples(self):
        with pytest.raises(ValueError, match="no samples to split"):
            split_even([], 0)

    def test_small_class_names_the_class(self):
        with pytest.raises(ValueError, match="'b'"):
            split_even(make_samples({"a": 4, "b": 1}), 0)

    def test_small_class_message_is_one_line(self):
        with pytest.raises(ValueError) as info:
            split_even(make_samples({"a": 4, "b\nc": 1}), 0)
        assert str(info.value).startswith("class 'b\\nc' has only 1 sample(s)")
        assert "\n" not in str(info.value)


# sha256 over manifest.csv and then each glyph file, in manifest order, of
# write_corpus(synth_generate(builtin_templates(), params, n)), recorded
# from a per-row P2 writer and one rng.random() call per pixel in a Python
# loop. A change to the draw order or to a written byte changes them.
_GOLDEN_CORPORA = [
    (SynthParams(count=3, seed=42), 32,
     "ec50f0cfc9d49caf0d03fe646db475dc9028cd57f5624986675d94718e82831d"),
    (SynthParams(count=3, seed=42, flips=0.02, max_shift=2), 32,  # synth's defaults
     "1c63fec632519e72522437b158dc5336f7bee9955044e4e26477a055e05ba836"),
    (SynthParams(count=2, seed=11, flips=0.1, scale_jitter=0.3, max_shift=3), 96,
     "d76d13081b12fc02fc0896fb85a4809e41b06bec69ab33e9fc58717e93cd7ab7"),
]


@pytest.mark.parametrize(
    "params, n, digest", _GOLDEN_CORPORA, ids=["clean-32", "synth-defaults-32", "noisy-96"]
)
def test_synthesized_corpus_bytes_are_stable(tmp_path, params, n, digest):
    manifest = write_corpus(synth_generate(builtin_templates(), params, n), tmp_path)
    h = hashlib.sha256(manifest.read_bytes())
    for row in manifest.read_text().splitlines()[1:]:
        h.update((tmp_path / row.split(",")[0]).read_bytes())
    assert h.hexdigest() == digest


class TestSynthGenerate:
    def test_identity_perturbation(self):
        templates = builtin_templates()
        params = SynthParams(flips=0.0, max_shift=0, scale_jitter=0.0, count=3, seed=1)
        samples = synth_generate(templates, params, 32)
        for s in samples:
            expected = resize_to_square(crop_to_bbox(templates[s.label]), 32)
            assert s.image == expected

    def test_count_per_class(self):
        templates = builtin_templates()
        params = SynthParams(count=10, seed=0)
        samples = synth_generate(templates, params, 16)
        assert len(samples) == 40
        for label in templates:
            assert sum(s.label == label for s in samples) == 10

    def test_deterministic(self):
        templates = builtin_templates()
        params = SynthParams(flips=0.05, max_shift=2, scale_jitter=0.1, count=5, seed=9)
        a = synth_generate(templates, params, 24)
        b = synth_generate(templates, params, 24)
        assert a == b

    def test_flip_rate_matches_binomial_mean(self):
        # Border ring keeps the bounding box pinned, so the output raster is
        # exactly the template XOR the flip mask.
        n = 32
        px = [
            1 if r in (0, n - 1) or c in (0, n - 1) else 0
            for r in range(n)
            for c in range(n)
        ]
        template = BinaryImage(n, n, tuple(px))
        params = SynthParams(flips=0.02, max_shift=0, count=500, seed=13)
        samples = synth_generate({"frame": template}, params, n)
        diffs = [
            sum(
                a != b
                for a, b in zip(s.image.pixels.ravel().tolist(), template.pixels.ravel().tolist())
            )
            for s in samples
        ]
        mean = sum(diffs) / len(diffs)
        expected = n * n * 0.02
        assert abs(mean - expected) <= 0.15 * expected

    def test_all_ink_erased_exhausts_retries(self):
        template = BinaryImage(1, 1, (1,))
        params = SynthParams(flips=1.0, max_shift=0, count=1, seed=0)
        with pytest.raises(SynthesisError, match="100"):
            synth_generate({"dot": template}, params, 8)

    def test_resize_that_drops_all_ink_exhausts_retries(self):
        # ink only in two opposite corners: the 1x1 nearest resize samples the
        # blank centre, with no noise at all
        corner = BinaryImage(3, 3, (0, 0, 1, 0, 0, 0, 1, 0, 0))
        params = SynthParams(flips=0.0, max_shift=0, count=1, seed=0)
        with pytest.raises(SynthesisError) as info:
            synth_generate({"corner": corner}, params, 1)
        assert str(info.value) == (
            "class 'corner': no ink left after noise and the 1x1 resize "
            "in 100 consecutive draws"
        )

    def test_erased_draw_is_retried(self):
        template = BinaryImage(1, 1, (1,))
        params = SynthParams(flips=0.9, max_shift=0, count=3, seed=2)
        samples = synth_generate({"dot": template}, params, 4)
        assert len(samples) == 3
        assert all(s.image.ink_count == 16 for s in samples)

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError, match="n must be positive"):
            synth_generate(builtin_templates(), SynthParams(count=1), 0)

    def test_inkless_template_rejected(self):
        with pytest.raises(ValueError, match="no ink"):
            synth_generate(
                {"blank": BinaryImage(2, 2, (0,) * 4)}, SynthParams(count=1), 8
            )

    def test_samples_are_normalized(self):
        templates = builtin_templates()
        params = SynthParams(flips=0.03, max_shift=2, scale_jitter=0.2, count=4, seed=3)
        for s in synth_generate(templates, params, 20):
            assert (s.image.width, s.image.height) == (20, 20)
            assert s.image.ink_count >= 1


class TestBuiltins:
    def test_templates_cover_registry(self):
        templates = builtin_templates()
        registry = builtin_registry()
        assert set(registry.classes) <= set(templates)
        for img in templates.values():
            assert img.ink_count > 0

    def test_pairs_differ_in_ink(self):
        templates = builtin_templates()
        for a, b in builtin_registry().pairs:
            assert templates[a] != templates[b]


class TestWriteCorpus:
    def test_corpus_round_trips_through_manifest(self, tmp_path):
        templates = builtin_templates()
        templates["cup\rbar"] = templates.pop("cup-bar")  # a lone CR is quoted
        params = SynthParams(flips=0.01, max_shift=1, count=2, seed=4)
        samples = synth_generate(templates, params, 16)
        manifest = write_corpus(samples, tmp_path)
        loaded = load_manifest(manifest)
        assert len(loaded) == len(samples)
        for orig, back in zip(samples, loaded):
            assert back.label == orig.label
            mask, _ = binarize_otsu(back.image)
            assert mask == orig.image

    def test_byte_identical_across_runs(self, tmp_path):
        templates = builtin_templates()
        params = SynthParams(flips=0.02, max_shift=1, count=2, seed=5)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        write_corpus(synth_generate(templates, params, 16), dir_a)
        write_corpus(synth_generate(templates, params, 16), dir_b)
        files_a = sorted(p.name for p in dir_a.iterdir())
        files_b = sorted(p.name for p in dir_b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


class TestSynthParamsValidation:
    def test_ranges(self):
        with pytest.raises(ValueError):
            SynthParams(flips=1.5)
        with pytest.raises(ValueError):
            SynthParams(max_shift=-1)
        with pytest.raises(ValueError):
            SynthParams(scale_jitter=0.6)
        with pytest.raises(ValueError):
            SynthParams(count=0)
