import argparse
import atexit
import contextlib
import csv
import gc
import importlib.metadata
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from glyphspect import cli, dataset, evaluation, features, imaging, svm
from glyphspect.svm import load_model


def train_argv(manifest, registry, model, *flags):
    return ["train", "--manifest", str(manifest), "--registry", str(registry),
            "--model", str(model), *flags]


def train(manifest, registry, model, *flags):
    return cli.main(train_argv(manifest, registry, model, *flags))


def evaluate_argv(model, manifest, *flags):
    return ["evaluate", "--model", str(model), "--manifest", str(manifest), *flags]


def evaluate(model, manifest, *flags):
    return cli.main(evaluate_argv(model, manifest, *flags))


def synth_corpus(tmp_path, count=8, flips=0.01, seed=42):
    out = tmp_path / "corpus"
    code = cli.main(
        [
            "synth",
            "--out",
            str(out),
            "--count",
            str(count),
            "--flips",
            str(flips),
            "--max-shift",
            "1",
            "--seed",
            str(seed),
        ]
    )
    assert code == 0
    return out


def shared_rows(trained):
    """The shared corpus's manifest rows as (absolute image path, label)."""
    return [
        (trained.corpus / row.source_id, row.label)
        for row in dataset.read_manifest(trained.manifest)
    ]


def write_manifest(path, rows):
    """`path`, now a manifest of the (image path, label) rows."""
    lines = [f"{image},{label}\n" for image, label in [("path", "label"), *rows]]
    path.write_text("".join(lines))
    return path


# An OSError's text for a path that does not exist.
NO_FILE = "[Errno 2] No such file or directory"

# Each subcommand's exact option strings: the pipeline flags are only those
# its command reads.
OPTIONS = {
    "synth": "--out --templates --count --flips --max-shift --scale-jitter "
             "--n --seed",
    "featurize": "--manifest --out --n --m --normalize-l2",
    "train": "--manifest --registry --model --n --m --gamma --c --seed "
             "--normalize-l2",
    "evaluate": "--model --manifest --csv",
    "predict": "--model",
}


def subcommand_parsers():
    """build_parser()'s subparser of each subcommand, by name."""
    return next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices


def declared_options(parser):
    return [option for action in parser._actions for option in action.option_strings]


class TestHelp:
    @pytest.mark.parametrize("command", list(OPTIONS))
    def test_help_lists_flags_with_defaults(self, command, capsys):
        parsers = subcommand_parsers()
        assert list(parsers) == list(OPTIONS)
        declared = declared_options(parsers[command])
        assert declared == ["-h", "--help", *OPTIONS[command].split(), "--config"]
        assert cli.main([command, "--help"]) == 0
        text = capsys.readouterr().out
        assert "default" in text
        assert set(declared) <= set(text.replace(",", " ").split())

    def test_every_setting_is_a_flag_of_some_subcommand(self):
        # the config file drops a key the running subcommand lacks without a
        # word, so a setting no subcommand takes would be a key none reads
        flags = {
            option for parser in subcommand_parsers().values()
            for option in declared_options(parser)
        }
        assert {"--" + name for name in cli._SETTINGS} <= flags

    def test_unknown_flag_is_usage_error(self, fails):
        fails(["train", "--nonsense"], 1, "error: usage: unrecognized arguments: --nonsense")

    @pytest.mark.parametrize(
        "argv, unread",
        [(["synth", "--m", "4"], "--m 4"), (["synth", "--normalize-l2"], "--normalize-l2"),
         (["featurize", "--manifest", "manifest.csv", "--seed", "1"], "--seed 1"),
         (["train", "--sweep", "gamma=1"], "--sweep gamma=1")],
        ids=["synth-m", "synth-normalize-l2", "featurize-seed", "train-sweep"],
    )
    def test_flag_the_command_does_not_read_is_usage_error(
        self, tmp_path, fails, argv, unread
    ):
        if argv[0] == "synth":
            argv = [*argv, "--out", tmp_path / "corpus"]
        fails(argv, 1, f"error: usage: unrecognized arguments: {unread}")


class TestSynth:
    def test_builtin_corpus_layout(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=3)
        pgms = sorted(p.name for p in out.glob("*.pgm"))
        assert len(pgms) == 12  # 4 builtin classes
        assert (out / "manifest.csv").is_file()
        assert (out / "registry.csv").is_file()
        stdout = capsys.readouterr().out
        assert "12 samples" in stdout

    def test_missing_template_dir(self, tmp_path, fails):
        missing = tmp_path / "nope"
        fails(["synth", "--out", tmp_path / "o", "--templates", missing], 2,
              f"error: synth: template directory not found: {str(missing)!r}")

    def test_template_dir_without_pgm_files(self, tmp_path, fails):
        tdir = tmp_path / "templates"
        tdir.mkdir()
        (tdir / "a.txt").write_text("not a template")
        fails(["synth", "--out", tmp_path / "o", "--templates", tdir], 2,
              f"error: synth: no .pgm templates in {str(tdir)!r}")

    @pytest.mark.parametrize(
        "data, message",
        [(b"P2 2 2 255\n255 255 255 255\n", "empty glyph"),
         (b"P9\n", "malformed magic number b'P9': expected P2 or P5")],
        ids=["blank", "malformed"],
    )
    def test_bad_template_is_named(self, tmp_path, fails, data, message):
        tdir = tmp_path / "templates"
        tdir.mkdir()
        (tdir / "a.pgm").write_bytes(b"P2 3 3 255\n0 0 0 0 0 0 0 255 255\n")
        bad = tdir / "b.pgm"
        bad.write_bytes(data)
        fails(["synth", "--out", tmp_path / "o", "--templates", tdir], 2,
              f"error: synth: {str(bad)!r}: {message}")

    def test_custom_template_dir(self, tmp_path):
        tdir = tmp_path / "templates"
        tdir.mkdir()
        (tdir / "blob.pgm").write_bytes(b"P2 3 3 255\n0 0 0 0 0 0 0 255 255\n")
        out = tmp_path / "corpus"
        assert cli.main(
            ["synth", "--out", str(out), "--templates", str(tdir), "--count", "2",
             "--flips", "0", "--max-shift", "0"]
        ) == 0
        assert len(list(out.glob("blob_*.pgm"))) == 2

    def test_synthesis_failure_exits_3(self, tmp_path, fails):
        tdir = tmp_path / "templates"
        tdir.mkdir()
        # single ink pixel; flips=1.0 erases it on every draw
        (tdir / "dot.pgm").write_bytes(b"P2 2 1 255\n0 255\n")
        fails(
            ["synth", "--out", tmp_path / "o", "--templates", tdir, "--count", "1",
             "--flips", "1.0", "--max-shift", "0"],
            3, "error: synth: class 'dot': no ink left after noise and the 32x32 resize "
            "in 100 consecutive draws",
        )

    @pytest.mark.parametrize(
        "flags, message",
        [(["--count", "0"], "count must be positive"),
         (["--flips", "2"], "flips must lie in [0, 1]"),
         (["--max-shift", "-1"], "max_shift must be nonnegative"),
         (["--scale-jitter", "0.9"], "scale_jitter must lie in [0, 0.5]")],
        ids=["count", "flips", "max-shift", "scale-jitter"],
    )
    def test_out_of_range_perturbation_is_usage_error(self, tmp_path, fails, flags, message):
        fails(["synth", "--out", tmp_path / "o", *flags], 1, f"error: synth: {message}")


class TestFeaturize:
    def test_line_format(self, trained, capsys):
        assert cli.main(["featurize", "--manifest", str(trained.manifest)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8
        first = lines[0].split(",")
        assert first[0] in ("cup", "cup-bar", "ring", "ring-gap")
        assert len(first) == 1 + 32  # label + 2m values at defaults
        float(first[1])

    def test_out_file_and_m_flag(self, trained, tmp_path, capsys):
        dest = tmp_path / "features.csv"
        argv = ["featurize", "--manifest", str(trained.manifest), "--m", "4"]
        assert cli.main([*argv, "--out", str(dest)]) == 0
        lines = dest.read_text().strip().splitlines()
        assert all(len(line.split(",")) == 9 for line in lines)
        capsys.readouterr()
        assert cli.main(argv) == 0
        # the file holds the bytes stdout gets: no line end is translated
        assert dest.read_bytes() == capsys.readouterr().out.encode("utf-8")

    def test_every_label_reads_back_with_its_features(self, trained, tmp_path, capsys):
        labels = ["plain", "a,b", '"q"', "x\ny", "a\rb"]
        manifest = tmp_path / "labels.csv"
        with manifest.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(
                [["path", "label"], *([trained.glyph, x] for x in labels)]
            )
        assert cli.main(["featurize", "--manifest", str(manifest), "--m", "4"]) == 0
        text = capsys.readouterr().out
        meta = svm.ModelMeta(n=32, m=4, seed=42, normalize=False)
        vectors, _ = cli._featurize_samples(dataset.load_manifest(manifest), meta)
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert [row[0] for row in rows] == labels
        assert [[float(v) for v in row[1:]] for row in rows] == vectors.tolist()
        # a label that needs no quoting keeps the unquoted line
        plain = "plain," + ",".join(format(v, ".17g") for v in vectors[0].tolist())
        assert text.startswith(plain + "\n")

    @pytest.mark.parametrize("first", ["blank-small.pgm", "blank-big.pgm"])
    def test_blank_glyphs_name_the_first_in_manifest_order(
        self, trained, tmp_path, fails, first
    ):
        # Glyphs are featurized in manifest order, so the first blank row is
        # named, whatever its shape; a raster of zeros only is as blank as
        # any other uniform one.
        (tmp_path / "blank-small.pgm").write_bytes(b"P2 4 4 255\n" + b"0 " * 16)
        (tmp_path / "blank-big.pgm").write_bytes(b"P5 32 32 255\n" + b"\xc8" * 1024)
        blanks = [("blank-small.pgm", "ring"), ("blank-big.pgm", "cup")]
        if first == "blank-big.pgm":
            blanks.reverse()
        rows = shared_rows(trained)
        rows[1:1] = blanks
        rows[2], rows[4] = rows[4], rows[2]  # a glyph between the two blanks
        manifest = write_manifest(tmp_path / "manifest.csv", rows)
        fails(["featurize", "--manifest", manifest], 2,
              f"error: featurize: {first!r}: empty glyph")


class TestTrainEvaluatePredict:
    def test_full_pipeline(self, tmp_path, capsys):
        out = synth_corpus(tmp_path)
        model = tmp_path / "model.json"
        flags = ("--gamma", "2", "--normalize-l2")
        assert train(out / "manifest.csv", out / "registry.csv", model, *flags) == 0
        stdout = capsys.readouterr().out
        assert "pair ring/ring-gap" in stdout
        assert "train accuracy" in stdout
        assert model.is_file()

        pm = load_model(model.read_bytes())
        assert pm.meta.seed == 42
        assert pm.meta.normalize is True

        csv_path = tmp_path / "report.csv"
        assert evaluate(model, out / "manifest.csv", "--csv", str(csv_path)) == 0
        table = capsys.readouterr().out
        assert table.startswith("Correct Character")
        assert "ring" in table and "cup" in table
        csv_text = csv_path.read_text()
        assert csv_text.startswith(
            "correct,error,tp,fp,tn,fn,sensitivity,specificity,accuracy"
        )
        rows = csv_text.strip().splitlines()[1:]
        assert len(rows) == 2
        # the printed metrics must equal metrics recomputed from the counts
        from glyphspect.evaluation import ConfusionCounts, format_percent, metrics

        for row in rows:
            cells = row.split(",")
            tp, fp, tn, fn = (int(v) for v in cells[2:6])
            again = metrics(ConfusionCounts(tp, fp, tn, fn))
            assert cells[6] == format_percent(again.sensitivity)
            assert cells[7] == format_percent(again.specificity)
            assert cells[8] == format_percent(again.accuracy)
            assert f"{cells[0]}" in table and cells[8] in table

        glyph = next(out.glob("ring_*.pgm"))
        code = cli.main(["predict", "--model", str(model), str(glyph)])
        assert code == 0
        pred = capsys.readouterr().out
        pm = load_model(model.read_bytes())
        binary, _ = imaging.binarize_otsu(imaging.load_pgm(glyph.read_bytes()))
        squared = imaging.resize_to_square(imaging.crop_to_bbox(binary), pm.meta.n)
        vec = features.extract_features(squared, pm.meta.m, pm.meta.normalize).values
        winner, votes = svm.predict_multiclass(pm, vec)
        assert pred.splitlines() == [
            f"predicted: {winner}",
            "votes: " + " ".join(f"{cls}={votes[cls]}" for cls in pm.classes),
            *(f"decision {mdl.pos_class}/{mdl.neg_class}: "
              f"{svm.decision(mdl, vec):+.6f}" for mdl in pm.models),
        ]
        assert "decision ring/ring-gap:" in pred
        assert "decision cup/cup-bar:" in pred

    def test_solver_iteration_bound_exits_3(self, trained, tmp_path, monkeypatch, fails):
        monkeypatch.setattr(svm, "_ITERATIONS_PER_SAMPLE", 0)  # no SMO step allowed
        fails(train_argv(trained.manifest, trained.registry, tmp_path / "m.json"), 3,
              "error: train: KKT gap still above 0.001 after 0 SMO steps")

    def test_small_class_names_class(self, trained, tmp_path, fails):
        # one 'ring' row, every other class intact
        rings = [row for row in shared_rows(trained) if row[1] == "ring"]
        others = [row for row in shared_rows(trained) if row[1] != "ring"]
        manifest = write_manifest(tmp_path / "one-ring.csv", rings[:1] + others)
        fails(train_argv(manifest, trained.registry, tmp_path / "m.json"), 2,
              "error: train: class 'ring' has only 1 sample(s); need at least 2 to split")

    def test_registry_class_absent_from_manifest(self, trained, tmp_path, fails):
        registry = tmp_path / "registry.csv"
        registry.write_text("correct_class,error_class\nring,ghost\n")
        fails(train_argv(trained.manifest, registry, tmp_path / "m.json"), 2,
              "error: train: class 'ghost' has 0 sample(s) in the manifest")

    @pytest.mark.parametrize(
        "body, message",
        [("a\n", "registry row 2: expected 'correct_class,error_class'"),
         ("a,a\n", "registry: pair 'a'/'a': classes must differ")],
        ids=["one-field", "self-pair"],
    )
    def test_malformed_registry_is_data_error(self, trained, tmp_path, fails, body, message):
        registry = tmp_path / "registry.csv"
        registry.write_text("correct_class,error_class\n" + body)
        fails(train_argv(trained.manifest, registry, tmp_path / "m.json"), 2,
              f"error: train: {message}")

    def test_default_gamma_fits_raw_features(self, tmp_path):
        # raw ink counts, no --gamma: 1/(2m) would score each pair near 50%
        out = tmp_path / "corpus"
        assert cli.main(
            ["synth", "--out", str(out), "--seed", "7", "--flips", "0.05",
             "--scale-jitter", "0.2", "--max-shift", "2"]
        ) == 0
        manifest = out / "manifest.csv"
        model = tmp_path / "m.json"
        report = tmp_path / "report.csv"
        assert train(manifest, out / "registry.csv", model) == 0
        assert evaluate(model, manifest, "--csv", str(report)) == 0
        accuracies = [float(row.split(",")[-1])
                      for row in report.read_text().splitlines()[1:]]
        assert len(accuracies) == 2 and min(accuracies) >= 90.0

        pm = load_model(model.read_bytes())
        train_half, _ = dataset.split_even(dataset.load_manifest(manifest), 42)
        vectors, _ = cli._featurize_samples(train_half, pm.meta)
        values = [v for row in vectors.tolist() for v in row]
        mean = math.fsum(values) / len(values)
        var = math.fsum((v - mean) ** 2 for v in values) / len(values)
        assert var > 0
        assert pm.models[0].gamma == 1.0 / (2 * pm.meta.m * var)

    def test_zero_variance_gamma_falls_back_to_one_over_2m(self, trained, tmp_path):
        rows = [(trained.glyph, "ring"), (trained.glyph, "ring-gap")] * 2
        manifest = write_manifest(tmp_path / "one-glyph.csv", rows)
        registry = tmp_path / "ring.csv"
        registry.write_text("correct_class,error_class\nring,ring-gap\n")
        models = []
        for extra in ([], ["--gamma", "0.5"]):
            model = tmp_path / f"m{len(models)}.json"
            assert train(manifest, registry, model, "--m", "1", *extra) == 0
            models.append(model.read_bytes())
        # with m = 1 both features are the ink count, so Var is exactly 0
        assert models[0] == models[1]
        assert load_model(models[0]).models[0].gamma == 0.5

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_explicit_gamma_is_stored_exactly(self, trained, tmp_path, source):
        if source == "flag":
            extra = ["--gamma", "0.3"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"gamma": 0.3}))
            extra = ["--config", str(cfg)]
        model = tmp_path / "m.json"
        assert train(trained.manifest, trained.registry, model, *extra) == 0
        assert load_model(model.read_bytes()).models[0].gamma == 0.3

    def test_evaluate_refuses_manifest_missing_a_model_class(self, trained, tmp_path, fails):
        rows = [row for row in shared_rows(trained) if row[1] != "cup"]
        manifest = write_manifest(tmp_path / "no-cup.csv", rows)
        fails(evaluate_argv(trained.model, manifest), 2,
              "error: evaluate: class 'cup' has 0 sample(s) in the manifest")

    def test_single_sample_class_is_refused_by_the_split(self, trained, tmp_path, fails):
        cups = [row for row in shared_rows(trained) if row[1] == "cup"]
        others = [row for row in shared_rows(trained) if row[1] != "cup"]
        manifest = write_manifest(tmp_path / "one-cup.csv", others + cups[:1])
        for argv in (train_argv(manifest, trained.registry, tmp_path / "m2.json"),
                     evaluate_argv(trained.model, manifest)):
            fails(argv, 2, f"error: {argv[0]}: class 'cup' has only 1 sample(s); "
                  "need at least 2 to split")

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_an_unwritable_file_leaves_stdout_empty(self, trained, tmp_path, fails, command):
        # each command writes its file before it prints a result
        missing = tmp_path / "nodir" / "out"
        argv = {
            "train": train_argv(trained.manifest, trained.registry, missing),
            "evaluate": evaluate_argv(trained.model, trained.manifest, "--csv", missing),
        }[command]
        fails(argv, 2, f"error: {command}: {NO_FILE}: {str(missing)!r}")

    def test_train_names_first_blank_glyph_of_the_train_half(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=4)
        capsys.readouterr()
        (out / "small.pgm").write_bytes(b"P2 3 5 255\n" + b"0 " * 15)
        (out / "big.pgm").write_bytes(b"P2 32 32 255\n" + b"9 " * 1024)
        rows = (out / "manifest.csv").read_text().splitlines()
        # every ring glyph blank, in two raster shapes
        rows = [
            ("small.pgm" if i % 2 else "big.pgm") + ",ring" if row.endswith(",ring")
            else row
            for i, row in enumerate(rows)
        ]
        (out / "manifest.csv").write_text("\n".join(rows) + "\n")
        train_half, _ = dataset.split_even(
            dataset.load_manifest(out / "manifest.csv"), 42
        )
        first = next(s.source_id for s in train_half if s.label == "ring")
        assert train(out / "manifest.csv", out / "registry.csv", tmp_path / "m") == 2
        assert capsys.readouterr().err == f"error: train: {first!r}: empty glyph\n"

    def test_evaluate_class_in_two_pairs(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=6)
        registry = tmp_path / "registry.csv"
        registry.write_text("correct_class,error_class\nring,ring-gap\nring,cup\n")
        model = tmp_path / "m.json"
        csv_path = tmp_path / "report.csv"
        assert train(
            out / "manifest.csv", registry, model, "--gamma", "2", "--normalize-l2"
        ) == 0
        assert evaluate(model, out / "manifest.csv", "--csv", str(csv_path)) == 0

        pm = load_model(model.read_bytes())
        samples = dataset.load_manifest(out / "manifest.csv")
        _, test = dataset.split_even(
            [s for s in samples if s.label in pm.classes], pm.meta.seed
        )
        rows = csv_path.read_text().splitlines()[1:]
        assert len(rows) == 2
        scored = []
        for row, (pos, neg) in zip(rows, [("ring", "ring-gap"), ("ring", "cup")]):
            subset = [s for s in test if s.label in (pos, neg)]
            vectors = [
                features.extract_features(
                    imaging.resize_to_square(
                        imaging.crop_to_bbox(imaging.binarize_otsu(s.image)[0]),
                        pm.meta.n,
                    ),
                    pm.meta.m,
                    normalize=pm.meta.normalize,
                ).values
                for s in subset
            ]
            [mdl] = [
                mdl for mdl in pm.models if {mdl.pos_class, mdl.neg_class} == {pos, neg}
            ]
            counts = evaluation.evaluate_pair(mdl, vectors, [s.label for s in subset])
            assert sum(int(v) for v in row.split(",")[2:6]) == len(subset)
            scored.append(((pos, neg), counts, evaluation.metrics(counts)))
        # the file holds report_csv's text byte for byte: no line end is translated
        assert csv_path.read_bytes() == evaluation.report_csv(scored).encode("utf-8")

    def test_non_finite_kernel_value_is_usage_error(self, trained, tmp_path, fails):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": float("nan")}))  # writes the NaN literal
        argv = train_argv(trained.manifest, trained.registry, tmp_path / "m.json")
        fails([*argv, "--config", cfg], 1, "error: train: gamma must be positive and finite")

    def test_predict_empty_glyph(self, trained, tmp_path, fails):
        blank = tmp_path / "blank.pgm"
        blank.write_bytes(b"P2 4 4 255\n" + b"255 " * 16 + b"\n")
        fails(["predict", "--model", trained.model, blank], 2,
              f"error: predict: {str(blank)!r}: empty glyph")

    def test_predict_names_a_malformed_image(self, trained, tmp_path, fails):
        cut = tmp_path / "cut\nshort.pgm"  # the quoted path keeps one line
        cut.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
        fails(["predict", "--model", trained.model, cut], 2,
              f"error: predict: {str(cut)!r}: truncated pixel data: expected 16 bytes, found 10")

    def test_corrupt_model_is_data_error(self, trained, tmp_path, fails):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        fails(evaluate_argv(bad, trained.manifest), 2,
              "error: evaluate: model: missing field 'format_version'")

    @pytest.mark.parametrize(
        "flags, message",
        [(["--m", "0"], "m must satisfy 1 <= m <= 32, got 0"),
         (["--n", "0"], "n must be positive"),
         (["--gamma", "0"], "gamma must be positive and finite"),
         (["--c", "-1"], "c must be positive and finite"),
         (["--gamma", "nan"], "gamma must be positive and finite"),
         (["--gamma", "inf"], "gamma must be positive and finite"),
         (["--c", "inf"], "c must be positive and finite")],
        ids=[f"flags{i}" for i in range(7)],
    )
    def test_out_of_range_flag_is_usage_error(self, tmp_path, fails, flags, message):
        argv = train_argv(tmp_path / "none.csv", tmp_path / "r.csv", tmp_path / "m", *flags)
        fails(argv, 1, f"error: train: {message}")

    def test_unparseable_model_is_one_line_data_error(self, trained, tmp_path, fails):
        deep = tmp_path / "deep.json"
        deep.write_bytes(b"[" * 100000)
        fails(evaluate_argv(deep, trained.manifest), 2,
              "error: evaluate: invalid model file: ", prefix=True)

    def test_newline_in_model_class_is_one_line_data_error(self, trained, tmp_path, fails):
        doc = json.loads(trained.model.read_text())
        entry = doc["pairs"][0]
        entry["pos_class"], entry["bias"] = "ring\nevil", "x"
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        fails(evaluate_argv(model, trained.manifest), 2,
              f"error: evaluate: pair 'ring\\nevil'/{entry['neg_class']!r}: "
              "field 'bias' must be a real number")

    def test_oversized_manifest_cell_is_one_line_data_error(self, trained, tmp_path, fails):
        manifest = tmp_path / "big.csv"
        manifest.write_bytes(b"path,label\n" + b"a" * 131073 + b",ring\n")
        fails(train_argv(manifest, trained.registry, tmp_path / "m"), 2,
              f"error: train: manifest {str(manifest)!r}: ", prefix=True)

    def test_newline_in_manifest_cell_is_one_line_data_error(self, trained, tmp_path, fails):
        # every ring row names a missing file; train decodes its train-half one
        rows = [("\"a\nb\"", label) if label == "ring" else (image, label)
                for image, label in shared_rows(trained)]
        manifest = write_manifest(tmp_path / "m.csv", rows)
        train_half, _ = dataset.split_even(dataset.read_manifest(manifest), 42)
        line_no = next(row.line_no for row in train_half if row.label == "ring")
        missing = tmp_path / "a\nb"
        fails(train_argv(manifest, trained.registry, tmp_path / "m"), 2,
              f"error: train: manifest row {line_no}: 'a\\nb': {NO_FILE}: {str(missing)!r}")

    def test_newline_in_registry_cell_is_one_line_error(self, trained, tmp_path, fails):
        registry = tmp_path / "nl.csv"
        registry.write_bytes(b'correct_class,error_class\n"ri\nng",cup\n')
        fails(train_argv(trained.manifest, registry, tmp_path / "m"), 2,
              "error: train: class 'ri\\nng' has 0 sample(s) in the manifest")

    @pytest.mark.parametrize(
        "flag, code",
        [("--manifest", 2), ("--registry", 2), ("--templates", 2), ("--config", 1)],
    )
    def test_newline_in_path_is_one_line_error(self, trained, tmp_path, fails, flag, code):
        bad = str(tmp_path / "no\nsuch")
        argv, what = {
            "--manifest": (["featurize", "--manifest", bad], "manifest"),
            "--registry": (train_argv(trained.manifest, bad, tmp_path / "m"), "registry"),
            "--templates": (["synth", "--out", tmp_path / "o", "--templates", bad],
                            "template directory"),
            "--config": (["featurize", "--manifest", trained.manifest, "--config", bad],
                         "config file"),
        }[flag]
        fails(argv, code, f"error: {argv[0]}: {what} not found: {bad!r}")

    def test_missing_manifest_is_data_error(self, tmp_path, fails):
        missing = tmp_path / "none.csv"
        fails(train_argv(missing, tmp_path / "r.csv", tmp_path / "m"), 2,
              f"error: train: manifest not found: {str(missing)!r}")


class TestDecodeOnlyTheHalfUsed:
    """`train` and `evaluate` decode only the manifest rows of the half they use."""

    FLAGS = ("--gamma", "2", "--normalize-l2")

    @pytest.fixture
    def decoded(self, monkeypatch):
        """The bytes of every image the manifest loader decodes, in order."""
        seen = []
        load_pgm = dataset.load_pgm

        def counting(data):
            seen.append(bytes(data))
            return load_pgm(data)

        monkeypatch.setattr(dataset, "load_pgm", counting)
        return seen

    def test_each_command_decodes_exactly_its_half(self, tmp_path, decoded):
        out = synth_corpus(tmp_path, count=5)  # 3 train and 2 test rows a class
        train_half, test_half = dataset.split_even(
            dataset.read_manifest(out / "manifest.csv"), 42
        )
        model = tmp_path / "m.json"
        assert train(out / "manifest.csv", out / "registry.csv", model, *self.FLAGS) == 0
        assert decoded == [(out / row.source_id).read_bytes() for row in train_half]
        decoded.clear()
        assert evaluate(model, out / "manifest.csv") == 0
        assert decoded == [(out / row.source_id).read_bytes() for row in test_half]

    def test_corrupt_test_half_glyph_fails_only_evaluate(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=4)
        _, test_half = dataset.split_even(dataset.read_manifest(out / "manifest.csv"), 42)
        bad = test_half[1]
        (out / bad.source_id).write_bytes(b"P2 broken")
        model = tmp_path / "m.json"
        assert train(out / "manifest.csv", out / "registry.csv", model, *self.FLAGS) == 0
        capsys.readouterr()
        assert evaluate(model, out / "manifest.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: evaluate: manifest row {bad.line_no}: {bad.source_id!r}: "
        )
        assert err.count("\n") == 1

    def test_rows_are_checked_before_any_decode(self, tmp_path, capsys, decoded):
        out = synth_corpus(tmp_path, count=4)
        manifest = out / "manifest.csv"
        text = manifest.read_text()
        # a class outside the registry and the model, whose file is corrupt
        (out / "ghost.pgm").write_bytes(b"P2 broken")
        manifest.write_text(text + "ghost.pgm,ghost\n" * 3)
        model = tmp_path / "m.json"
        assert train(out / "manifest.csv", out / "registry.csv", model, *self.FLAGS) == 0
        assert evaluate(model, out / "manifest.csv") == 0
        assert len(decoded) == 16 and b"P2 broken" not in decoded
        decoded.clear()
        capsys.readouterr()

        manifest.write_text(text + "just-one-field\n")
        line_no = len(text.splitlines()) + 1
        assert train(out / "manifest.csv", out / "registry.csv", model, *self.FLAGS) == 2
        assert evaluate(model, out / "manifest.csv") == 2
        assert capsys.readouterr().err == "".join(
            f"error: {cmd}: manifest row {line_no}: expected 'path,label'\n"
            for cmd in ("train", "evaluate")
        )
        assert decoded == []


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, trained, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 4, "n": 16}))
        assert cli.main(
            ["featurize", "--manifest", str(trained.manifest),
             "--config", str(cfg), "--m", "2"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        # flag m=2 wins over config m=4
        assert all(len(line.split(",")) == 5 for line in lines)

    def test_shared_config_keys_a_command_does_not_read_are_ignored(
        self, tmp_path, capsys
    ):
        # synth reads only seed, featurize only m and normalize_l2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 4, "normalize_l2": True, "seed": 7, "gamma": 2.0}))

        def synth_and_featurize(name, synth_flags, featurize_flags):
            out = tmp_path / name
            assert cli.main(["synth", "--out", str(out), "--count", "2", *synth_flags]) == 0
            capsys.readouterr()
            manifest = str(out / "manifest.csv")
            assert cli.main(["featurize", "--manifest", manifest, *featurize_flags]) == 0
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            return files, capsys.readouterr().out

        shared = synth_and_featurize("shared", ["--config", str(cfg)], ["--config", str(cfg)])
        flags = synth_and_featurize("flags", ["--seed", "7"], ["--m", "4", "--normalize-l2"])
        assert shared == flags
        assert len(shared[1].splitlines()[0].split(",")) == 9

    def test_config_can_supply_paths(self, trained, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"manifest": str(trained.manifest), "m": 2}))
        assert cli.main(["featurize", "--config", str(cfg)]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 8

    def test_missing_required_path_is_usage_error(self, fails):
        fails(["featurize"], 1, "error: featurize: --manifest is required (flag or config file)")

    def test_config_keys_follow_the_flags(self):
        assert cli._CONFIG_KEYS == {
            "n": int, "m": int, "gamma": float, "c": float, "seed": int,
            "normalize_l2": bool, "manifest": str, "registry": str, "model": str,
            "csv": str,
        }

    def test_config_can_supply_every_path(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=4)
        capsys.readouterr()
        glyph = str(next(out.glob("ring_*.pgm")))

        def pipeline(tag):
            """Model bytes, stdout and CSV of train, evaluate and predict, each
            given every path it reads by flags or, for tag "config", by one
            config file the three share, each ignoring the keys it does not
            read."""
            run_dir = tmp_path / tag
            run_dir.mkdir()
            paths = {"manifest": str(out / "manifest.csv"),
                     "registry": str(out / "registry.csv"),
                     "model": str(run_dir / "model.json"),
                     "csv": str(run_dir / "report.csv")}
            cfg = run_dir / "shared.json"
            cfg.write_text(json.dumps({**paths, "gamma": 2, "normalize_l2": True}))
            if tag == "config":
                for argv in (["train"], ["evaluate"], ["predict", glyph]):
                    assert cli.main([*argv, "--config", str(cfg)]) == 0
            else:
                manifest, registry, model, report = paths.values()
                flags = ("--gamma", "2", "--normalize-l2")
                assert train(manifest, registry, model, *flags) == 0
                assert evaluate(model, manifest, "--csv", report) == 0
                assert cli.main(["predict", "--model", model, glyph]) == 0
            stdout = capsys.readouterr().out.replace(str(run_dir), "DIR")
            return (
                (run_dir / "model.json").read_bytes(), stdout,
                (run_dir / "report.csv").read_bytes(),
            )

        flags = pipeline("flags")
        assert pipeline("config") == flags
        assert "model written: DIR" in flags[1] and "ring-gap" in flags[1]
        assert "\npredicted: " in flags[1]

    @pytest.mark.parametrize(
        "argv, missing",
        [(["evaluate", "--model", "{tmp}/bad.json"], "--manifest"),
         (["train", "--manifest", "{tmp}/none.csv", "--model", "{tmp}/m.json"],
          "--registry"),
         (["predict", "{tmp}/none.pgm"], "--model")],
        ids=["evaluate-manifest", "train-registry", "predict-model"],
    )
    def test_missing_path_is_checked_before_any_file_is_read(
        self, tmp_path, fails, argv, missing
    ):
        # evaluate's model file, train's manifest and predict's image are all
        # bad: the missing path is reported first, as a usage error
        (tmp_path / "bad.json").write_text("{}")
        fails([arg.format(tmp=tmp_path) for arg in argv], 1,
              f"error: {argv[0]}: {missing} is required (flag or config file)")

    def test_unknown_config_key(self, trained, tmp_path, fails):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        fails(["featurize", "--manifest", trained.manifest, "--config", cfg], 1,
              "error: featurize: unknown config key 'bogus'")

    # the kinds' names are the model loader's (test_svm pins those)
    @pytest.mark.parametrize(
        "doc, message",
        [({"n": [16]}, "config key 'n' must be an integer"),
         ({"normalize_l2": "false"}, "config key 'normalize_l2' must be a boolean"),
         ({"n": 16.9}, "config key 'n' must be an integer"),
         ({"n": True}, "config key 'n' must be an integer"),
         ({"gamma": "x"}, "config key 'gamma' must be a real number")],
        ids=["list", "string-for-bool", "float-for-int", "bool-for-int",
             "string-for-real"],
    )
    def test_config_value_of_wrong_kind_is_usage_error(
        self, trained, tmp_path, fails, doc, message
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        fails(["featurize", "--manifest", trained.manifest, "--config", cfg], 1,
              f"error: featurize: {message}")

    @pytest.mark.parametrize(
        "data", [b"\xff", b"[" * 100000, b"1" * 5000],
        ids=["not-utf8", "deep-nesting", "5000-digit-integer"],
    )
    def test_config_not_valid_json_is_usage_error(self, trained, tmp_path, fails, data):
        # json.loads refuses the last two with RecursionError and a ValueError
        # that is not a JSONDecodeError, as in test_svm's
        # test_unparseable_json_rejected
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(data)
        fails(["featurize", "--manifest", trained.manifest, "--config", cfg], 1,
              "error: featurize: config file is not valid JSON: ", prefix=True)

    def test_invalid_m_is_usage_error(self, trained, fails):
        fails(["featurize", "--manifest", trained.manifest, "--m", "64"], 1,
              "error: featurize: m must satisfy 1 <= m <= 32, got 64")


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config")


# The JSON types a config key of each kind accepts: a float key also takes
# an integer, and no number takes true or false.
_ACCEPTED = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _is_object(data: bytes) -> bool:
    try:
        return isinstance(json.loads(data.decode("utf-8")), dict)
    except (ValueError, RecursionError):
        return False


def _wrong_kind(key):
    kinds = _ACCEPTED[cli._CONFIG_KEYS[key]]
    return _JSON_VALUES.filter(lambda v: type(v) not in kinds).map(lambda v: {key: v})


# Never a valid document: a valid {"n": 100000} would have featurize build
# 100000x100000 masks per glyph.
@settings(max_examples=300)
@given(
    data=st.one_of(
        st.binary(max_size=64).filter(lambda b: not _is_object(b)),
        _JSON_VALUES.filter(lambda v: not isinstance(v, dict)).map(json.dumps),
        st.dictionaries(
            st.text(max_size=8).filter(lambda k: k not in cli._CONFIG_KEYS),
            _JSON_VALUES, min_size=1, max_size=3,
        ).map(json.dumps),
        st.sampled_from(sorted(cli._CONFIG_KEYS)).flatmap(_wrong_kind).map(json.dumps),
    ).map(lambda d: d if isinstance(d, bytes) else d.encode())
)
@example(data=b"[" * 100000)
@example(data=b"1" * 5000)
def test_config_reader_raises_only_usage_errors(trained, config_dir, data):
    path = config_dir / "fuzz.json"
    path.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(
            ["featurize", "--manifest", str(trained.manifest), "--config", str(path)]
        )
    assert code == 1
    lines = err.getvalue().splitlines(keepends=True)
    assert len(lines) == 1 and lines[0].startswith("error: featurize: ")


# DegenerateTrainingError is a ValueError like any other: no CLI input
# reaches it, as split_even refuses a class with fewer than 2 rows first.
@pytest.mark.parametrize(
    "error, code",
    [(cli.UsageError("boom"), 1),
     (svm.DegenerateTrainingError("boom"), 2),
     (svm.ConvergenceError("boom"), 3),
     (dataset.SynthesisError("boom"), 3),
     (ValueError("boom"), 2),
     (OSError("boom"), 2)],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_exit_code_of_each_error_kind(monkeypatch, capsys, error, code):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_featurize", fail)
    assert cli.main(["featurize", "--manifest", "manifest.csv"]) == code
    assert capsys.readouterr() == ("", "error: featurize: boom\n")


def test_unexpected_error_propagates(monkeypatch):
    def fail(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_featurize", fail)
    with pytest.raises(RuntimeError, match="boom"):
        cli.main(["featurize", "--manifest", "manifest.csv"])


@pytest.mark.parametrize("case", ["image", "model", "featurize-out", "synth-out"])
def test_unreadable_path_is_one_line_data_error(trained, tmp_path, fails, case):
    """The line names the path the OS refused."""
    missing, existing = tmp_path / "none" / "x", tmp_path / "file"
    existing.write_text("x")
    argv, reason, path = {
        "image": (["predict", "--model", trained.model, missing], NO_FILE, missing),
        "model": (["predict", "--model", missing, trained.glyph], NO_FILE, missing),
        "featurize-out": (["featurize", "--manifest", trained.manifest, "--out", missing],
                          NO_FILE, missing),
        "synth-out": (["synth", "--out", existing, "--count", "1"],
                      "[Errno 17] File exists", existing),
    }[case]
    fails(argv, 2, f"error: {argv[0]}: {reason}: {str(path)!r}")


# No path exists: the bound is checked before any file is read or written,
# and so before any n-by-n raster is allocated.
_PATHS_OF = {
    "synth": ["--out", "corpus"],
    "featurize": ["--manifest", "none.csv"],
    "train": ["--manifest", "none.csv", "--registry", "none.csv", "--model", "m.json"],
}


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize("command", list(_PATHS_OF))
def test_n_above_the_bound_is_usage_error(tmp_path, monkeypatch, fails, command, route):
    monkeypatch.chdir(tmp_path)
    n = svm.N_MAX + 1
    flags = ["--n", str(n)]
    if route == "config":
        Path("cfg.json").write_text(json.dumps({"n": n}))
        flags = ["--config", "cfg.json"]
    fails([command, *_PATHS_OF[command], *flags], 1,
          f"error: {command}: n must be at most {svm.N_MAX}, got {n}")


@pytest.mark.parametrize(
    "flag, bound", [("--max-shift", dataset.SHIFT_MAX), ("--count", dataset.COUNT_MAX)]
)
def test_synth_knob_above_its_bound_is_usage_error(
    tmp_path, monkeypatch, fails, flag, bound
):
    monkeypatch.chdir(tmp_path)
    name = flag[2:].replace("-", "_")
    fails(["synth", "--out", "corpus", flag, str(bound + 1)], 1,
          f"error: synth: {name} must be at most {bound}, got {bound + 1}")


def test_synth_at_the_shift_bound_runs(tmp_path, capsys):
    out = tmp_path / "corpus"
    argv = ["synth", "--out", str(out), "--count", "1",
            "--max-shift", str(dataset.SHIFT_MAX)]
    assert cli.main(argv) == 0
    assert len(list(out.glob("*.pgm"))) == len(dataset.builtin_templates())


def _raster_above_the_bound(doc):
    doc["n"] = svm.N_MAX + 1
    return f"n must be at most {svm.N_MAX}, got {svm.N_MAX + 1}"


def _string_support_component(doc):
    pair = doc["pairs"][0]
    pair["support"][0]["x"][-1] = "0.5"
    return (
        f"pair {pair['pos_class']!r}/{pair['neg_class']!r}: "
        "support component must be a real number"
    )


@pytest.mark.parametrize(
    "command, poison", [("predict", _raster_above_the_bound),
                        ("evaluate", _string_support_component)],
)
def test_model_that_load_model_refuses_is_data_error(
    trained, tmp_path, fails, command, poison
):
    doc = json.loads(trained.model.read_bytes())
    message = poison(doc)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    operand = ["--manifest", trained.manifest]
    if command == "predict":
        operand = [trained.glyph]
    fails([command, "--model", bad, *operand], 2, f"error: {command}: {message}")


# --------------------------------------------------------- the error contract

# Tokens the mutation check inserts: an overflowing real, a non-number, an
# integer past every bound, and the CSV and JSON delimiters.
_TOKENS = (b"1e999", b"NaN", b"9" * 30, b",", b'"', b"\n")


def _mutated(data: bytes, rng: random.Random) -> bytes:
    """`data` after 1-4 bit flips, short deletions or token insertions. Each
    lands, with equal odds, at any byte, in the first 64 (headers and leading
    fields) or at a digit (the numbers every format carries)."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        every = range(len(data))
        digits = [i for i in every if data[i] in b"0123456789"] or every
        at = rng.choice(rng.choice([every, every[:64], digits]))
        edit = rng.randrange(3)
        if edit == 0:
            data[at] ^= 1 << rng.randrange(8)
        elif edit == 1:
            del data[at : at + rng.randint(1, 4)]
        else:
            data[at:at] = rng.choice(_TOKENS)
    return bytes(data)


@pytest.mark.parametrize("target", ["model", "pgm", "manifest", "registry", "config"])
def test_mutated_inputs_keep_the_error_contract(trained, tmp_path, capsys, target):
    # every failure is one stderr line, an empty stdout and exit 1-3
    model, glyph = trained.model, trained.glyph
    corpus = tmp_path / "corpus"
    shutil.copytree(trained.corpus, corpus)
    (corpus / "one.csv").write_text("path,label\nmutant,a\n")
    gray = imaging.load_pgm(glyph.read_bytes())
    p5 = b"P5\n%d %d\n255\n" % (gray.width, gray.height) + gray.pixels.tobytes()
    config = {"n": 16, "m": 8, "gamma": 0.5, "c": 10, "seed": 3, "normalize_l2": True}
    x, out = str(corpus / "mutant"), str(tmp_path / "out")
    manifest, registry = str(corpus / "manifest.csv"), str(corpus / "registry.csv")
    sources, commands = {
        "model": ([model.read_bytes()], [
            ["evaluate", "--model", x, "--manifest", manifest, "--csv", out],
            ["predict", "--model", x, str(glyph)],
        ]),
        "pgm": ([glyph.read_bytes(), p5], [
            ["predict", "--model", str(model), x],
            ["featurize", "--manifest", str(corpus / "one.csv")],
        ]),
        "manifest": ([Path(manifest).read_bytes()], [
            ["featurize", "--manifest", x],
            ["train", "--manifest", x, "--registry", registry, "--model", out],
            ["evaluate", "--model", str(model), "--manifest", x],
        ]),
        "registry": ([Path(registry).read_bytes()], [
            ["train", "--manifest", manifest, "--registry", x, "--model", out],
        ]),
        "config": ([json.dumps(config).encode()], [
            ["train", "--manifest", manifest, "--registry", registry, "--model", out,
             "--config", x],
            ["featurize", "--manifest", manifest, "--config", x],
        ]),
    }[target]
    rng = random.Random(target)
    for case in range(100):
        data = _mutated(rng.choice(sources), rng)
        Path(x).write_bytes(data)
        argv = rng.choice(commands)
        try:
            code = cli.main(argv)
        except Exception as exc:
            pytest.fail(f"case {case}, {argv[0]} on {data!r}: {exc!r}")
        stdout, stderr = capsys.readouterr()
        assert code in (0, 1, 2, 3), (case, data)
        if code:
            assert stdout == "" and len(stderr.splitlines()) == 1, (case, data, stderr)
            assert stderr.endswith("\n")


# ---------------------------------------------------------------- process entry

def test_main_leaves_the_heap_unfrozen(trained, capsys):
    """main() leaves the heap unfrozen and the collector on or off, as it
    found them."""
    model, glyph = trained.model, trained.glyph
    enabled = gc.isenabled()
    try:
        for state in (gc.enable, gc.disable):
            state()
            before = gc.get_freeze_count(), gc.isenabled()
            assert cli.main(["predict", "--model", str(model), str(glyph)]) == 0
            assert (gc.get_freeze_count(), gc.isenabled()) == before
    finally:
        (gc.enable if enabled else gc.disable)()


def test_a_commands_cyclic_garbage_does_not_grow_with_its_glyphs(tmp_path, capsys):
    """run() never turns the collector back on: what one command leaves for
    it must stay the same however many glyphs the command reads."""
    small = synth_corpus(tmp_path / "small", count=2)
    large = synth_corpus(tmp_path / "large", count=20)
    found = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for corpus in (small, small, large):  # the first run also fills caches
            gc.collect()
            assert train(corpus / "manifest.csv", corpus / "registry.csv",
                         corpus / "model.json") == 0
            found.append(gc.collect())
    finally:
        if enabled:
            gc.enable()
    assert found[2] <= found[1], found


class _Stream:
    """A stand-in for sys.stdout or sys.stderr that logs its flushes."""

    def __init__(self, name, calls, error=None):
        self.name, self.calls, self.error = name, calls, error

    def flush(self):
        self.calls.append("flush " + self.name)
        if self.error is not None:
            raise self.error


def _entry_calls(monkeypatch, stdout_error=None):
    """cli.main() with every step it takes logged in order, and its result."""
    calls = []
    # a real call would turn this test process's own collector off
    monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: calls.append("atexit"))
    monkeypatch.setattr(sys, "stdout", _Stream("stdout", calls, stdout_error))
    monkeypatch.setattr(sys, "stderr", _Stream("stderr", calls))
    monkeypatch.setattr(os, "_exit", lambda code: calls.append(f"_exit {code}"))
    return calls, cli.run()


def test_run_exits_with_mains_code_after_atexit_and_flush(monkeypatch):
    calls, _ = _entry_calls(monkeypatch)
    assert calls == [
        "disable", "main", "atexit", "flush stdout", "flush stderr", "_exit 3"
    ]


def test_run_returns_mains_code_when_a_flush_fails(monkeypatch):
    calls, code = _entry_calls(monkeypatch, OSError(28, "No space left on device"))
    assert code == 3
    assert calls == ["disable", "main", "atexit", "flush stdout"]


def _without_unbuffered():
    """The environment of a child whose standard streams are buffered and
    that imports glyphspect from this tree."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": str(Path(cli.__file__).parents[1])}


def test_module_entry_flushes_buffered_output_to_a_pipe(trained, capsys):
    argv = ["featurize", "--manifest", str(trained.manifest), "--m", "2"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    # a larger write bypasses the 8 KiB buffer, so only a flush can lose this
    assert len(out) < io.DEFAULT_BUFFER_SIZE
    done = subprocess.run(
        [sys.executable, "-m", "glyphspect.cli", *argv],
        capture_output=True, env=_without_unbuffered(),
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == out.encode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_module_entry_on_a_full_stdout_exits_as_the_interpreter_does(trained):
    """A flush that fails leaves the exit to the interpreter: the code (120)
    and message are those of a process that returns main()'s code."""
    argv = ["predict", "--model", str(trained.model), str(trained.glyph)]
    by_main = "import sys; from glyphspect.cli import main; sys.exit(main(sys.argv[1:]))"
    results = []
    for entry in (["-m", "glyphspect.cli"], ["-c", by_main]):
        with open("/dev/full", "wb") as full:
            done = subprocess.run(
                [sys.executable, *entry, *argv], stdout=full,
                stderr=subprocess.PIPE, env=_without_unbuffered(),
            )
        results.append((done.returncode, done.stderr))
    assert results[0] == results[1]
    assert results[0][0] == 120


@pytest.mark.parametrize(
    "case, code",
    [("predict", 0), ("no-model", 1), ("corrupt-pgm", 2), ("synth-fails", 3)],
)
def test_module_entry_prints_and_exits_as_main(trained, tmp_path, capsys, case, code):
    model, glyph, corrupt = trained.model, trained.glyph, tmp_path / "corrupt.pgm"
    corrupt.write_bytes(b"P2 broken")
    # ink only in two opposite corners: the 1x1 resize keeps none, so every
    # retry fails and synth exits 3
    (tmp_path / "corner").mkdir()
    (tmp_path / "corner" / "corner.pgm").write_bytes(
        b"P2 3 3 255\n255 255 0\n255 255 255\n0 255 255\n"
    )
    argv = {
        "predict": ["predict", "--model", str(model), str(glyph)],
        "no-model": ["predict", str(glyph)],
        "corrupt-pgm": ["predict", "--model", str(model), str(corrupt)],
        "synth-fails": ["synth", "--out", str(tmp_path / "none"), "--templates",
                        str(tmp_path / "corner"), "--n", "1", "--flips", "0",
                        "--max-shift", "0"],
    }[case]
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert err.count("\n") == (code != 0)  # an error is one stderr line
    done = subprocess.run(
        [sys.executable, "-m", "glyphspect.cli", *argv],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


def test_console_script_enters_through_run():
    try:
        dist = importlib.metadata.distribution("glyphspect")
    except importlib.metadata.PackageNotFoundError:
        # not installed, as under PYTHONPATH=src: the script pyproject.toml declares
        tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11")
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
        scripts = [project["scripts"].get("glyphspect")]
    else:
        scripts = [
            ep.value for ep in dist.entry_points
            if ep.group == "console_scripts" and ep.name == "glyphspect"
        ]
    assert scripts == ["glyphspect.cli:run"]
