import argparse
import contextlib
import io
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from glyphspect import cli, dataset, evaluation, features, imaging, svm
from glyphspect.svm import load_model


def run(argv):
    return cli.main(argv)


def synth_corpus(tmp_path, count=8, flips=0.01, seed=42):
    out = tmp_path / "corpus"
    code = run(
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


class TestHelp:
    @pytest.mark.parametrize("command", list(OPTIONS))
    def test_help_lists_flags_with_defaults(self, command, capsys):
        subparsers = next(
            action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert list(subparsers.choices) == list(OPTIONS)
        declared = [
            option for action in subparsers.choices[command]._actions
            for option in action.option_strings
        ]
        assert declared == ["-h", "--help", *OPTIONS[command].split(), "--config"]
        assert run([command, "--help"]) == 0
        text = capsys.readouterr().out
        assert "default" in text
        assert set(declared) <= set(text.replace(",", " ").split())

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["train", "--nonsense"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["synth", "--m", "4"], ["synth", "--normalize-l2"],
         ["featurize", "--manifest", "manifest.csv", "--seed", "1"],
         ["train", "--sweep", "gamma=1"]],
        ids=["synth-m", "synth-normalize-l2", "featurize-seed", "train-sweep"],
    )
    def test_flag_the_command_does_not_read_is_usage_error(self, tmp_path, capsys, argv):
        if argv[0] == "synth":
            argv = [*argv, "--out", str(tmp_path / "corpus")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: usage: unrecognized arguments:")
        assert err.count("\n") == 1
        assert not (tmp_path / "corpus").exists()


class TestSynth:
    def test_builtin_corpus_layout(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=3)
        pgms = sorted(p.name for p in out.glob("*.pgm"))
        assert len(pgms) == 12  # 4 builtin classes
        assert (out / "manifest.csv").is_file()
        assert (out / "registry.csv").is_file()
        stdout = capsys.readouterr().out
        assert "12 samples" in stdout

    def test_missing_template_dir(self, tmp_path, capsys):
        code = run(
            ["synth", "--out", str(tmp_path / "o"), "--templates", str(tmp_path / "nope")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: synth:")
        assert err.strip().count("\n") == 0

    @pytest.mark.parametrize(
        "data, message",
        [(b"P2 2 2 255\n255 255 255 255\n", "empty glyph"),
         (b"P9\n", "malformed magic number")],
        ids=["blank", "malformed"],
    )
    def test_bad_template_is_named(self, tmp_path, capsys, data, message):
        tdir = tmp_path / "templates"
        tdir.mkdir()
        (tdir / "a.pgm").write_bytes(b"P2 3 3 255\n0 0 0 0 0 0 0 255 255\n")
        bad = tdir / "b.pgm"
        bad.write_bytes(data)
        code = run(["synth", "--out", str(tmp_path / "o"), "--templates", str(tdir)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: synth: {str(bad)!r}: {message}")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_custom_template_dir(self, tmp_path):
        tdir = tmp_path / "templates"
        tdir.mkdir()
        (tdir / "blob.pgm").write_bytes(b"P2 3 3 255\n0 0 0 0 0 0 0 255 255\n")
        out = tmp_path / "corpus"
        assert run(
            ["synth", "--out", str(out), "--templates", str(tdir), "--count", "2",
             "--flips", "0", "--max-shift", "0"]
        ) == 0
        assert len(list(out.glob("blob_*.pgm"))) == 2

    def test_synthesis_failure_exits_3(self, tmp_path, capsys):
        tdir = tmp_path / "templates"
        tdir.mkdir()
        # single ink pixel; flips=1.0 erases it on every draw
        (tdir / "dot.pgm").write_bytes(b"P2 2 1 255\n0 255\n")
        code = run(
            ["synth", "--out", str(tmp_path / "o"), "--templates", str(tdir),
             "--count", "1", "--flips", "1.0", "--max-shift", "0"]
        )
        assert code == 3
        assert "error: synth:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--count", "0"], ["--flips", "2"], ["--max-shift", "-1"],
         ["--scale-jitter", "0.9"]],
        ids=["count", "flips", "max-shift", "scale-jitter"],
    )
    def test_out_of_range_perturbation_is_usage_error(self, tmp_path, capsys, flags):
        code = run(["synth", "--out", str(tmp_path / "o"), *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: synth:") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()


class TestFeaturize:
    def test_line_format(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=2)
        capsys.readouterr()
        assert run(["featurize", "--manifest", str(out / "manifest.csv")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8
        first = lines[0].split(",")
        assert first[0] in ("cup", "cup-bar", "ring", "ring-gap")
        assert len(first) == 1 + 32  # label + 2m values at defaults
        float(first[1])

    def test_out_file_and_m_flag(self, tmp_path):
        out = synth_corpus(tmp_path, count=2)
        dest = tmp_path / "features.csv"
        assert run(
            ["featurize", "--manifest", str(out / "manifest.csv"), "--m", "4",
             "--out", str(dest)]
        ) == 0
        lines = dest.read_text().strip().splitlines()
        assert all(len(line.split(",")) == 9 for line in lines)

    @pytest.mark.parametrize("first", ["blank-small.pgm", "blank-big.pgm"])
    def test_blank_glyphs_name_the_first_in_manifest_order(
        self, tmp_path, capsys, first
    ):
        out = synth_corpus(tmp_path, count=2)
        capsys.readouterr()
        # The 32x32 group is featurized first, whichever blank row comes
        # first; a raster of zeros only is as blank as any other uniform one.
        (out / "blank-small.pgm").write_bytes(b"P2 4 4 255\n" + b"0 " * 16)
        (out / "blank-big.pgm").write_bytes(b"P5 32 32 255\n" + b"\xc8" * 1024)
        blanks = ["blank-small.pgm,ring", "blank-big.pgm,cup"]
        if first == "blank-big.pgm":
            blanks.reverse()
        rows = (out / "manifest.csv").read_text().splitlines()
        rows[2:2] = blanks
        rows[3], rows[5] = rows[5], rows[3]  # a glyph between the two blanks
        (out / "manifest.csv").write_text("\n".join(rows) + "\n")
        code = run(["featurize", "--manifest", str(out / "manifest.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: featurize: {first!r}: empty glyph\n"
        assert captured.out == ""


class TestTrainEvaluatePredict:
    def test_full_pipeline(self, tmp_path, capsys):
        out = synth_corpus(tmp_path)
        model = tmp_path / "model.json"
        code = run(
            ["train", "--manifest", str(out / "manifest.csv"),
             "--registry", str(out / "registry.csv"),
             "--model", str(model),
             "--gamma", "2", "--normalize-l2"]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "pair ring/ring-gap" in stdout
        assert "train accuracy" in stdout
        assert model.is_file()

        pm = load_model(model.read_bytes())
        assert pm.meta.seed == 42
        assert pm.meta.normalize is True

        csv_path = tmp_path / "report.csv"
        code = run(
            ["evaluate", "--model", str(model),
             "--manifest", str(out / "manifest.csv"), "--csv", str(csv_path)]
        )
        assert code == 0
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
        code = run(["predict", "--model", str(model), str(glyph)])
        assert code == 0
        pred = capsys.readouterr().out
        pm = load_model(model.read_bytes())
        gray = imaging.load_pgm(glyph.read_bytes())
        vec = cli._glyph_vector(gray, pm.meta)
        winner, votes = svm.predict_multiclass(pm, vec)
        assert pred.splitlines() == [
            f"predicted: {winner}",
            "votes: " + " ".join(f"{cls}={votes[cls]}" for cls in pm.classes),
            *(f"decision {mdl.pos_class}/{mdl.neg_class}: "
              f"{svm.decision(mdl, vec):+.6f}" for mdl in pm.models),
        ]
        assert "decision ring/ring-gap:" in pred
        assert "decision cup/cup-bar:" in pred

    def test_train_is_deterministic(self, tmp_path):
        out = synth_corpus(tmp_path)
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        for path in (m1, m2):
            assert run(
                ["train", "--manifest", str(out / "manifest.csv"),
                 "--registry", str(out / "registry.csv"),
                 "--model", str(path), "--gamma", "2", "--normalize-l2"]
            ) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_solver_iteration_bound_exits_3(self, tmp_path, capsys, monkeypatch):
        out = synth_corpus(tmp_path, count=3)
        monkeypatch.setattr(svm, "_ITERATIONS_PER_SAMPLE", 0)
        code = run(
            ["train", "--manifest", str(out / "manifest.csv"),
             "--registry", str(out / "registry.csv"),
             "--model", str(tmp_path / "m.json")]
        )
        assert code == 3
        assert "error: train:" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_small_class_names_class(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=3)
        manifest = out / "manifest.csv"
        rows = manifest.read_text().splitlines()
        # keep only one 'ring' row, everything else intact
        ring_rows = [r for r in rows[1:] if r.endswith(",ring")]
        others = [r for r in rows[1:] if not r.endswith(",ring")]
        manifest.write_text("\n".join([rows[0]] + ring_rows[:1] + others) + "\n")
        code = run(
            ["train", "--manifest", str(manifest),
             "--registry", str(out / "registry.csv"),
             "--model", str(tmp_path / "m.json")]
        )
        assert code == 2
        assert "'ring'" in capsys.readouterr().err

    def test_registry_class_absent_from_manifest(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=2)
        registry = tmp_path / "registry.csv"
        registry.write_text("correct_class,error_class\nring,ghost\n")
        code = run(
            ["train", "--manifest", str(out / "manifest.csv"),
             "--registry", str(registry), "--model", str(tmp_path / "m.json")]
        )
        assert code == 2
        assert "'ghost'" in capsys.readouterr().err

    def test_default_gamma_fits_raw_features(self, tmp_path):
        # raw ink counts, no --gamma: 1/(2m) would score each pair near 50%
        out = tmp_path / "corpus"
        assert run(
            ["synth", "--out", str(out), "--seed", "7", "--flips", "0.05",
             "--scale-jitter", "0.2", "--max-shift", "2"]
        ) == 0
        manifest = out / "manifest.csv"
        model = tmp_path / "m.json"
        report = tmp_path / "report.csv"
        assert run(
            ["train", "--manifest", str(manifest),
             "--registry", str(out / "registry.csv"), "--model", str(model)]
        ) == 0
        assert run(
            ["evaluate", "--model", str(model), "--manifest", str(manifest),
             "--csv", str(report)]
        ) == 0
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

    def test_zero_variance_gamma_falls_back_to_one_over_2m(self, tmp_path):
        out = synth_corpus(tmp_path, count=2)
        glyph = (out / "manifest.csv").read_text().splitlines()[1].split(",")[0]
        manifest = out / "one-glyph.csv"
        manifest.write_text(
            "path,label\n" + f"{glyph},ring\n{glyph},ring-gap\n" * 2
        )
        registry = out / "ring.csv"
        registry.write_text("correct_class,error_class\nring,ring-gap\n")
        models = []
        for extra in ([], ["--gamma", "0.5"]):
            model = tmp_path / f"m{len(models)}.json"
            assert run(
                ["train", "--manifest", str(manifest), "--registry", str(registry),
                 "--model", str(model), "--m", "1", *extra]
            ) == 0
            models.append(model.read_bytes())
        # with m = 1 both features are the ink count, so Var is exactly 0
        assert models[0] == models[1]
        assert load_model(models[0]).models[0].gamma == 0.5

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_explicit_gamma_is_stored_exactly(self, tmp_path, source):
        out = synth_corpus(tmp_path, count=2)
        if source == "flag":
            extra = ["--gamma", "0.3"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"gamma": 0.3}))
            extra = ["--config", str(cfg)]
        model = tmp_path / "m.json"
        assert run(
            ["train", "--manifest", str(out / "manifest.csv"),
             "--registry", str(out / "registry.csv"), "--model", str(model), *extra]
        ) == 0
        assert load_model(model.read_bytes()).models[0].gamma == 0.3

    def test_evaluate_refuses_manifest_missing_a_model_class(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=4)
        model = tmp_path / "m.json"
        assert run(
            ["train", "--manifest", str(out / "manifest.csv"),
             "--registry", str(out / "registry.csv"),
             "--model", str(model), "--gamma", "2"]
        ) == 0
        rows = (out / "manifest.csv").read_text().splitlines()
        manifest = out / "no-cup.csv"
        manifest.write_text(
            "\n".join(r for r in rows if not r.endswith(",cup")) + "\n"
        )
        capsys.readouterr()
        code = run(["evaluate", "--model", str(model), "--manifest", str(manifest)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "'cup'" in captured.err

    def test_single_sample_class_is_refused_by_the_split(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=4)
        model = tmp_path / "m.json"
        assert run(
            ["train", "--manifest", str(out / "manifest.csv"),
             "--registry", str(out / "registry.csv"),
             "--model", str(model), "--gamma", "2"]
        ) == 0
        rows = (out / "manifest.csv").read_text().splitlines()
        cups = [r for r in rows if r.endswith(",cup")]
        manifest = out / "one-cup.csv"
        manifest.write_text(
            "\n".join([r for r in rows if not r.endswith(",cup")] + cups[:1]) + "\n"
        )
        capsys.readouterr()
        for argv in (
            ["train", "--manifest", str(manifest), "--registry",
             str(out / "registry.csv"), "--model", str(tmp_path / "m2.json")],
            ["evaluate", "--model", str(model), "--manifest", str(manifest)],
        ):
            assert run(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            assert "class 'cup' has only 1 sample(s)" in captured.err
        assert not (tmp_path / "m2.json").exists()

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
        code = run(
            ["train", "--manifest", str(out / "manifest.csv"),
             "--registry", str(out / "registry.csv"), "--model", str(tmp_path / "m")]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: train: {first!r}: empty glyph\n"

    def test_evaluate_class_in_two_pairs(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=6)
        registry = tmp_path / "registry.csv"
        registry.write_text("correct_class,error_class\nring,ring-gap\nring,cup\n")
        model = tmp_path / "m.json"
        csv_path = tmp_path / "report.csv"
        assert run(
            ["train", "--manifest", str(out / "manifest.csv"),
             "--registry", str(registry), "--model", str(model),
             "--gamma", "2", "--normalize-l2"]
        ) == 0
        assert run(
            ["evaluate", "--model", str(model),
             "--manifest", str(out / "manifest.csv"), "--csv", str(csv_path)]
        ) == 0

        pm = load_model(model.read_bytes())
        samples = dataset.load_manifest(out / "manifest.csv")
        _, test = dataset.split_even(
            [s for s in samples if s.label in pm.classes], pm.meta.seed
        )
        rows = csv_path.read_text().splitlines()[1:]
        assert len(rows) == 2
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
            expected = evaluation.report_csv(
                [((pos, neg), counts, evaluation.metrics(counts))]
            )
            assert row == expected.splitlines()[1]

    def test_non_finite_kernel_value_is_usage_error(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=2)
        capsys.readouterr()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": float("nan")}))  # writes the NaN literal
        model = tmp_path / "m.json"
        code = run(
            ["train", "--manifest", str(out / "manifest.csv"),
             "--registry", str(out / "registry.csv"), "--model", str(model),
             "--config", str(cfg)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: train:") and err.count("\n") == 1
        assert "must be positive and finite" in err
        assert not model.exists()

    def test_predict_empty_glyph(self, tmp_path, capsys):
        out = synth_corpus(tmp_path)
        model = tmp_path / "model.json"
        run(["train", "--manifest", str(out / "manifest.csv"),
             "--registry", str(out / "registry.csv"), "--model", str(model),
             "--gamma", "2", "--normalize-l2"])
        capsys.readouterr()
        blank = tmp_path / "blank.pgm"
        blank.write_bytes(b"P2 4 4 255\n" + b"255 " * 16 + b"\n")
        code = run(["predict", "--model", str(model), str(blank)])
        assert code == 2
        assert capsys.readouterr().err == f"error: predict: {str(blank)!r}: empty glyph\n"

    def test_predict_names_a_malformed_image(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=2)
        model = tmp_path / "model.json"
        run(["train", "--manifest", str(out / "manifest.csv"),
             "--registry", str(out / "registry.csv"), "--model", str(model)])
        capsys.readouterr()
        cut = tmp_path / "cut\nshort.pgm"  # the quoted path keeps one line
        cut.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
        code = run(["predict", "--model", str(model), str(cut)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: predict: {str(cut)!r}: "
            "truncated pixel data: expected 16 bytes, found 10\n"
        )

    def test_corrupt_model_is_data_error(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=2)
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code = run(
            ["evaluate", "--model", str(bad), "--manifest", str(out / "manifest.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize("flags", [["--m", "0"], ["--n", "0"], ["--gamma", "0"],
                                       ["--c", "-1"], ["--gamma", "nan"],
                                       ["--gamma", "inf"], ["--c", "inf"]])
    def test_out_of_range_flag_is_usage_error(self, tmp_path, capsys, flags):
        code = run(
            ["train", "--manifest", str(tmp_path / "none.csv"),
             "--registry", str(tmp_path / "r.csv"), "--model", str(tmp_path / "m"),
             *flags]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: train:")

    def test_unparseable_model_is_one_line_data_error(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=2)
        capsys.readouterr()
        deep = tmp_path / "deep.json"
        deep.write_bytes(b"[" * 100000)
        code = run(
            ["evaluate", "--model", str(deep), "--manifest", str(out / "manifest.csv")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: evaluate:") and err.count("\n") == 1

    def test_newline_in_model_class_is_one_line_data_error(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=2)
        model = tmp_path / "model.json"
        run(["train", "--manifest", str(out / "manifest.csv"),
             "--registry", str(out / "registry.csv"), "--model", str(model)])
        capsys.readouterr()
        doc = json.loads(model.read_text())
        entry = doc["pairs"][0]
        entry["pos_class"], entry["bias"] = "ring\nevil", "x"
        model.write_text(json.dumps(doc))
        code = run(
            ["evaluate", "--model", str(model), "--manifest", str(out / "manifest.csv")]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: evaluate: pair 'ring\\nevil'/{entry['neg_class']!r}: "
            "field 'bias' must be a real number\n"
        )

    def test_oversized_manifest_cell_is_one_line_data_error(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=2)
        capsys.readouterr()
        manifest = tmp_path / "big.csv"
        manifest.write_bytes(b"path,label\n" + b"a" * 131073 + b",ring\n")
        code = run(
            ["train", "--manifest", str(manifest),
             "--registry", str(out / "registry.csv"), "--model", str(tmp_path / "m")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: train:") and err.count("\n") == 1

    def test_newline_in_manifest_cell_is_one_line_data_error(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=2)
        capsys.readouterr()
        manifest = out / "manifest.csv"
        # every ring row names a missing file; train decodes its train-half one
        rows = manifest.read_text().splitlines()
        rows = ['"a\nb",ring' if r.endswith(",ring") else r for r in rows]
        manifest.write_text("\n".join(rows) + "\n")
        train_half, _ = dataset.split_even(dataset.read_manifest(manifest), 42)
        line_no = next(row.line_no for row in train_half if row.label == "ring")
        code = run(
            ["train", "--manifest", str(manifest),
             "--registry", str(out / "registry.csv"), "--model", str(tmp_path / "m")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: train: manifest row {line_no}: 'a\\nb'")
        assert err.count("\n") == 1

    def test_newline_in_registry_cell_is_one_line_error(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=2)
        capsys.readouterr()
        registry = tmp_path / "nl.csv"
        registry.write_bytes(b'correct_class,error_class\n"ri\nng",cup\n')
        code = run(
            ["train", "--manifest", str(out / "manifest.csv"),
             "--registry", str(registry), "--model", str(tmp_path / "m")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: train: class 'ri\\nng' has 0 sample(s)")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag, code",
        [("--manifest", 2), ("--registry", 2), ("--templates", 2), ("--config", 1)],
    )
    def test_newline_in_path_is_one_line_error(self, tmp_path, capsys, flag, code):
        out = synth_corpus(tmp_path, count=2)
        capsys.readouterr()
        bad = str(tmp_path / "no\nsuch")
        manifest = str(out / "manifest.csv")
        argv = {
            "--manifest": ["featurize", "--manifest", bad],
            "--registry": ["train", "--manifest", manifest, "--registry", bad,
                           "--model", str(tmp_path / "m")],
            "--templates": ["synth", "--out", str(tmp_path / "o"), "--templates", bad],
            "--config": ["featurize", "--manifest", manifest, "--config", bad],
        }[flag]
        assert run(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: {argv[0]}:") and err.count("\n") == 1
        assert repr(bad) in err

    def test_missing_manifest_is_data_error(self, tmp_path, capsys):
        code = run(
            ["train", "--manifest", str(tmp_path / "none.csv"),
             "--registry", str(tmp_path / "r.csv"), "--model", str(tmp_path / "m")]
        )
        assert code == 2


class TestDecodeOnlyTheHalfUsed:
    """`train` and `evaluate` decode only the manifest rows of the half they use."""

    def train(self, out, model):
        return run(
            ["train", "--manifest", str(out / "manifest.csv"),
             "--registry", str(out / "registry.csv"), "--model", str(model),
             "--gamma", "2", "--normalize-l2"]
        )

    def evaluate(self, out, model):
        return run(
            ["evaluate", "--model", str(model), "--manifest", str(out / "manifest.csv")]
        )

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
        assert self.train(out, model) == 0
        assert decoded == [(out / row.source_id).read_bytes() for row in train_half]
        decoded.clear()
        assert self.evaluate(out, model) == 0
        assert decoded == [(out / row.source_id).read_bytes() for row in test_half]

    def test_corrupt_test_half_glyph_fails_only_evaluate(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=4)
        _, test_half = dataset.split_even(dataset.read_manifest(out / "manifest.csv"), 42)
        bad = test_half[1]
        (out / bad.source_id).write_bytes(b"P2 broken")
        model = tmp_path / "m.json"
        assert self.train(out, model) == 0
        capsys.readouterr()
        assert self.evaluate(out, model) == 2
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
        assert self.train(out, model) == 0
        assert self.evaluate(out, model) == 0
        assert len(decoded) == 16 and b"P2 broken" not in decoded
        decoded.clear()
        capsys.readouterr()

        manifest.write_text(text + "just-one-field\n")
        line_no = len(text.splitlines()) + 1
        assert self.train(out, model) == 2
        assert self.evaluate(out, model) == 2
        assert capsys.readouterr().err == "".join(
            f"error: {cmd}: manifest row {line_no}: expected 'path,label'\n"
            for cmd in ("train", "evaluate")
        )
        assert decoded == []


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=2)
        capsys.readouterr()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 4, "n": 16}))
        assert run(
            ["featurize", "--manifest", str(out / "manifest.csv"),
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
            assert run(["synth", "--out", str(out), "--count", "2", *synth_flags]) == 0
            capsys.readouterr()
            manifest = str(out / "manifest.csv")
            assert run(["featurize", "--manifest", manifest, *featurize_flags]) == 0
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            return files, capsys.readouterr().out

        shared = synth_and_featurize("shared", ["--config", str(cfg)], ["--config", str(cfg)])
        flags = synth_and_featurize("flags", ["--seed", "7"], ["--m", "4", "--normalize-l2"])
        assert shared == flags
        assert len(shared[1].splitlines()[0].split(",")) == 9

    def test_config_can_supply_paths(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=2)
        capsys.readouterr()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"manifest": str(out / "manifest.csv"), "m": 2}))
        assert run(["featurize", "--config", str(cfg)]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 8

    def test_missing_required_path_is_usage_error(self, capsys):
        assert run(["featurize"]) == 1
        assert "--manifest" in capsys.readouterr().err

    def test_config_keys_follow_the_flags(self):
        assert cli._CONFIG_KEYS == {
            "n": int, "m": int, "gamma": float, "c": float, "seed": int,
            "normalize_l2": bool, "manifest": str, "registry": str, "model": str,
            "csv": str,
        }

    def test_config_can_supply_every_path(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=4)
        capsys.readouterr()
        manifest = str(out / "manifest.csv")

        def train_and_evaluate(tag):
            """Model bytes, stdout and CSV of train then evaluate, each given
            every path it reads by flags or, for tag "config", a config file."""
            run_dir = tmp_path / tag
            run_dir.mkdir()
            model = str(run_dir / "model.json")
            for command, paths, extra in (
                ("train", {"manifest": manifest, "registry": str(out / "registry.csv"),
                           "model": model}, ["--gamma", "2", "--normalize-l2"]),
                ("evaluate", {"model": model, "manifest": manifest,
                              "csv": str(run_dir / "report.csv")}, []),
            ):
                if tag == "config":
                    cfg = run_dir / f"{command}.json"
                    cfg.write_text(json.dumps(paths))
                    argv = ["--config", str(cfg)]
                else:
                    argv = [arg for key, path in paths.items() for arg in ("--" + key, path)]
                assert run([command, *argv, *extra]) == 0
            stdout = capsys.readouterr().out.replace(str(run_dir), "DIR")
            return (
                (run_dir / "model.json").read_bytes(), stdout,
                (run_dir / "report.csv").read_bytes(),
            )

        flags = train_and_evaluate("flags")
        assert train_and_evaluate("config") == flags
        assert "model written: DIR" in flags[1] and "ring-gap" in flags[1]

    @pytest.mark.parametrize(
        "argv, missing",
        [(["evaluate", "--model", "{tmp}/bad.json"], "--manifest"),
         (["train", "--manifest", "{tmp}/none.csv", "--model", "{tmp}/m.json"],
          "--registry")],
        ids=["evaluate-manifest", "train-registry"],
    )
    def test_missing_path_is_checked_before_any_file_is_read(
        self, tmp_path, capsys, argv, missing
    ):
        # evaluate's model file and train's manifest are both bad: the missing
        # path is reported first, as a usage error
        (tmp_path / "bad.json").write_text("{}")
        code = run([arg.format(tmp=tmp_path) for arg in argv])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {argv[0]}: {missing} is required (flag or config file)\n"
        assert not (tmp_path / "m.json").exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=2)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = run(
            ["featurize", "--manifest", str(out / "manifest.csv"), "--config", str(cfg)]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "doc",
        [{"n": [16]}, {"normalize_l2": "false"}, {"n": 16.9}, {"n": True}],
        ids=["list", "string-for-bool", "float-for-int", "bool-for-int"],
    )
    def test_config_value_of_wrong_kind_is_usage_error(self, tmp_path, capsys, doc):
        out = synth_corpus(tmp_path, count=2)
        capsys.readouterr()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = run(
            ["featurize", "--manifest", str(out / "manifest.csv"), "--config", str(cfg)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: featurize:")

    @pytest.mark.parametrize(
        "data", [b"\xff", b"[" * 100000, b"1" * 5000],
        ids=["not-utf8", "deep-nesting", "5000-digit-integer"],
    )
    def test_config_not_valid_json_is_usage_error(self, tmp_path, capsys, data):
        # json.loads refuses the last two with RecursionError and a ValueError
        # that is not a JSONDecodeError, as in test_svm's
        # test_unparseable_json_rejected
        out = synth_corpus(tmp_path, count=2)
        capsys.readouterr()
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(data)
        code = run(
            ["featurize", "--manifest", str(out / "manifest.csv"), "--config", str(cfg)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: featurize: config file is not valid JSON:")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert captured.out == ""

    def test_invalid_m_is_usage_error(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=2)
        code = run(
            ["featurize", "--manifest", str(out / "manifest.csv"), "--m", "64"]
        )
        assert code == 1
        assert "m must" in capsys.readouterr().err


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("config")
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["synth", "--out", str(root / "corpus"), "--count", "1"]) == 0
    return root


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
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
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
def test_config_reader_raises_only_usage_errors(config_dir, data):
    path = config_dir / "fuzz.json"
    path.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(
            ["featurize", "--manifest", str(config_dir / "corpus" / "manifest.csv"),
             "--config", str(path)]
        )
    assert code == 1
    lines = err.getvalue().splitlines(keepends=True)
    assert len(lines) == 1 and lines[0].startswith("error: featurize: ")


@pytest.mark.parametrize(
    "error, code",
    [(cli.UsageError("boom"), 1),
     (svm.DegenerateTrainingError("boom"), 3),
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
    assert run(["featurize", "--manifest", "manifest.csv"]) == code
    assert capsys.readouterr() == ("", "error: featurize: boom\n")


def test_unexpected_error_propagates(monkeypatch):
    def fail(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_featurize", fail)
    with pytest.raises(RuntimeError, match="boom"):
        run(["featurize", "--manifest", "manifest.csv"])
