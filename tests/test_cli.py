import json

import pytest

from glyphspect import cli, svm
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


class TestHelp:
    @pytest.mark.parametrize(
        "command", ["synth", "featurize", "train", "evaluate", "predict"]
    )
    def test_help_lists_flags_with_defaults(self, command, capsys):
        assert run([command, "--help"]) == 0
        text = capsys.readouterr().out
        assert "default" in text
        if command in ("synth", "featurize", "train"):
            assert "--n" in text and "--m" in text
        if command == "train":
            assert "--gamma" in text and "--c" in text and "--sweep" in text
        if command == "evaluate":
            assert "--csv" in text

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["train", "--nonsense"]) == 1
        assert "error" in capsys.readouterr().err


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
        assert pred.splitlines()[0].startswith("predicted: ")
        assert "votes:" in pred
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

    def test_sweep_selects_and_reports(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=4)
        model = tmp_path / "m.json"
        code = run(
            ["train", "--manifest", str(out / "manifest.csv"),
             "--registry", str(out / "registry.csv"),
             "--model", str(model), "--normalize-l2",
             "--sweep", "gamma=0.03125,2"]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "sweep gamma=0.03125:" in stdout
        assert "sweep gamma=2:" in stdout
        assert "selected gamma=" in stdout
        assert model.is_file()

    def test_bad_sweep_spec_is_usage_error(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=2)
        code = run(
            ["train", "--manifest", str(out / "manifest.csv"),
             "--registry", str(out / "registry.csv"),
             "--model", str(tmp_path / "m.json"), "--sweep", "kappa=1"]
        )
        assert code == 1

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
        assert "empty glyph" in capsys.readouterr().err

    def test_corrupt_model_is_data_error(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=2)
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code = run(
            ["evaluate", "--model", str(bad), "--manifest", str(out / "manifest.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize("flags", [["--m", "0"], ["--n", "0"], ["--gamma", "0"],
                                       ["--c", "-1"]])
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

    def test_missing_manifest_is_data_error(self, tmp_path, capsys):
        code = run(
            ["train", "--manifest", str(tmp_path / "none.csv"),
             "--registry", str(tmp_path / "r.csv"), "--model", str(tmp_path / "m")]
        )
        assert code == 2


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

    def test_unknown_config_key(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=2)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = run(
            ["featurize", "--manifest", str(out / "manifest.csv"), "--config", str(cfg)]
        )
        assert code == 1

    def test_config_value_of_wrong_kind_is_usage_error(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=2)
        capsys.readouterr()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": [16]}))
        code = run(
            ["featurize", "--manifest", str(out / "manifest.csv"), "--config", str(cfg)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: featurize:")

    def test_invalid_m_is_usage_error(self, tmp_path, capsys):
        out = synth_corpus(tmp_path, count=2)
        code = run(
            ["featurize", "--manifest", str(out / "manifest.csv"), "--m", "64"]
        )
        assert code == 1
        assert "m must" in capsys.readouterr().err
