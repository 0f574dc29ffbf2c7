"""Command-line frontend: synthesize corpora, featurize, train, evaluate, predict.

Exit codes: 0 success, 1 usage error, 2 data error, 3 training or numeric
failure. Every error path prints a single-line diagnostic naming the
failing subcommand to standard error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import dataset, evaluation, features, imaging, svm

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRAINING = 3

_CONFIG_KEYS = (
    "n",
    "m",
    "gamma",
    "c",
    "seed",
    "normalize_l2",
    "manifest",
    "registry",
    "model",
    "csv",
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; 2 is reserved for data errors.
    def error(self, message):
        raise UsageError(message)


def _load_config_file(args) -> None:
    """Fill unset flags from a JSON config file; explicit flags win."""
    if getattr(args, "config", None) is None:
        return
    path = Path(args.config)
    if not path.is_file():
        raise UsageError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise UsageError("config file must contain a JSON object")
    for key, value in doc.items():
        if key not in _CONFIG_KEYS:
            raise UsageError(f"unknown config key '{key}'")
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)


def _require(args, name: str) -> str:
    value = getattr(args, name, None)
    if value is None:
        raise UsageError(f"--{name} is required (flag or config file)")
    return str(value)


def _resolve(args) -> tuple[svm.ModelMeta, svm.KernelParams]:
    """Pipeline settings from flags and config file; n defaults to 32, m to
    n/2, gamma to 1/(2m), c to 10 and seed to 42. A value the model types
    reject is a usage error."""
    try:
        n = int(args.n) if getattr(args, "n", None) is not None else 32
        if getattr(args, "m", None) is not None:
            m = int(args.m)
        else:
            m = max(1, n // 2)
        seed = int(args.seed) if getattr(args, "seed", None) is not None else 42
        normalize = bool(getattr(args, "normalize_l2", None))
        meta = svm.ModelMeta(n=n, m=m, seed=seed, normalize=normalize)
        if getattr(args, "gamma", None) is not None:
            gamma = float(args.gamma)
        else:
            gamma = svm.default_gamma(2 * m)
        c = float(args.c) if getattr(args, "c", None) is not None else 10.0
        return meta, svm.KernelParams(gamma=gamma, c=c)
    except (TypeError, ValueError) as exc:  # TypeError: e.g. a list in the config
        raise UsageError(str(exc)) from None


def _glyph_vector(
    image: imaging.GrayImage, n: int, m: int, normalize: bool
) -> tuple[float, ...]:
    """Normalize one grayscale glyph and extract its feature vector."""
    binary, _ = imaging.binarize_otsu(image)
    squared = imaging.resize_to_square(imaging.crop_to_bbox(binary), n)
    return features.extract_features(squared, m, normalize=normalize).values


def _featurize_samples(samples, n, m, normalize):
    vectors = [_glyph_vector(s.image, n, m, normalize) for s in samples]
    labels = [s.label for s in samples]
    return vectors, labels


def _require_pair_counts(samples, registry) -> None:
    counts: dict[str, int] = {cls: 0 for cls in registry.classes}
    for sample in samples:
        if sample.label in counts:
            counts[sample.label] += 1
    for cls, k in counts.items():
        if k < 2:
            raise ValueError(
                f"class '{cls}' has {k} sample(s) in the manifest; "
                "need at least 2"
            )


def cmd_synth(args) -> int:
    meta, _ = _resolve(args)
    out_dir = Path(args.out)
    if args.templates is not None:
        tpl_dir = Path(args.templates)
        if not tpl_dir.is_dir():
            raise ValueError(f"template directory not found: {tpl_dir}")
        files = sorted(tpl_dir.glob("*.pgm"))
        if not files:
            raise ValueError(f"no .pgm templates in {tpl_dir}")
        templates = {}
        for path in files:
            gray = imaging.load_pgm(path.read_bytes())
            binary, _ = imaging.binarize_otsu(gray)
            templates[path.stem] = imaging.crop_to_bbox(binary)
        registry = None
    else:
        templates = dataset.builtin_templates()
        registry = dataset.builtin_registry()

    params = dataset.SynthParams(
        flips=args.flips,
        max_shift=args.max_shift,
        scale_jitter=args.scale_jitter,
        count=args.count,
        seed=meta.seed,
    )
    samples = dataset.synth_generate(templates, params, meta.n)
    manifest = dataset.write_corpus(samples, out_dir)
    if registry is not None:
        dataset.write_registry(registry, out_dir / "registry.csv")
    print(f"wrote {len(samples)} samples ({len(templates)} classes) to {out_dir}")
    print(f"manifest: {manifest}")
    return EXIT_OK


def cmd_featurize(args) -> int:
    meta, _ = _resolve(args)
    samples = dataset.load_manifest(_require(args, "manifest"))
    lines = []
    for sample in samples:
        vec = _glyph_vector(sample.image, meta.n, meta.m, meta.normalize)
        lines.append(
            sample.label + "," + ",".join(format(v, ".17g") for v in vec)
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _parse_sweep(
    spec: str, params: svm.KernelParams
) -> tuple[str, list[svm.KernelParams]]:
    """The swept name and one candidate per listed value."""
    name, eq, rest = spec.partition("=")
    if eq != "=" or name not in ("gamma", "c") or not rest:
        raise UsageError("--sweep expects gamma=v1,v2,... or c=v1,v2,...")
    try:
        return name, [
            dataclasses.replace(params, **{name: float(v)}) for v in rest.split(",")
        ]
    except ValueError as exc:
        raise UsageError(f"--sweep: {exc}") from None


def _train_once(
    train_samples, registry, meta: svm.ModelMeta, params: svm.KernelParams
):
    vectors, labels = _featurize_samples(
        train_samples, meta.n, meta.m, meta.normalize
    )
    pm = svm.train_pairwise(
        vectors, labels, params, meta.seed, pairs=registry.pairs, meta=meta
    )
    accuracies = []
    for mdl in pm.models:
        keep = [
            (v, l)
            for v, l in zip(vectors, labels)
            if l in (mdl.pos_class, mdl.neg_class)
        ]
        counts = evaluation.evaluate_pair(
            mdl, [v for v, _ in keep], [l for _, l in keep]
        )
        accuracies.append(evaluation.metrics(counts).accuracy)
    return pm, accuracies


def cmd_train(args) -> int:
    meta, params = _resolve(args)
    model_path = _require(args, "model")
    samples = dataset.load_manifest(_require(args, "manifest"))
    registry = dataset.load_registry(_require(args, "registry"))
    keep = [s for s in samples if s.label in set(registry.classes)]
    _require_pair_counts(keep, registry)
    train_samples, _ = dataset.split_even(keep, meta.seed)

    if args.sweep:
        name, candidates = _parse_sweep(args.sweep, params)
        best = None
        for candidate in candidates:
            value = getattr(candidate, name)
            pm, accs = _train_once(train_samples, registry, meta, candidate)
            mean = sum(accs) / len(accs)
            print(
                f"sweep {name}={value:g}: mean train accuracy "
                f"{evaluation.format_percent(mean)}%"
            )
            if best is None or mean > best[0]:
                best = (mean, value, pm)
        _, chosen, pm = best
        print(f"selected {name}={chosen:g}")
    else:
        pm, accs = _train_once(train_samples, registry, meta, params)
        for mdl, acc in zip(pm.models, accs):
            print(
                f"pair {mdl.pos_class}/{mdl.neg_class}: train accuracy "
                f"{evaluation.format_percent(acc)}%"
            )

    Path(model_path).write_bytes(svm.save_model(pm))
    print(f"model written: {model_path}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    pm = svm.load_model(Path(_require(args, "model")).read_bytes())
    meta = pm.meta
    samples = dataset.load_manifest(_require(args, "manifest"))
    keep = [s for s in samples if s.label in set(pm.classes)]
    _, test_samples = dataset.split_even(keep, meta.seed)

    table_rows = []
    csv_rows = []
    for mdl in pm.models:
        subset = [
            s for s in test_samples if s.label in (mdl.pos_class, mdl.neg_class)
        ]
        vectors, labels = _featurize_samples(
            subset, meta.n, meta.m, meta.normalize
        )
        counts = evaluation.evaluate_pair(mdl, vectors, labels)
        pair_metrics = evaluation.metrics(counts)
        table_rows.append(((mdl.pos_class, mdl.neg_class), pair_metrics))
        csv_rows.append(((mdl.pos_class, mdl.neg_class), counts, pair_metrics))

    sys.stdout.write(evaluation.report_table(table_rows))
    if args.csv:
        Path(args.csv).write_text(evaluation.report_csv(csv_rows), encoding="utf-8")
    return EXIT_OK


def cmd_predict(args) -> int:
    pm = svm.load_model(Path(_require(args, "model")).read_bytes())
    meta = pm.meta
    gray = imaging.load_pgm(Path(args.image).read_bytes())
    vec = _glyph_vector(gray, meta.n, meta.m, meta.normalize)
    winner, votes = svm.predict_multiclass(pm, vec)
    print(f"predicted: {winner}")
    print("votes: " + " ".join(f"{cls}={votes[cls]}" for cls in pm.classes))
    for mdl in pm.models:
        value = svm.decision(mdl, vec)
        print(f"decision {mdl.pos_class}/{mdl.neg_class}: {value:+.6f}")
    return EXIT_OK


def _add_pipeline_flags(parser, with_training=False):
    parser.add_argument(
        "--n", type=int, default=None,
        help="normalization raster side (default: 32)",
    )
    parser.add_argument(
        "--m", type=int, default=None,
        help="spectral coefficients kept per axis (default: n/2)",
    )
    if with_training:
        parser.add_argument(
            "--gamma", type=float, default=None,
            help="RBF kernel width (default: 1/(2m))",
        )
        parser.add_argument(
            "--c", type=float, default=None,
            help="SVM box constraint (default: 10)",
        )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="deterministic seed (default: 42)",
    )
    parser.add_argument(
        "--normalize-l2", action="store_true", default=None,
        help="L2-normalize feature vectors (default: off)",
    )
    parser.add_argument(
        "--config", default=None,
        help="optional JSON config file; explicit flags win (default: none)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="glyphspect",
        description=(
            "Classify visually confusable glyphs with spectral "
            "projection-profile features and pairwise RBF-SVMs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser(
        "synth", help="generate a perturbed synthetic glyph corpus"
    )
    p_synth.add_argument(
        "--out", required=True, help="output directory for PGMs and manifest"
    )
    p_synth.add_argument(
        "--templates", default=None,
        help="directory of template .pgm files (default: bundled glyph set)",
    )
    p_synth.add_argument(
        "--count", type=int, default=24,
        help="samples per class (default: 24)",
    )
    p_synth.add_argument(
        "--flips", type=float, default=0.02,
        help="per-pixel noise flip probability (default: 0.02)",
    )
    p_synth.add_argument(
        "--max-shift", type=int, default=2,
        help="max random translation in pixels (default: 2)",
    )
    p_synth.add_argument(
        "--scale-jitter", type=float, default=0.0,
        help="relative size perturbation in [0, 0.5] (default: 0)",
    )
    _add_pipeline_flags(p_synth)
    p_synth.set_defaults(func=cmd_synth)

    p_feat = sub.add_parser(
        "featurize", help="print 'label,f_1,...,f_2M' lines for a manifest"
    )
    p_feat.add_argument("--manifest", default=None, help="sample manifest CSV (required)")
    p_feat.add_argument(
        "--out", default=None, help="output file (default: standard output)"
    )
    _add_pipeline_flags(p_feat)
    p_feat.set_defaults(func=cmd_featurize)

    p_train = sub.add_parser(
        "train", help="train one RBF-SVM per registry pair"
    )
    p_train.add_argument("--manifest", default=None, help="sample manifest CSV (required)")
    p_train.add_argument(
        "--registry", default=None, help="confusable-pair registry CSV (required)"
    )
    p_train.add_argument("--model", default=None, help="output model file (required)")
    p_train.add_argument(
        "--sweep", default=None,
        help="try gamma=v1,v2,... or c=v1,v2,... and keep the best "
        "by mean train accuracy (default: off)",
    )
    _add_pipeline_flags(p_train, with_training=True)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser(
        "evaluate", help="score the held-out half and print the report table"
    )
    p_eval.add_argument("--model", default=None, help="trained model file (required)")
    p_eval.add_argument("--manifest", default=None, help="sample manifest CSV (required)")
    p_eval.add_argument(
        "--csv", default=None, help="also write counts+metrics CSV here (default: off)"
    )
    p_eval.add_argument(
        "--config", default=None,
        help="optional JSON config file; explicit flags win (default: none)",
    )
    p_eval.set_defaults(func=cmd_evaluate)

    p_pred = sub.add_parser(
        "predict", help="classify a single glyph image"
    )
    p_pred.add_argument("--model", default=None, help="trained model file (required)")
    p_pred.add_argument("image", help="PGM glyph image to classify")
    p_pred.add_argument(
        "--config", default=None,
        help="optional JSON config file; explicit flags win (default: none)",
    )
    p_pred.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    command = args.command
    try:
        _load_config_file(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        svm.DegenerateTrainingError,
        svm.ConvergenceError,
        dataset.SynthesisError,
    ) as exc:
        print(f"error: {command}: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except (ValueError, OSError) as exc:
        # Covers PGM/manifest/registry/model-format errors and missing files.
        print(f"error: {command}: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
