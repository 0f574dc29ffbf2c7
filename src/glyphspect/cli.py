"""Command-line frontend: synthesize corpora, featurize, train, evaluate, predict.

Exit codes: 0 success, 1 usage error, 2 data error, 3 training or numeric
failure. Every error path prints a single-line diagnostic naming the
failing subcommand to standard error, and nothing to standard output: a
command writes its files before it prints.

Importing it loads neither numpy nor the pipeline: each command imports
what it runs, so `run()` turns the garbage collector off before numpy loads.
Parsing and the error mapping load nothing either, so `--help` and a usage
error never load numpy.
"""
from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import sys
from pathlib import Path

from . import _JSON_TYPES, ConvergenceError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRAINING = 3

_BLOCK = 256  # glyphs featurized per array block; bounds the masks' memory

# Every setting a flag or the config file may give, with its argparse
# keywords. Its config key is the flag's name with `_` for `-`, and the
# key's value must have a JSON type that _JSON_TYPES accepts for the flag's.
_SETTINGS = {
    "manifest": dict(help="sample manifest CSV (required)"),
    "registry": dict(help="confusable-pair registry CSV (required)"),
    "model": dict(
        help="model file: train writes it, evaluate and predict read it (required)"
    ),
    "csv": dict(help="also write counts+metrics CSV here (default: off)"),
    "n": dict(type=int, help="normalization raster side (default: 32)"),
    "m": dict(type=int, help="spectral coefficients kept per axis (default: n/2)"),
    "gamma": dict(
        type=float,
        help="RBF kernel width (default: 1/(2m*Var), Var the variance of the "
        "train-half feature values; 1/(2m) if Var is 0)",
    ),
    "c": dict(type=float, help="SVM box constraint (default: 10)"),
    "seed": dict(type=int, help="deterministic seed (default: 42)"),
    "normalize-l2": dict(
        action="store_true", help="L2-normalize feature vectors (default: off)"
    ),
}
_CONFIG_KEYS = {
    name.replace("-", "_"): bool if kw.get("action") == "store_true"
    else kw.get("type", str)
    for name, kw in _SETTINGS.items()
}
# The paths a subcommand cannot run without, in the order they are named
# when several are missing.
_REQUIRED = ("model", "manifest", "registry")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # No abbreviations: `synth --m 4` must not be taken for `--max-shift 4`.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits 2 on bad usage by default; 2 is reserved for data errors.
    def error(self, message):
        raise UsageError(message)


def _load_config_file(args) -> None:
    """Fill unset flags from a JSON config file; explicit flags win."""
    if args.config is None:
        return
    path = Path(args.config)
    if not path.is_file():
        raise UsageError(f"config file not found: {str(path)!r}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, deep nesting
        raise UsageError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise UsageError("config file must contain a JSON object")
    for key, value in doc.items():
        if key not in _CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r}")
        types, name = _JSON_TYPES[_CONFIG_KEYS[key]]
        if type(value) not in types:
            raise UsageError(f"config key '{key}' must be {name}")
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)


def _resolve(args) -> tuple[svm.ModelMeta, svm.KernelParams]:
    """Pipeline settings from flags and config file; n defaults to 32, m to
    n/2, gamma to 1/(2m), c to 10 and seed to 42, also where the subcommand
    has no such flag. `train` replaces an unset gamma with _scale_gamma of
    its train half. A value the model types reject is a usage error."""
    from . import svm
    n, m, gamma, c, seed, normalize = (
        getattr(args, name, None)
        for name in ("n", "m", "gamma", "c", "seed", "normalize_l2")
    )
    n = 32 if n is None else n
    m = max(1, n // 2) if m is None else m
    seed = 42 if seed is None else seed
    try:
        meta = svm.ModelMeta(n=n, m=m, seed=seed, normalize=bool(normalize))
        gamma = 1.0 / (2 * m) if gamma is None else float(gamma)
        return meta, svm.KernelParams(gamma=gamma, c=10.0 if c is None else float(c))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _scale_gamma(vectors, m: int) -> float:
    """The default RBF width 1/(2m·Var) for the feature rows `vectors`, Var
    the population variance of all their values pooled over rows and
    columns, so the kernel fits the features' scale. fsum keeps the bits
    independent of numpy's summation order. Var exactly 0 gives 1/(2m)."""
    values = vectors.ravel().tolist()
    mean = math.fsum(values) / len(values)
    var = math.fsum((v - mean) ** 2 for v in values) / len(values)
    return 1.0 / (2 * m) if var == 0 else 1.0 / (2 * m * var)


def _square(gray: imaging.GrayImage, n: int) -> imaging.BinaryImage:
    """One glyph's n-by-n mask: its Otsu cut, cropped to the ink, resized."""
    from . import imaging
    binary, _ = imaging.binarize_otsu(gray)
    return imaging.resize_to_square(imaging.crop_to_bbox(binary), n)


def _featurize_samples(samples, meta: svm.ModelMeta):
    """The (N, 2m) feature rows and the labels of the samples, in order: each
    glyph's _square, projected _BLOCK masks at a time, bit-identical to
    cmd_predict's extract_features; names the first glyph without ink."""
    import numpy as np
    from . import features, imaging
    vectors = np.empty((len(samples), 2 * meta.m))
    for start in range(0, len(samples), _BLOCK):
        block = samples[start : start + _BLOCK]
        masks = np.empty((len(block), meta.n, meta.n), bool)
        for i, sample in enumerate(block):
            try:
                masks[i] = _square(sample.image, meta.n).pixels
            except imaging.EmptyGlyphError as exc:
                raise ValueError(f"{sample.source_id!r}: {exc}") from None
        vectors[start : start + len(block)] = features.feature_rows(
            masks, meta.m, meta.normalize
        )
    return vectors, [s.label for s in samples]


def _score_pairs(pm: svm.PairwiseModel, vectors, labels):
    """(pair, counts, metrics) for each machine, scored on the rows of its
    two classes only."""
    from . import evaluation
    scored = []
    for mdl in pm.models:
        pair = (mdl.pos_class, mdl.neg_class)
        rows = [i for i, label in enumerate(labels) if label in pair]
        counts = evaluation.evaluate_pair(
            mdl, vectors[rows], [labels[i] for i in rows]
        )
        scored.append((pair, counts, evaluation.metrics(counts)))
    return scored


def _halves(rows, classes, seed: int):
    """The (train, test) split of the rows labeled with `classes`: the one
    partition rule, so `evaluate` scores exactly what `train` held out. Only
    labels are read: `train` and `evaluate` decode just the half they use.
    Each class must occur; `split_even` refuses one with a single sample."""
    from . import dataset
    present = {row.label for row in rows}
    for cls in classes:
        if cls not in present:
            raise ValueError(f"class {cls!r} has 0 sample(s) in the manifest")
    classes = set(classes)
    return dataset.split_even([row for row in rows if row.label in classes], seed)


def cmd_synth(args) -> int:
    from . import dataset, imaging
    meta, _ = _resolve(args)
    try:
        params = dataset.SynthParams(
            flips=args.flips,
            max_shift=args.max_shift,
            scale_jitter=args.scale_jitter,
            count=args.count,
            seed=meta.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    out_dir = Path(args.out)
    if args.templates is not None:
        tpl_dir = Path(args.templates)
        if not tpl_dir.is_dir():
            raise ValueError(f"template directory not found: {str(tpl_dir)!r}")
        files = sorted(tpl_dir.glob("*.pgm"))
        if not files:
            raise ValueError(f"no .pgm templates in {str(tpl_dir)!r}")
        templates = {}
        for path in files:
            try:
                binary, _ = imaging.binarize_otsu(imaging.load_pgm(path.read_bytes()))
                templates[path.stem] = imaging.crop_to_bbox(binary)
            except (imaging.PgmParseError, imaging.EmptyGlyphError) as exc:
                raise ValueError(f"{str(path)!r}: {exc}") from None
    else:
        templates = dataset.builtin_templates()

    samples = dataset.synth_generate(templates, params, meta.n)
    manifest = dataset.write_corpus(samples, out_dir)
    if args.templates is None:
        dataset.write_registry(dataset.builtin_registry(), out_dir / "registry.csv")
    print(f"wrote {len(samples)} samples ({len(templates)} classes) to {out_dir}")
    print(f"manifest: {manifest}")
    return EXIT_OK


def cmd_featurize(args) -> int:
    from . import _csv_text, dataset
    meta, _ = _resolve(args)
    vectors, labels = _featurize_samples(dataset.load_manifest(args.manifest), meta)
    text = _csv_text(
        [label, *(format(v, ".17g") for v in vec)]
        for vec, label in zip(vectors.tolist(), labels)
    )
    if args.out:
        Path(args.out).write_bytes(text.encode("utf-8"))
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_train(args) -> int:
    from . import dataset, evaluation, svm
    meta, params = _resolve(args)
    all_rows = dataset.read_manifest(args.manifest)
    registry = dataset.load_registry(args.registry)
    half, _ = _halves(all_rows, registry.classes, meta.seed)
    vectors, labels = _featurize_samples(dataset.load_manifest(args.manifest, half), meta)
    if args.gamma is None:
        params = svm.KernelParams(_scale_gamma(vectors, meta.m), params.c)
    pm = svm.train_pairwise(
        vectors.tolist(), labels, params, meta.seed, pairs=registry.pairs, meta=meta
    )
    scored = _score_pairs(pm, vectors, labels)
    Path(args.model).write_bytes(svm.save_model(pm))  # before any print
    for (pos, neg), _, pair_metrics in scored:
        print(
            f"pair {pos}/{neg}: train accuracy "
            f"{evaluation.format_percent(pair_metrics.accuracy)}%"
        )
    print(f"model written: {args.model}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from . import dataset, evaluation, svm
    pm = svm.load_model(Path(args.model).read_bytes())
    meta = pm.meta
    _, half = _halves(dataset.read_manifest(args.manifest), pm.classes, meta.seed)
    vectors, labels = _featurize_samples(dataset.load_manifest(args.manifest, half), meta)
    scored = _score_pairs(pm, vectors, labels)
    if args.csv:  # before any print
        Path(args.csv).write_bytes(evaluation.report_csv(scored).encode("utf-8"))
    sys.stdout.write(
        evaluation.report_table([(pair, metrics) for pair, _, metrics in scored])
    )
    return EXIT_OK


def cmd_predict(args) -> int:
    from . import features, imaging, svm
    pm = svm.load_model(Path(args.model).read_bytes())
    meta = pm.meta
    try:
        squared = _square(imaging.load_pgm(Path(args.image).read_bytes()), meta.n)
    except (imaging.PgmParseError, imaging.EmptyGlyphError) as exc:
        raise ValueError(f"{str(args.image)!r}: {exc}") from None
    vec = features.extract_features(squared, meta.m, normalize=meta.normalize).values
    # not svm.vote on the decisions below: perfbench's trace times this call
    winner, votes = svm.predict_multiclass(pm, vec)
    print(f"predicted: {winner}")
    print("votes: " + " ".join(f"{cls}={votes[cls]}" for cls in pm.classes))
    for mdl in pm.models:
        value = svm.decision(mdl, vec)
        print(f"decision {mdl.pos_class}/{mdl.neg_class}: {value:+.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="glyphspect",
        description=(
            "Classify visually confusable glyphs with spectral "
            "projection-profile features and pairwise RBF-SVMs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each subcommand's function, help line and flags in --help order: a
    # _SETTINGS name, or a (flag, argparse keywords) pair only it takes. Built
    # per call, so a cmd_* function replaced after import is the one it runs.
    commands = {
        "synth": (cmd_synth, "generate a perturbed synthetic glyph corpus", (
            ("--out", dict(required=True, help="output directory for PGMs and manifest")),
            ("--templates", dict(
                default=None,
                help="directory of template .pgm files (default: bundled glyph set)",
            )),
            ("--count", dict(
                type=int, default=24, help="samples per class (default: 24)"
            )),
            ("--flips", dict(
                type=float, default=0.02,
                help="per-pixel noise flip probability (default: 0.02)",
            )),
            ("--max-shift", dict(
                type=int, default=2, help="max random translation in pixels (default: 2)"
            )),
            ("--scale-jitter", dict(
                type=float, default=0.0,
                help="relative size perturbation in [0, 0.5] (default: 0)",
            )),
            "n", "seed",
        )),
        "featurize": (cmd_featurize, "print 'label,f_1,...,f_2M' lines for a manifest", (
            "manifest",
            ("--out", dict(default=None, help="output file (default: standard output)")),
            "n", "m", "normalize-l2",
        )),
        "train": (cmd_train, "train one RBF-SVM per registry pair", (
            "manifest", "registry", "model", "n", "m", "gamma", "c", "seed",
            "normalize-l2",
        )),
        "evaluate": (
            cmd_evaluate, "score the held-out half and print the report table",
            ("model", "manifest", "csv"),
        ),
        "predict": (cmd_predict, "classify a single glyph image", (
            "model", ("image", dict(help="PGM glyph image to classify")),
        )),
    }
    for command, (func, help_line, flags) in commands.items():
        p_sub = sub.add_parser(command, help=help_line)
        for flag in flags:
            if isinstance(flag, str):
                p_sub.add_argument("--" + flag, default=None, **_SETTINGS[flag])
            else:
                p_sub.add_argument(flag[0], **flag[1])
        p_sub.set_defaults(func=func)
        p_sub.add_argument(
            "--config", default=None,
            help="optional JSON config file; explicit flags win (default: none)",
        )
    return parser


def main(argv=None) -> int:
    label = "usage"
    try:
        args = build_parser().parse_args(argv)
        label = args.command
        _load_config_file(args)
        for name in _REQUIRED:
            if hasattr(args, name) and getattr(args, name) is None:
                raise UsageError(f"--{name} is required (flag or config file)")
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        code, error = EXIT_USAGE, exc
    except ConvergenceError as exc:
        code, error = EXIT_TRAINING, exc
    except (ValueError, OSError) as exc:
        # Covers PGM/manifest/registry/model-format errors and missing files.
        code, error = EXIT_DATA, exc
    print(f"error: {label}: {error}", file=sys.stderr)
    return code


def run() -> int:
    """The console script's and `python -m glyphspect.cli`'s entry: main()
    with the garbage collector off, as a command leaves ~310 cyclic objects
    (its parser) and the process ends at once; then exit without module
    teardown (~4 ms): the atexit handlers, a flush of stdout and stderr, and
    os._exit. A flush that fails returns main's code instead, so the
    interpreter's own exit reports it (exit 120 on a full disk). main() does
    neither: a library caller's collector and exit are its own."""
    gc.disable()
    code = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # also a closed or absent stream; exit reports it again
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
