"""Span tracing for the benchmark, applied from outside the package.

The package carries no instrumentation. A traced run swaps each public
layer function for a wrapper in every module namespace that looks it up
at call time (the CLI's ``dataset.load_manifest``, ``dataset``'s own
``load_pgm``, ``svm``'s own ``train_smo`` and ``decision``, ...), so the
real ``cli.cmd_*`` code runs unchanged and its calls nest into a span tree.
"""
from __future__ import annotations

import contextlib
import time

# A span is a list while open and a tuple once closed, both cheaper than an
# object on the per-glyph path:
# [name, start_ns, end_ns, parent_index, phase, glyph, pair, count]
NAME, START, END, PARENT, PHASE, GLYPH, PAIR, COUNT = range(8)


def _pair_of_model(args, kwargs):
    model = args[0] if args else kwargs.get("model")
    return f"{model.pos_class}/{model.neg_class}"


def _pair_of_smo(args, kwargs):
    return f"{kwargs.get('pos_class', 'pos')}/{kwargs.get('neg_class', 'neg')}"


def _pixels(span, args, kwargs, result):
    span[COUNT] = result.width * result.height


def _length(span, args, kwargs, result):
    span[COUNT] = len(result)


def layer_targets(pkg, trained):
    """(module, attribute, span name, pair getter, on-return hook) per layer call.

    `trained` collects (training set, model) per SMO call so that solver
    statistics can be computed after the run, outside every span.
    """
    imaging, features, dataset, svm, evaluation = (
        pkg.imaging, pkg.features, pkg.dataset, pkg.svm, pkg.evaluation
    )

    def keep_trained(span, args, kwargs, result):
        trained.append((args[0] if args else kwargs["data"], result))

    return [
        (imaging, "load_pgm", "imaging.load_pgm", None, _pixels),
        (dataset, "load_pgm", "imaging.load_pgm", None, _pixels),
        (imaging, "binarize_otsu", "imaging.binarize_otsu", None, None),
        (imaging, "crop_to_bbox", "imaging.crop_to_bbox", None, None),
        (imaging, "resize_to_square", "imaging.resize_to_square", None, None),
        (features, "extract_features", "features.extract_features", None, None),
        (dataset, "load_manifest", "dataset.load_manifest", None, _length),
        (dataset, "load_registry", "dataset.load_registry", None, None),
        (dataset, "split_even", "dataset.split_even", None, None),
        (dataset, "synth_generate", "dataset.synth_generate", None, _length),
        (dataset, "write_corpus", "dataset.write_corpus", None, None),
        (dataset, "write_registry", "dataset.write_registry", None, None),
        (svm, "train_pairwise", "svm.train_pairwise", None, None),
        (svm, "train_smo", "svm.train_smo", _pair_of_smo, keep_trained),
        (svm, "decision", "svm.decision", _pair_of_model, None),
        (svm, "predict_multiclass", "svm.predict_multiclass", None, None),
        (svm, "save_model", "svm.save_model", None, _length),
        (svm, "load_model", "svm.load_model", None, None),
        (evaluation, "evaluate_pair", "evaluation.evaluate_pair", _pair_of_model, None),
        (evaluation, "metrics", "evaluation.metrics", None, None),
        (evaluation, "report_table", "evaluation.report_table", None, None),
        (evaluation, "report_csv", "evaluation.report_csv", None, None),
    ]


class Tracer:
    """Keeps spans in memory; `phase` and `glyph` tag every span opened."""

    def __init__(self, pkg):
        self.spans: list[list] = []
        self.trained: list = []
        self.phase = "setup"
        self.glyph = None
        self._stack: list[int] = []
        self._targets = layer_targets(pkg, self.trained)

    def _open(self, name, pair):
        parent = self._stack[-1] if self._stack else None
        span = [name, 0, 0, parent, self.phase, self.glyph, pair, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, fn, name, pair_of, on_return):
        clock = time.perf_counter_ns
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = self._open(name, pair_of(args, kwargs) if pair_of else None)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                index = stack.pop()
            if on_return is not None:
                on_return(span, args, kwargs, result)
            # Closed spans become tuples, which the garbage collector stops
            # tracking; tens of thousands of live lists would slow every
            # collection inside the traced code.
            spans[index] = tuple(span)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A root span for a call made by the benchmark itself (one cli.cmd_*)."""
        span = self._open(name, None)
        span[START] = time.perf_counter_ns()
        try:
            yield span
        finally:
            span[END] = time.perf_counter_ns()
            self._stack.pop()

    @contextlib.contextmanager
    def patched(self):
        """Route every layer call through a span wrapper; restore on exit."""
        saved = []
        try:
            for module, attr, name, pair_of, on_return in self._targets:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, pair_of, on_return))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the time its child spans cover."""
        child = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def to_json(self, workload: str, seed: int) -> dict:
        selfs = self.self_times_ns()
        return {
            "workload": workload,
            "seed": seed,
            "spans": [
                {
                    "id": i,
                    "name": s[NAME],
                    "start_ns": s[START],
                    "end_ns": s[END],
                    "self_ns": selfs[i],
                    "parent": s[PARENT],
                    "workload": workload,
                    "phase": s[PHASE],
                    "glyph": s[GLYPH],
                    "pair": s[PAIR],
                    "count": s[COUNT],
                }
                for i, s in enumerate(self.spans)
            ],
        }
