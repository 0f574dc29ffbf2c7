#!/usr/bin/env python3
"""glyphspect benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload train-scale --seed 1 --seconds 20 --trace 0

Run it from the repository root. Workloads (see README.md in this
directory for why each exists):

  train-scale      400 clean glyphs per class; `train` then `evaluate`.
  noisy-eval       300 noisy glyphs per class; `train` then `evaluate`.
  classify-stream  96x96 P5 glyphs classified in-process, one caller.

With --trace 0 every end-to-end metric is measured with no tracing. With
--trace 1 the real `cli.cmd_*` functions run in-process with a span around
every call into imaging, features, dataset, svm and evaluation; the run
reports per-layer self times and the tracing overhead, and cross-checks
the in-process outputs against the CLI child processes. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Results and spans go to .perfbench/results/.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from types import SimpleNamespace

from tracing import COUNT, NAME, PAIR, PHASE, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# One process, no extra threads: numpy's BLAS pools stay single-threaded
# here and in every child.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 3  # set-ups per untraced run; setup_s is their median
MIN_CYCLES = 5  # at least 5 samples of each timing a run
# Glyphs classified per cycle. Each cycle's p99 has ten samples beyond it,
# and classify_p99_us is the median of the cycles' p99s: one host stall
# moves a single cycle's tail, not the result.
CHUNK = 1024
PROBE_EVERY = 32  # glyphs between CPU probes in the classify loop
PREDICTS = 4  # `predict` children per cycle, each between two process probes
# The simplified SMO's run time moves by up to ~20% with its seed (split
# and partner choice), which would swamp the bounds, so every cycle of
# every run trains the same problem.
TRAIN_SEED = 1
CROSS_CHECK_GLYPHS = 3  # glyphs predicted both in-process and by the CLI
IMPORT_RUNS = 3  # `import glyphspect.cli` child processes in a traced run
CHILD_TIMEOUT_S = 150

# The shared host's speed drifts by tens of percent within minutes: a fixed
# pure-Python loop took 5.3-8.4 ms per 5 s block over 2.5 minutes, quartile
# spread 32% of the median. So each end-to-end time is scaled to a reference
# speed by the probes taken right before and right after the timed item: a
# fixed pure-Python loop for work in this process and for `train` and
# `evaluate` (interpreter-bound), and `python -c "import numpy"` for
# `predict` (mostly interpreter start-up and imports). A time therefore
# reads as on a host where the probe takes REFERENCE_S; raw medians are
# printed beside it and kept in the results file. Neither probe runs code
# of the package.
REFERENCE_S = {"cpu": 0.004, "process": 0.15}
TRAIN_FLAGS = ("--gamma", "2", "--normalize-l2")
PAIRS = (("ring", "ring-gap"), ("cup", "cup-bar"))  # the bundled registry


@dataclass(frozen=True)
class Corpus:
    """Arguments of the package's `synth` for one corpus; `p5` re-encodes it."""

    count: int
    seed: int
    n: int = 32
    flips: float = 0.02  # `glyphspect synth` defaults
    max_shift: int = 2
    scale_jitter: float = 0.0
    p5: bool = False


# The ROADMAP quality point's perturbations.
NOISY = dict(flips=0.1, scale_jitter=0.3, max_shift=3)

# Corpora are pinned per workload, so that their digests can be pinned in
# corpus_digests.json; --seed drives the glyph order and the glyphs given
# to `predict`.
SIZES = {
    "full": {
        "train-scale": {"train": Corpus(400, 42)},
        "noisy-eval": {"train": Corpus(300, 7, **NOISY)},
        "classify-stream": {
            "train": Corpus(100, 7, **NOISY),
            "stream": Corpus(64, 11, n=96, p5=True, **NOISY),
        },
    },
    "tiny": {
        "train-scale": {"train": Corpus(12, 42)},
        "noisy-eval": {"train": Corpus(12, 7, **NOISY)},
        "classify-stream": {
            "train": Corpus(12, 7, **NOISY),
            "stream": Corpus(4, 11, n=96, p5=True, **NOISY),
        },
    },
}
CLASSIFY_TRAIN_SEED = 7  # classify-stream trains its set-up model like the quality point

# name -> unit, for --trace 0
END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "evaluate_s": "s",
    "worst_pair_accuracy_pct": "%",
    "predict_s": "s",
    "classify_p50_us": "us",
    "classify_glyphs_per_s": "1/s",
    "verdict_accuracy_pct": "%",
    "peak_rss_mb": "MB",
}
# Printed and kept in the results file, but not in BENCHMARK.json: on the
# shared host the per-glyph p99 moved by a quartile spread of 0.37-0.49 of
# its median between 4096-glyph windows of one process, even speed-scaled
# (the p50 of the same windows: 0.03), wider than any bound allowed.
UNGATED = {"classify_p99_us": "us"}

# Timed end-to-end metric -> the samples it summarizes.
TIMINGS = {
    "setup_s": "setup_s",
    "train_s": "train_s",
    "evaluate_s": "evaluate_s",
    "predict_s": "predict_s",
    "classify_p50_us": "classify_us",
    "classify_p99_us": "classify_p99_us",
    "classify_glyphs_per_s": "classify_glyphs_per_s",
}

# Per-call median self time: metric -> (span name, unit, ns per unit).
PER_CALL = {
    "imaging.load_pgm_us": ("imaging.load_pgm", "us", 1e3),
    "imaging.binarize_otsu_us": ("imaging.binarize_otsu", "us", 1e3),
    "imaging.crop_to_bbox_us": ("imaging.crop_to_bbox", "us", 1e3),
    "imaging.resize_to_square_us": ("imaging.resize_to_square", "us", 1e3),
    "features.extract_features_us": ("features.extract_features", "us", 1e3),
    "dataset.load_manifest_ms": ("dataset.load_manifest", "ms", 1e6),
    "dataset.split_even_ms": ("dataset.split_even", "ms", 1e6),
    "svm.train_pairwise_ms": ("svm.train_pairwise", "ms", 1e6),
    "svm.decision_us": ("svm.decision", "us", 1e3),
    "svm.predict_multiclass_us": ("svm.predict_multiclass", "us", 1e3),
    "evaluation.evaluate_pair_ms": ("evaluation.evaluate_pair", "ms", 1e6),
    "svm.save_model_ms": ("svm.save_model", "ms", 1e6),
    "svm.load_model_ms": ("svm.load_model", "ms", 1e6),
}
# Total self time over the phase (all set-up synthesis, all corpus writing).
PHASE_TOTAL = {
    "dataset.synth_generate_s": ("dataset.synth_generate", "s", 1e9),
    "dataset.write_corpus_s": ("dataset.write_corpus", "s", 1e9),
}
# Median of the count a span recorded.
SPAN_COUNT = {
    "imaging.pixels_per_glyph": "imaging.load_pgm",
    "dataset.glyphs_loaded": "dataset.load_manifest",
    "svm.model_bytes": "svm.save_model",
}
SMO_STATS = {
    "svm.samples_per_pair": "count",
    "svm.support_vectors": "count",
    "svm.bounded_svs": "count",
    "svm.dual_objective": "1",
    "svm.kkt_violation_max": "1",
}
REPORT_SPANS = ("evaluation.metrics", "evaluation.report_table", "evaluation.report_csv")
# Layers looked up in this order of phases: the measured work first.
PHASE_ORDER = ("measure", "check", "setup")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run prints, with its unit."""
    units = {name: unit for name, (_, unit, _) in PER_CALL.items()}
    units.update({name: unit for name, (_, unit, _) in PHASE_TOTAL.items()})
    units.update({name: "count" if name != "svm.model_bytes" else "bytes" for name in SPAN_COUNT})
    units["evaluation.report_ms"] = "ms"
    for pos, neg in PAIRS:
        units[f"svm.train_smo_ms.{pos}.{neg}"] = "ms"
        for stat, unit in SMO_STATS.items():
            units[f"{stat}.{pos}.{neg}"] = unit
    units["cli.import_s"] = "s"
    units["trace.overhead_ms"] = "ms"
    units["trace.overhead_pct"] = "%"
    return units


# ---------------------------------------------------------------- statistics

def nearest_rank(values, p):
    """(rank, value) of the p-th percentile by the nearest-rank rule."""
    k = max(1, math.ceil(p / 100.0 * len(values)))
    return k, sorted(values)[k - 1]


def chunk_summaries(chunks) -> dict[str, list[float]]:
    """Per-glyph latencies (us), and each cycle's p99 and glyphs per second."""
    return {
        "classify_us": [lat for chunk in chunks for lat in chunk],
        "classify_p99_us": [nearest_rank(chunk, 99.0)[1] for chunk in chunks],
        "classify_glyphs_per_s": [1e6 * len(chunk) / sum(chunk) for chunk in chunks],
    }


def tail(values):
    """Highest percentile of a fixed ladder with >= 10 samples beyond it."""
    for p in (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0):
        k, value = nearest_rank(values, p)
        if len(values) - k >= 10:
            return p, value
    return None


# ---------------------------------------------------------------- probes

def _probe_work() -> float:
    """Fixed work of the package's kind: int tuples, a histogram, an RBF-style loop."""
    pixels = tuple((i * 7919) % 256 for i in range(2048))
    hist = [0] * 256
    for p in pixels:
        hist[p] += 1
    acc = 0.0
    xs = [i * 0.001 for i in range(64)]
    for _ in range(40):
        d2 = 0.0
        for a, b in zip(xs, reversed(xs)):
            diff = a - b
            d2 += diff * diff
        acc += math.exp(-d2 * 1e-3)
    return acc + sum(hist)


def probe_once() -> float:
    """Seconds for eight passes of the probe work (~4 ms)."""
    start = time.perf_counter()
    for _ in range(8):
        _probe_work()
    return time.perf_counter() - start


def probe_cpu() -> float:
    """Mean of five probe timings.

    A mean, not a minimum: the timed items are averages over seconds of a
    drifting host, and a mean tracked them better (quartile spread of a
    scaled `train` child 0.09 against 0.11 with the best of three).
    """
    return statistics.fmean(probe_once() for _ in range(5))


# ---------------------------------------------------------------- processes

@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    maxrss_kb: int
    stdout: str
    stderr: str


def run_child(argv, cwd: Path, log_dir: Path) -> ChildResult:
    """Run one child to completion; wall time from spawn to reap, with its rusage."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = log_dir / "child.out", log_dir / "child.err"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=env)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], CHILD_TIMEOUT_S)
        finally:
            os.close(pidfd)
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    if not ready:
        stderr += f"\nkilled after {CHILD_TIMEOUT_S} s"
    return ChildResult(proc.returncode, wall, usage.ru_maxrss, stdout, stderr)


# ---------------------------------------------------------------- corpora

def reencode_p5(directory: Path) -> None:
    """Rewrite every P2 file of a corpus as binary P5 with the same pixels."""
    with open(directory / "manifest.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    for rel, _ in rows:
        path = directory / rel
        tokens = path.read_bytes().split()
        if tokens[0] != b"P2":
            raise ValueError(f"{rel}: expected a P2 file")
        width, height, maxval = (int(t) for t in tokens[1:4])
        pixels = bytes(int(t) for t in tokens[4:])
        if len(pixels) != width * height:
            raise ValueError(f"{rel}: pixel count does not match header")
        path.write_bytes(b"P5\n%d %d\n%d\n" % (width, height, maxval) + pixels)


def read_corpus(directory: Path):
    """(file name, label, image bytes) per manifest row, in order."""
    with open(directory / "manifest.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return [(rel, label, (directory / rel).read_bytes()) for rel, label in rows]


def corpus_digest(corpora) -> str:
    """sha256 over every corpus's manifest rows and image bytes, in order."""
    h = hashlib.sha256()
    for rows in corpora:
        for rel, label, data in rows:
            h.update(f"{rel},{label},{len(data)}\n".encode("utf-8"))
            h.update(data)
    return h.hexdigest()


def test_half_sizes(rows) -> dict[tuple[str, str], int]:
    """Glyphs per pair in the held-out half: floor(k/2) per class."""
    counts: dict[str, int] = defaultdict(int)
    for _, label, _ in rows:
        counts[label] += 1
    return {(a, b): counts[a] // 2 + counts[b] // 2 for a, b in PAIRS}


# ---------------------------------------------------------------- the bench

def load_package():
    sys.path.insert(0, str(SRC))
    mods = {
        name: importlib.import_module(f"glyphspect.{name}")
        for name in ("cli", "dataset", "evaluation", "features", "imaging", "svm")
    }
    return SimpleNamespace(**mods)


def predict_text(pm, winner, votes, decisions) -> str:
    """What `glyphspect predict` prints for one glyph."""
    lines = [
        f"predicted: {winner}",
        "votes: " + " ".join(f"{cls}={votes[cls]}" for cls in pm.classes),
    ]
    lines += [
        f"decision {mdl.pos_class}/{mdl.neg_class}: {value:+.6f}"
        for mdl, value in zip(pm.models, decisions)
    ]
    return "\n".join(lines) + "\n"


class Bench:
    def __init__(self, args, pkg):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.size = args.size
        self.pkg = pkg
        self.corpora = SIZES[args.size][args.workload]
        self.work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)  # raw values
        self.timed: list[tuple] = []  # (metric, start, end, raw values, probe kind)
        self.scaled: dict[str, list[float]] = {}
        self.probing_s = 0.0  # time spent in probes, kept out of setup_s
        self.probe_times: dict[str, list[float]] = {}
        self.chunks: list[list[tuple[float, float, float]]] = []  # classify loop, per cycle
        self.raw: dict[str, float] = {}  # raw medians of the timed end-to-end metrics
        self.probes: dict[str, list[tuple[float, float]]] = {"cpu": [], "process": []}
        self.rss_kb = 0
        self.tracer = Tracer(pkg) if self.trace else None
        self.tracer_on = False
        self.rng = random.Random(args.seed)
        digests = json.loads((HERE / "corpus_digests.json").read_text(encoding="utf-8"))
        self.expected_digest = digests[args.size][args.workload]
        self.digest = None
        self.first_model: bytes | None = None

    # -- bookkeeping

    def check(self, ok: bool, what: str) -> bool:
        """One output check: counts as an operation, and as failed unless ok."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def probe(self, kind: str) -> None:
        start = time.perf_counter()
        if kind == "cpu":
            value = probe_cpu()
        else:
            value = run_child([sys.executable, "-c", "import numpy"], self.work, self.work).wall_s
        end = time.perf_counter()
        self.probes[kind].append((end, value))
        self.probing_s += end - start

    def record(self, metric: str, start: float, end: float, values, kind="cpu") -> None:
        self.samples[metric].extend(values)
        self.timed.append((metric, start, end, values, kind))

    def micro_probe(self) -> None:
        """One probe timing, between glyphs of the classify loop."""
        value = probe_once()
        self.probes["cpu"].append((time.perf_counter(), value))
        self.probing_s += value

    def scale(self, kind: str, start: float, end: float) -> float:
        """REFERENCE_S over the mean of the probes nearest before `start` and after `end`."""
        probes = self.probes[kind]
        times = self.probe_times[kind]
        before, after = bisect.bisect_right(times, start) - 1, bisect.bisect_left(times, end)
        near = [probes[i][1] for i in (before, after) if 0 <= i < len(probes)]
        return REFERENCE_S[kind] / statistics.fmean(near)

    def normalized(self, metric: str) -> list[float]:
        """A metric's samples scaled to the reference speed."""
        out = []
        for name, start, end, values, kind in self.timed:
            if name == metric:
                scale = self.scale(kind, start, end)
                out += [v * scale for v in values]
        return out

    def child(self, argv, metric=None, kind="cpu") -> ChildResult:
        start = time.perf_counter()
        result = run_child([sys.executable, *argv], self.work, self.work)
        end = time.perf_counter()
        self.rss_kb = max(self.rss_kb, result.maxrss_kb)
        ok = self.check(
            result.returncode == 0,
            f"{' '.join(argv)} exited {result.returncode}: {result.stderr.strip()[-300:]}",
        )
        if ok and metric is not None:
            self.record(metric, start, end, [result.wall_s], kind)
        return result

    def cli(self, *argv, metric=None, kind="cpu") -> ChildResult:
        return self.child(["-m", "glyphspect.cli", *map(str, argv)], metric, kind)

    def inprocess(self, command: str, argv) -> str:
        """Run the CLI's main in this process; returns its standard output."""
        buf = io.StringIO()
        span = self.tracer.span(f"cli.cmd_{command}") if self.tracer_on else contextlib.nullcontext()
        with contextlib.redirect_stdout(buf), span:
            code = self.pkg.cli.main([command, *map(str, argv)])
        self.check(code == 0, f"in-process {command} returned {code}")
        return buf.getvalue()

    @contextlib.contextmanager
    def traced(self, phase: str):
        """Spans on, tagged with `phase`, for the calls inside the block."""
        self.tracer.phase = phase
        with self.tracer.patched():
            self.tracer_on = True
            try:
                yield
            finally:
                self.tracer_on = False

    # -- set-up

    def make_corpus(self, spec: Corpus, directory: Path):
        """Synthesize a corpus with the package's own generator, as `synth` does."""
        ds = self.pkg.dataset
        params = ds.SynthParams(
            flips=spec.flips,
            max_shift=spec.max_shift,
            scale_jitter=spec.scale_jitter,
            count=spec.count,
            seed=spec.seed,
        )
        samples = ds.synth_generate(ds.builtin_templates(), params, spec.n)
        ds.write_corpus(samples, directory)
        ds.write_registry(ds.builtin_registry(), directory / "registry.csv")
        if spec.p5:
            reencode_p5(directory)
        return read_corpus(directory)

    def setup(self, build):
        """Run `build` SETUP_REPEATS times (once when traced); check the digest."""
        result = None
        repeats = 1 if self.trace else SETUP_REPEATS
        self.probe("cpu")
        for _ in range(repeats):
            shutil.rmtree(self.work / "corpus", ignore_errors=True)
            probing = self.probing_s
            start = time.perf_counter()
            if self.trace:
                with self.traced("setup"):
                    result = build()
            else:
                result = build()
            end = time.perf_counter()
            self.record("setup_s", start, end, [end - start - (self.probing_s - probing)])
            self.probe("cpu")
            digest = corpus_digest(result)
            self.check(
                digest == self.expected_digest,
                f"corpus digest {digest} differs from corpus_digests.json "
                f"[{self.size}][{self.workload}] = {self.expected_digest}",
            )
            self.digest = digest
        return result

    # -- shared measured steps

    def train(self, corpus_dir: Path, model: Path, seed: int):
        """One `train` child, timed as train_s; returns the model it wrote, loaded.

        Every model of a run is trained from the same input, so each must
        equal the first byte for byte.
        """
        model.unlink(missing_ok=True)
        self.probe("cpu")
        self.cli("train", "--manifest", corpus_dir / "manifest.csv",
                 "--registry", corpus_dir / "registry.csv", "--model", model,
                 "--seed", seed, *TRAIN_FLAGS, metric="train_s")
        self.probe("cpu")
        if not model.exists():
            return None
        data = model.read_bytes()
        try:
            pm = self.pkg.svm.load_model(data)
        except ValueError as exc:
            self.check(False, f"model does not load: {exc}")
            return None
        self.check(True, "model loads")
        if self.first_model is None:
            self.first_model = data
        else:
            self.check(data == self.first_model, "models trained from the same input differ")
        return pm

    def check_report(self, csv_path: Path, sizes) -> None:
        """Evaluate's CSV counts add up to each pair's held-out size; record accuracy."""
        try:
            with open(csv_path, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            self.check(False, f"evaluate wrote no CSV: {exc}")
            return
        worst = None
        for (pos, neg), size in sizes.items():
            row = next((r for r in rows if (r["correct"], r["error"]) == (pos, neg)), None)
            if not self.check(row is not None, f"evaluate CSV has no row {pos}/{neg}"):
                continue
            tp, fp, tn, fn = (int(row[k]) for k in ("tp", "fp", "tn", "fn"))
            total = tp + fp + tn + fn
            self.check(total == size, f"{pos}/{neg}: CSV counts sum to {total}, held-out half is {size}")
            if total:
                acc = 100.0 * (tp + tn) / total
                worst = acc if worst is None else min(worst, acc)
        if worst is not None:
            self.samples["worst_pair_accuracy_pct"].append(worst)

    def classify(self, pm, data: bytes):
        """One glyph, as `cmd_predict` handles it after reading the file."""
        pkg = self.pkg
        gray = pkg.imaging.load_pgm(data)
        binary, _ = pkg.imaging.binarize_otsu(gray)
        squared = pkg.imaging.resize_to_square(pkg.imaging.crop_to_bbox(binary), pm.meta.n)
        vec = pkg.features.extract_features(squared, pm.meta.m, normalize=pm.meta.normalize).values
        winner, votes = pkg.svm.predict_multiclass(pm, vec)
        decisions = [pkg.svm.decision(mdl, vec) for mdl in pm.models]
        return winner, votes, decisions

    def classify_chunk(self, pm, pool, order, start, count, answers):
        """Closed loop, one caller: classify `count` glyphs.

        A CPU probe every PROBE_EVERY glyphs lets each glyph's latency be
        scaled by the host speed of that moment; probes are not timed.
        """
        clock = time.perf_counter
        timed = []  # (start, end, raw us) per glyph
        hits = 0
        for k in range(start, start + count):
            if (k - start) % PROBE_EVERY == 0:
                self.micro_probe()
            rel, label, data = pool[order[k % len(order)]]
            t0 = clock()
            failure = None
            try:
                answer = self.classify(pm, data)
            except Exception:  # one failed operation; the loop goes on
                failure = traceback.format_exc(limit=2)
            t1 = clock()
            timed.append((t0, t1, (t1 - t0) * 1e6))
            if failure is not None:
                self.check(False, f"classify {rel}: {failure}")
                continue
            self.attempted += 1
            hits += answer[0] == label
            text = predict_text(pm, *answer)
            if answers.setdefault(rel, text) != text:
                self.check(False, f"classify {rel}: verdict changed between passes")
        self.chunks.append(timed)
        k = math.ceil(0.99 * count)
        self.check(count - k >= 10, f"a cycle's p99 has only {count - k} samples beyond it")
        self.samples["classify_hits"].append(hits)
        self.probe("cpu")

    def predict_some(self, model: Path, corpus_dir: Path, rows, order, cycle, answers) -> None:
        """`predict` children on glyphs of the last chunk; stdout must match the loop's."""
        self.probe("process")
        for k in range(PREDICTS):
            rel = rows[order[(cycle * CHUNK + k) % len(order)]][0]
            result = self.cli("predict", "--model", model, corpus_dir / rel,
                              metric="predict_s", kind="process")
            self.probe("process")
            if result.returncode == 0:
                self.check(
                    result.stdout == answers[rel],
                    f"predict {rel}: CLI printed {result.stdout!r}, in-process gave {answers[rel]!r}",
                )

    # -- workloads

    def run_train(self) -> None:
        """train-scale and noisy-eval: `train` then `evaluate`, repeated."""
        corpus_dir = self.work / "corpus"
        (rows,) = self.setup(lambda: [self.make_corpus(self.corpora["train"], corpus_dir)])
        manifest = corpus_dir / "manifest.csv"
        if self.trace:
            self.trace_train(corpus_dir, rows)
            return
        sizes = test_half_sizes(rows)
        order = list(range(len(rows)))
        self.rng.shuffle(order)
        model = self.work / "model.json"
        answers: dict[str, str] = {}
        start = time.perf_counter()
        cycle = 0
        while cycle < MIN_CYCLES or time.perf_counter() - start < self.seconds:
            report = self.work / f"report-{cycle}.csv"
            pm = self.train(corpus_dir, model, TRAIN_SEED)
            self.cli("evaluate", "--model", model, "--manifest", manifest,
                     "--csv", report, metric="evaluate_s")
            self.probe("cpu")
            self.check_report(report, sizes)
            if pm is not None:
                self.classify_chunk(pm, rows, order, cycle * CHUNK, CHUNK, answers)
                self.predict_some(model, corpus_dir, rows, order, cycle, answers)
            cycle += 1

    def trace_train(self, corpus_dir, rows) -> None:
        manifest, registry = corpus_dir / "manifest.csv", corpus_dir / "registry.csv"
        model = self.work / "model-cli.json"
        train_args = ("--manifest", manifest, "--registry", registry, "--seed", TRAIN_SEED, *TRAIN_FLAGS)
        self.cli("train", *train_args, "--model", model)
        cli_eval = self.cli("evaluate", "--model", model, "--manifest", manifest)
        glyphs = [rows[i][0] for i in self.rng.sample(range(len(rows)), CROSS_CHECK_GLYPHS)]
        cli_predict = {rel: self.cli("predict", "--model", model, corpus_dir / rel).stdout for rel in glyphs}
        self.time_import()

        def pipeline(tag):
            start = time.perf_counter()
            self.inprocess("train", [*train_args, "--model", self.work / f"model-{tag}.json"])
            out = self.inprocess("evaluate", ["--model", model, "--manifest", manifest])
            return time.perf_counter() - start, out

        untraced_s, _ = pipeline("untraced")
        with self.traced("measure"):
            traced_s, eval_out = pipeline("traced")
            predict_out = {}
            for rel in glyphs:
                self.tracer.glyph = rel
                predict_out[rel] = self.inprocess("predict", ["--model", model, corpus_dir / rel])
            self.tracer.glyph = None
        self.overhead(traced_s, untraced_s)
        self.cross_check(model, self.work / "model-traced.json", cli_eval.stdout, eval_out,
                         cli_predict, predict_out)

    def run_classify(self) -> None:
        """classify-stream: per-glyph classification of 96x96 P5 glyphs."""
        train_dir, stream_dir = self.work / "corpus" / "train", self.work / "corpus" / "stream"
        model = self.work / "model.json"

        def build():
            corpora = [
                self.make_corpus(self.corpora["train"], train_dir),
                self.make_corpus(self.corpora["stream"], stream_dir),
            ]
            # Twice per set-up: six train_s samples a run, and a byte-for-byte
            # comparison of two models trained from the same input.
            for _ in range(2):
                pms.append(self.train(train_dir, model, CLASSIFY_TRAIN_SEED))
            return corpora

        pms = []
        train_rows, stream = self.setup(build)
        pm = pms[-1] if pms else None
        if pm is None:
            return
        sizes = test_half_sizes(train_rows)
        manifest = train_dir / "manifest.csv"
        order = list(range(len(stream)))
        self.rng.shuffle(order)
        if self.trace:
            self.trace_classify(pm, model, train_dir, stream_dir, stream, order)
            return
        answers: dict[str, str] = {}
        start = time.perf_counter()
        cycle = 0
        while cycle < MIN_CYCLES or time.perf_counter() - start < self.seconds:
            self.probe("cpu")
            self.classify_chunk(pm, stream, order, cycle * CHUNK, CHUNK, answers)
            self.predict_some(model, stream_dir, stream, order, cycle, answers)
            report = self.work / f"report-{cycle}.csv"
            self.probe("cpu")
            self.cli("evaluate", "--model", model, "--manifest", manifest,
                     "--csv", report, metric="evaluate_s")
            self.probe("cpu")
            self.check_report(report, sizes)
            cycle += 1

    def trace_classify(self, pm, model, train_dir, stream_dir, stream, order) -> None:
        # Set-up model rebuilt in-process with spans; must match the CLI's bytes.
        rebuilt = self.work / "model-traced.json"
        with self.traced("setup"):
            self.inprocess("train", ["--manifest", train_dir / "manifest.csv",
                                     "--registry", train_dir / "registry.csv", "--model", rebuilt,
                                     "--seed", CLASSIFY_TRAIN_SEED, *TRAIN_FLAGS])
        manifest = train_dir / "manifest.csv"
        cli_eval = self.cli("evaluate", "--model", model, "--manifest", manifest)
        glyphs = [stream[order[k]][0] for k in range(CROSS_CHECK_GLYPHS)]
        cli_predict = {rel: self.cli("predict", "--model", model, stream_dir / rel).stdout for rel in glyphs}
        self.time_import()

        # Alternate untraced and traced passes over the whole stream.
        answers: dict[str, str] = {}
        walls = {False: [], True: []}
        start = time.perf_counter()
        passes = 0
        while passes < 4 or time.perf_counter() - start < self.seconds:
            traced = passes % 2 == 1
            ctx = self.traced("measure") if traced else contextlib.nullcontext()
            with ctx:
                walls[traced].append(self.classify_pass(pm, stream, order, answers, traced))
            passes += 1
        self.overhead(median(walls[True]), median(walls[False]))
        self.check(
            not any(s[NAME] == "svm.train_smo" and s[PHASE] == "measure" for s in self.tracer.spans),
            "SMO ran inside the measured classify loop",
        )

        with self.traced("check"):
            eval_out = self.inprocess("evaluate", ["--model", model, "--manifest", manifest])
            predict_out = {}
            for rel in glyphs:
                self.tracer.glyph = rel
                predict_out[rel] = self.inprocess("predict", ["--model", model, stream_dir / rel])
            self.tracer.glyph = None
        self.cross_check(model, rebuilt, cli_eval.stdout, eval_out, cli_predict, predict_out)

    def classify_pass(self, pm, stream, order, answers, traced):
        """One pass over the stream; each glyph's spans carry its file name."""
        start = time.perf_counter()
        for index in order:
            rel, _, data = stream[index]
            if traced:
                self.tracer.glyph = rel
            text = predict_text(pm, *self.classify(pm, data))
            if answers.setdefault(rel, text) != text:
                self.check(False, f"classify {rel}: traced and untraced verdicts differ")
        self.tracer.glyph = None
        return time.perf_counter() - start

    # -- traced-run helpers

    def time_import(self) -> None:
        for _ in range(IMPORT_RUNS):
            self.child(["-c", "import glyphspect.cli"], metric="cli.import_s")

    def overhead(self, traced_s: float, untraced_s: float) -> None:
        self.samples["trace.overhead_ms"].append((traced_s - untraced_s) * 1e3)
        self.samples["trace.overhead_pct"].append(100.0 * (traced_s - untraced_s) / untraced_s)

    def cross_check(self, cli_model, inproc_model, cli_eval, eval_out, cli_predict, predict_out):
        """The traced in-process run must reproduce the CLI children exactly."""
        self.check(
            cli_model.exists() and inproc_model.exists()
            and cli_model.read_bytes() == inproc_model.read_bytes(),
            "traced in-process train wrote different model bytes than the CLI",
        )
        self.check(eval_out == cli_eval, "traced in-process evaluate printed a different report")
        for rel, text in cli_predict.items():
            self.check(predict_out.get(rel) == text, f"traced in-process predict differs for {rel}")

    # -- results

    def end_to_end(self) -> dict[str, float]:
        """Speed-scaled timings (raw ones kept in self.raw), accuracies, memory."""
        for kind, probes in self.probes.items():
            self.probe_times[kind] = [t for t, _ in probes]
        self.scaled = {sample: self.normalized(sample) for sample in ("setup_s", "train_s", "evaluate_s", "predict_s")}
        scaled = [[lat * self.scale("cpu", t0, t1) for t0, t1, lat in chunk] for chunk in self.chunks]
        raw = [[lat for _, _, lat in chunk] for chunk in self.chunks]
        self.scaled.update(chunk_summaries(scaled))
        self.samples.update(chunk_summaries(raw))
        values = {}
        for name, sample in TIMINGS.items():
            values[name] = median(self.scaled[sample])
            self.raw[name] = median(self.samples[sample])
        glyphs = len(self.samples["classify_us"])
        values["worst_pair_accuracy_pct"] = median(self.samples["worst_pair_accuracy_pct"])
        values["verdict_accuracy_pct"] = 100.0 * sum(self.samples["classify_hits"]) / glyphs
        values["peak_rss_mb"] = self.rss_kb / 1024.0
        return values

    def per_layer(self) -> dict[str, float]:
        tracer = self.tracer
        selfs = tracer.self_times_ns()
        by_phase: dict[tuple[str, str], list[int]] = defaultdict(list)
        for i, span in enumerate(tracer.spans):
            by_phase[(span[PHASE], span[NAME])].append(i)

        def spans_of(name):
            for phase in PHASE_ORDER:
                if by_phase.get((phase, name)):
                    return by_phase[(phase, name)]
            return []

        values: dict[str, float] = {}
        for metric, (name, _, scale) in PER_CALL.items():
            ids = spans_of(name)
            if ids:
                values[metric] = median(selfs[i] for i in ids) / scale
        for metric, (name, _, scale) in PHASE_TOTAL.items():
            ids = spans_of(name)
            if ids:
                values[metric] = sum(selfs[i] for i in ids) / scale
        for metric, name in SPAN_COUNT.items():
            ids = spans_of(name)
            if ids:
                values[metric] = median(tracer.spans[i][COUNT] for i in ids)
        tables = spans_of("evaluation.report_table")
        if tables:
            phase = tracer.spans[tables[0]][PHASE]
            total = sum(selfs[i] for name in REPORT_SPANS for i in by_phase.get((phase, name), []))
            values["evaluation.report_ms"] = total / len(tables) / 1e6
        for pos, neg in PAIRS:
            ids = [i for i in spans_of("svm.train_smo") if tracer.spans[i][PAIR] == f"{pos}/{neg}"]
            if ids:
                values[f"svm.train_smo_ms.{pos}.{neg}"] = median(selfs[i] for i in ids) / 1e6
        for data, model in tracer.trained:
            for stat, value in smo_stats(data, model).items():
                values[f"{stat}.{model.pos_class}.{model.neg_class}"] = value
        for metric in ("cli.import_s", "trace.overhead_ms", "trace.overhead_pct"):
            if self.samples[metric]:
                values[metric] = median(self.samples[metric])
        return values


def smo_stats(data, model) -> dict[str, float]:
    """Solver diagnostics from outside: the returned model against its training set."""
    import numpy as np  # not at the top: main() pins the BLAS threads before numpy loads

    x = np.asarray(data.x, dtype=np.float64)
    y = np.asarray(data.y, dtype=np.float64)
    sv = np.asarray(model.support_x, dtype=np.float64)
    coef = np.asarray(model.alpha) * np.asarray(model.support_y)

    def kernel(a, b):
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-model.gamma * d2)

    # Map each support vector back to its training row to get every alpha.
    rows: dict[tuple, list[int]] = defaultdict(list)
    for i, (row, label) in enumerate(zip(data.x, data.y)):
        rows[(tuple(row), label)].append(i)
    alpha = np.zeros(len(y))
    for row, label, a in zip(model.support_x, model.support_y, model.alpha):
        alpha[rows[(tuple(row), label)].pop(0)] = a

    margin = y * (kernel(x, sv) @ coef + model.bias) - 1.0
    eps = 1e-8
    at_lo, at_hi = alpha <= eps, alpha >= model.c - eps
    violation = np.where(
        at_lo, np.maximum(0.0, -margin), np.where(at_hi, np.maximum(0.0, margin), np.abs(margin))
    )
    return {
        "svm.samples_per_pair": len(y),
        "svm.support_vectors": len(model.alpha),
        "svm.bounded_svs": int(at_hi.sum()),
        "svm.dual_objective": float(alpha.sum() - 0.5 * coef @ kernel(sv, sv) @ coef),
        "svm.kkt_violation_max": float(violation.max()),
    }


def environment() -> dict:
    import numpy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def describe(bench: Bench, metrics: dict[str, dict]) -> list[str]:
    """Human-readable lines: every metric with its unit; timings with n and tail."""
    lines = [f"workload {bench.workload} seed {bench.seed} trace {int(bench.trace)} size {bench.size}"]
    for name, m in metrics.items():
        line = f"  {name} = {m['value']:.6g} {m['unit']}"
        samples = bench.scaled.get(TIMINGS.get(name), [])
        if name == "classify_p99_us" and samples:
            line += (f"  (median over n={len(samples)} cycles of each cycle's p99 of {CHUNK}"
                     f" glyphs; raw {bench.raw[name]:.6g}; not gated)")
        elif samples:
            top = tail(samples)
            line += f"  (n={len(samples)}"
            line += f"; p{top[0]:g} = {top[1]:.6g}" if top else "; no percentile has 10 samples beyond it"
            line += f"; raw {bench.raw[name]:.6g})"
        lines.append(line)
    frac = bench.failed / bench.attempted if bench.attempted else 0.0
    lines.append(f"  ops_failed_frac = {frac:.6g} 1  ({bench.failed} of {bench.attempted})")
    lines.append(f"  corpus_sha256 = {bench.digest}")
    lines += [f"  FAILED: {what}" for what in bench.failures[:20]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="tiny runs every workload on small corpora (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "glyphspect" / "cli.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    pkg = load_package()
    bench = Bench(args, pkg)
    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "classify-stream":
            bench.run_classify()
        else:
            bench.run_train()
        if bench.trace:
            values, units = bench.per_layer(), per_layer_units()
        else:
            values, units = bench.end_to_end(), END_TO_END
    except Exception:  # the run as a whole failed: report it, print no result
        print(traceback.format_exc(), file=sys.stderr)
        for what in bench.failures:
            print(f"FAILED: {what}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    missing = sorted(set(units) - set(values))
    bench.check(not missing, f"metrics not measured: {missing}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units if name in values}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if bench.trace:
        (results / f"{stem}-spans.json").write_text(
            json.dumps(bench.tracer.to_json(args.workload, args.seed)), encoding="utf-8"
        )
    summary = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    (results / f"{stem}.json").write_text(
        json.dumps(
            {**summary, "workload": args.workload, "seed": args.seed, "size": args.size,
             "seconds": args.seconds, "corpus_sha256": bench.digest,
             "raw_medians": bench.raw, "reference_probe_s": REFERENCE_S,
             "probes": bench.probes, "timed": bench.timed,
             "failures": bench.failures, "environment": environment()},
            indent=2,
        ),
        encoding="utf-8",
    )
    shown = dict(metrics)
    if not bench.trace:
        shown.update({name: {"value": values[name], "unit": unit} for name, unit in UNGATED.items()})
    print("\n".join(describe(bench, shown)))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
