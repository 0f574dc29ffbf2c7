"""Acceptance suite: one test per release criterion.

Each test pins its tolerance inline and prints a single pass line on
success (visible with `pytest -s` or `-rP`); a failure surfaces through the
normal pytest report for that criterion's test.
"""
import cmath
import json
import math
import random
import time
from fractions import Fraction

import pytest

from glyphspect import cli
from glyphspect.imaging import BinaryImage, GrayImage, binarize_otsu
from glyphspect.features import dft, extract_features, project, truncate_spectrum
from glyphspect.svm import (
    KernelParams,
    ModelFormatError,
    ModelMeta,
    TrainingSet,
    decision,
    load_model,
    rbf_kernel,
    save_model,
    train_pairwise,
    train_smo,
)
from glyphspect.dataset import (
    SynthParams,
    builtin_registry,
    builtin_templates,
    split_even,
    synth_generate,
)
from glyphspect.evaluation import ConfusionCounts, evaluate_pair, metrics


def test_criterion_1_dft_oracle_and_parseval():
    rng = random.Random(101)
    started = time.perf_counter()
    for _ in range(200):
        n = rng.randint(1, 32)
        signal = [rng.uniform(-10.0, 10.0) for _ in range(n)]
        got = dft(signal).coeffs
        want = [
            sum(signal[t] * cmath.exp(-2j * math.pi * k * t / n) for t in range(n))
            for k in range(n)
        ]
        scale = max(1.0, max(abs(c) for c in want))
        assert all(abs(a - b) <= 1e-9 * scale for a, b in zip(got, want))
        time_energy = sum(s * s for s in signal)
        freq_energy = sum(abs(c) ** 2 for c in got) / n
        assert abs(time_energy - freq_energy) <= 1e-9 * max(1.0, time_energy)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"[acceptance] criterion 1 PASS: DFT matches naive formula and "
          f"Parseval holds on 200 signals in {elapsed:.3f}s")


def test_criterion_2_projection_conservation():
    rng = random.Random(102)
    for _ in range(100):
        n = rng.randint(8, 32)
        px = tuple(int(rng.random() < rng.uniform(0.1, 0.9)) for _ in range(n * n))
        pair = project(BinaryImage(n, n, px))
        ink = sum(px)
        assert sum(pair.h) == ink
        assert sum(pair.v) == ink
    print("[acceptance] criterion 2 PASS: projection sums equal ink count "
          "exactly on 100 random images")


def exhaustive_otsu_scan(img: GrayImage) -> int:
    best_t, best_var = 0, Fraction(-1)
    pixels = img.pixels.ravel().tolist()
    total = len(pixels)
    for t in range(256):
        low = [p for p in pixels if p <= t]
        high = [p for p in pixels if p > t]
        if not low or not high:
            var = Fraction(0)
        else:
            mean_low = Fraction(sum(low), len(low))
            mean_high = Fraction(sum(high), len(high))
            var = (
                Fraction(len(low), total)
                * Fraction(len(high), total)
                * (mean_low - mean_high) ** 2
            )
        if var > best_var:
            best_t, best_var = t, var
    return best_t


def test_criterion_3_otsu_matches_exhaustive_scan():
    rng = random.Random(103)
    checked = 0
    while checked < 50:
        w = rng.randint(2, 12)
        h = rng.randint(2, 12)
        px = tuple(rng.randrange(256) for _ in range(w * h))
        if min(px) == max(px):
            continue
        img = GrayImage(w, h, px)
        _, t = binarize_otsu(img)
        assert t == exhaustive_otsu_scan(img)
        checked += 1
    # crafted exact tie: both modes equal on every separating threshold
    tie = GrayImage(2, 2, (0, 0, 255, 255))
    _, t = binarize_otsu(tie)
    assert t == 0 == exhaustive_otsu_scan(tie)
    print("[acceptance] criterion 3 PASS: Otsu threshold attains the scan "
          "maximum on 50 images, ties resolve to the smallest threshold")


def xor_problem():
    x = ((0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0))
    y = (-1, -1, 1, 1)
    return x, y


def dual_objective_of(model):
    linear = sum(model.alpha)
    quad = 0.0
    for i in range(len(model.alpha)):
        for j in range(len(model.alpha)):
            quad += (
                model.alpha[i]
                * model.alpha[j]
                * model.support_y[i]
                * model.support_y[j]
                * rbf_kernel(model.support_x[i], model.support_x[j], model.gamma)
            )
    return linear - 0.5 * quad


def xor_grid_optimum(c=10.0, step=0.25, top=5.0):
    x, y = xor_problem()
    kern = [[rbf_kernel(x[i], x[j], 1.0) for j in range(4)] for i in range(4)]
    best = float("-inf")
    values = [i * step for i in range(int(top / step) + 1)]
    for a1 in values:
        for a2 in values:
            for a3 in values:
                a4 = a1 + a2 - a3  # equality constraint with y = (-,-,+,+)
                if not 0.0 <= a4 <= c:
                    continue
                alpha = (a1, a2, a3, a4)
                quad = 0.0
                for i in range(4):
                    for j in range(4):
                        quad += alpha[i] * alpha[j] * y[i] * y[j] * kern[i][j]
                best = max(best, sum(alpha) - 0.5 * quad)
    return best


def test_criterion_4_smo_correctness():
    params = KernelParams(gamma=2.0, c=50.0)
    for index in range(30):
        rng = random.Random(1000 + index)
        points, labels = [], []
        for _ in range(rng.randint(3, 10)):
            points.append((rng.uniform(0.6, 1.0), rng.uniform(0.6, 1.0)))
            labels.append(1)
        for _ in range(rng.randint(3, 10)):
            points.append((rng.uniform(0.0, 0.4), rng.uniform(0.0, 0.4)))
            labels.append(-1)
        assert len(points) <= 20
        model = train_smo(
            TrainingSet(tuple(points), tuple(labels)), params, index, debug=True
        )
        assert all(0.0 < a <= params.c for a in model.alpha)
        balance = sum(a * yy for a, yy in zip(model.alpha, model.support_y))
        assert abs(balance) <= 1e-6
        alpha_of = {x: a for x, a in zip(model.support_x, model.alpha)}
        tol = params.kkt_tol + 1e-6
        for x, yy in zip(points, labels):
            f = decision(model, x)
            assert (1 if f >= 0 else -1) == yy  # 100% training accuracy
            a = alpha_of.get(tuple(x), 0.0)
            if a <= 1e-8:
                assert yy * f >= 1.0 - tol
            elif a >= params.c - 1e-8:
                assert yy * f <= 1.0 + tol
            else:
                assert abs(yy * f - 1.0) <= tol

    x, y = xor_problem()
    xor_model = train_smo(
        TrainingSet(x, y), KernelParams(gamma=1.0, c=10.0), 7, debug=True
    )
    for xi, yi in zip(x, y):
        assert (1 if decision(xor_model, xi) >= 0 else -1) == yi
    smo_objective = dual_objective_of(xor_model)
    grid = xor_grid_optimum()
    assert smo_objective >= grid - 1e-3
    print(f"[acceptance] criterion 4 PASS: SMO solves 30 separable sets with "
          f"KKT/dual feasibility; XOR objective {smo_objective:.6f} >= "
          f"grid {grid:.6f} - 1e-3")


# Reference report rows (sensitivity, specificity, accuracy in percent) from
# a balanced 12-versus-12 evaluation protocol.
BALANCED_REPORT_ROWS = (
    (100.0, 58.33, 79.167),
    (75.0, 100.0, 87.5),
    (100.0, 41.67, 70.83),
    (100.0, 41.67, 70.83),
    (100.0, 41.67, 70.83),
    (100.0, 41.67, 70.83),
    (100.0, 41.67, 70.83),
    (41.67, 100.0, 70.83),
    (100.0, 66.67, 83.33),
    (100.0, 41.67, 70.83),
    (91.67, 50.0, 70.83),
)


def test_criterion_5_balanced_split_arithmetic():
    for sens, spec, acc in BALANCED_REPORT_ROWS:
        assert abs(acc - (sens + spec) / 2.0) <= 0.01
        # reconstruct integer counts under the 12+12 assumption and push
        # them through the metric definitions
        tp = round(sens * 12 / 100.0)
        tn = round(spec * 12 / 100.0)
        got = metrics(ConfusionCounts(tp=tp, fn=12 - tp, tn=tn, fp=12 - tn))
        assert abs(got.sensitivity - sens) <= 0.01
        assert abs(got.specificity - spec) <= 0.01
        assert abs(got.accuracy - acc) <= 0.01
    print("[acceptance] criterion 5 PASS: accuracy = (sensitivity + "
          "specificity) / 2 within 0.01 points on all 11 reference rows")


def test_criterion_6_end_to_end_synthetic_reproduction():
    started = time.perf_counter()
    # Two confusable classes; n=32, m=16 per the protocol. The RBF width
    # and feature normalization are the documented quickstart settings,
    # fixed here so the criterion does not depend on the default width
    # that `train` derives from the train half (see the package README).
    templates = {k: v for k, v in builtin_templates().items() if k.startswith("ring")}
    assert len(templates) == 2
    params = SynthParams(flips=0.02, max_shift=2, scale_jitter=0.0, count=24, seed=42)
    samples = synth_generate(templates, params, 32)
    assert len(samples) == 48
    train, test = split_even(samples, 42)
    for label in templates:
        assert sum(s.label == label for s in train) == 12
        assert sum(s.label == label for s in test) == 12

    def vector(sample):
        return extract_features(sample.image, 16, normalize=True).values

    pm = train_pairwise(
        [vector(s) for s in train],
        [s.label for s in train],
        KernelParams(gamma=2.0, c=10.0),
        42,
        pairs=[("ring", "ring-gap")],
    )
    counts = evaluate_pair(
        pm.models[0], [vector(s) for s in test], [s.label for s in test]
    )
    accuracy = metrics(counts).accuracy
    elapsed = time.perf_counter() - started
    assert accuracy >= 90.0
    assert elapsed < 30.0
    print(f"[acceptance] criterion 6 PASS: synthetic pair test accuracy "
          f"{accuracy:.1f}% (>= 90%) in {elapsed:.2f}s")


def run_pipeline(tmp_path, tag):
    corpus = tmp_path / f"corpus-{tag}"
    model = tmp_path / f"model-{tag}.json"
    report = tmp_path / f"report-{tag}.csv"
    assert cli.main(
        ["synth", "--out", str(corpus), "--count", "12", "--flips", "0.02",
         "--max-shift", "2", "--seed", "42"]
    ) == 0
    assert cli.main(
        ["train", "--manifest", str(corpus / "manifest.csv"),
         "--registry", str(corpus / "registry.csv"), "--model", str(model),
         "--gamma", "2", "--normalize-l2", "--seed", "42"]
    ) == 0
    assert cli.main(
        ["evaluate", "--model", str(model),
         "--manifest", str(corpus / "manifest.csv"), "--csv", str(report)]
    ) == 0
    return model.read_bytes(), report.read_bytes()


def test_criterion_7_determinism(tmp_path, capsys):
    model_a, report_a = run_pipeline(tmp_path, "a")
    stdout_a = capsys.readouterr().out
    model_b, report_b = run_pipeline(tmp_path, "b")
    stdout_b = capsys.readouterr().out
    assert model_a == model_b
    assert report_a == report_b
    # evaluate tables (everything after the train output) must match too
    table_a = stdout_a[stdout_a.index("Correct Character"):]
    table_b = stdout_b[stdout_b.index("Correct Character"):]
    assert table_a == table_b
    print("[acceptance] criterion 7 PASS: identical seeds give byte-identical "
          "model files and reports")


def test_criterion_8_model_round_trip_and_rejection():
    rng = random.Random(108)
    xs, labels = [], []
    for cls, (cx, cy) in (("a", (0.0, 0.0)), ("b", (3.0, 3.0)), ("c", (0.0, 3.0))):
        for _ in range(6):
            xs.append((cx + rng.uniform(-0.5, 0.5), cy + rng.uniform(-0.5, 0.5)))
            labels.append(cls)
    pm = train_pairwise(
        xs, labels, KernelParams(gamma=0.9, c=10.0), 3, meta=ModelMeta(2, 1, 3)
    )
    blob = save_model(pm)
    clone = load_model(blob)
    for _ in range(100):
        probe = (rng.uniform(-1, 4), rng.uniform(-1, 4))
        for original, loaded in zip(pm.models, clone.models):
            assert decision(original, probe) == decision(loaded, probe)

    doc = json.loads(blob.decode())
    bad_version = dict(doc, format_version=7)
    with pytest.raises(ModelFormatError):
        load_model(json.dumps(bad_version).encode())

    bad_alpha = json.loads(blob.decode())
    bad_alpha["pairs"][0]["support"][0]["alpha"] = bad_alpha["c"] * 3
    with pytest.raises(ModelFormatError):
        load_model(json.dumps(bad_alpha).encode())

    bad_nan = json.loads(blob.decode())
    bad_nan["pairs"][0]["bias"] = float("nan")
    with pytest.raises(ModelFormatError):
        load_model(json.dumps(bad_nan).encode())

    print("[acceptance] criterion 8 PASS: round trip is decision-bitwise on "
          "100 probes; bad version, alpha > C, and NaN are rejected")


def test_criterion_9_magnitude_shift_invariance():
    rng = random.Random(109)
    for _ in range(100):
        n = rng.randint(2, 32)
        signal = [rng.randint(0, n) for _ in range(n)]
        shift = rng.randrange(n)
        rolled = signal[shift:] + signal[:shift]
        m = rng.randint(1, n)
        base = truncate_spectrum(dft(signal), m)
        moved = truncate_spectrum(dft(rolled), m)
        scale = max(1.0, max(base))
        assert all(abs(a - b) <= 1e-9 * scale for a, b in zip(base, moved))
    print("[acceptance] criterion 9 PASS: truncated magnitudes invariant "
          "under cyclic shifts on 100 signal/shift combinations")
