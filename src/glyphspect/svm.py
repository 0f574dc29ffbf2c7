"""RBF-kernel binary SVMs trained by sequential minimal optimization.

The solver keeps the whole kernel matrix and the dual gradient in memory
(a per-pair training set holds at most a few hundred glyphs) and updates
the gradient after every two-variable step. Each step takes the maximal
violating index and picks its partner by the second-order rule of Fan,
Chen and Lin (JMLR 6, 2005), as LIBSVM does; training stops once the KKT
gap between the two index sets is within tolerance (Keerthi et al. 2001).
The selection is deterministic, so a training set always yields the same
model.

A PairwiseModel bundles one binary machine per confusable class pair and
predicts by majority vote, with one kernel value per support vector.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from typing import Sequence

import numpy as np

from . import _JSON_TYPES, ConvergenceError, _FrozenValue, _float, _floats, _int

__all__ = [
    "FORMAT_VERSION",
    "N_MAX",
    "DegenerateTrainingError",
    "ConvergenceError",
    "ModelFormatError",
    "KernelParams",
    "TrainingSet",
    "SvmModel",
    "ModelMeta",
    "PairRegistry",
    "PairwiseModel",
    "rbf_kernel",
    "train_smo",
    "decision",
    "decisions",
    "train_pairwise",
    "vote",
    "predict_multiclass",
    "save_model",
    "load_model",
]

FORMAT_VERSION = 1
# The largest raster side n: cli featurizes 256 glyphs at a time, as n-by-n
# bool masks and their float64 copy, 9 * 256 * n**2 bytes (151 MB at 256).
N_MAX = 256

_ZERO_ALPHA = 1e-8  # multipliers at or below this count as zero and are dropped
_EQUALITY_TOL = 1e-6  # bound on |sum(alpha_i * y_i)| for stored models
_ITERATIONS_PER_SAMPLE = 100  # SMO step budget per training sample, as LIBSVM
_TAU = 1e-12  # curvature used in place of a non-positive one
_DECISION_BLOCK = 64  # rows per kernel block; bounds the (rows, SVs, dim) array


class DegenerateTrainingError(ValueError):
    """Training data does not define a two-class problem."""


class ModelFormatError(ValueError):
    """A serialized model violates the file schema or a stored invariant."""


def _labels(values) -> tuple[int, ...]:
    """Labels in {-1, +1} as ints; a value equal to neither (2, 0.5, inf,
    "1") raises ValueError."""
    labels = tuple(values)
    for label in labels:
        if label not in (-1, 1):
            raise ValueError(f"label {label} not in {{-1, +1}}")
    return tuple(map(int, labels))


class KernelParams(_FrozenValue):
    """RBF width and box constraint, each positive and finite: the one home
    of that rule, which SvmModel and rbf_kernel reuse. `kkt_tol`, the SMO
    stopping tolerance, is a constant. A value outside the rule raises
    ValueError, one that is not a number TypeError."""

    kkt_tol = 1e-3

    def __init__(self, gamma: float, c: float = 10.0):
        for name, value in (("gamma", gamma), ("c", c)):
            value = _float(value)
            if not 0.0 < value < math.inf:  # also refuses NaN
                raise ValueError(f"{name} must be positive and finite")
            self.__dict__[name] = value


def rbf_kernel(x: Sequence[float], y: Sequence[float], gamma: float) -> float:
    """exp(-gamma * ||x - y||^2); equals 1 at zero distance. Vectors of
    different lengths or with a non-finite component raise ValueError, as
    does a gamma KernelParams refuses; a vector or gamma of the wrong type
    raises TypeError."""
    x, y = _floats(x), _floats(y)
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    if not all(map(math.isfinite, x + y)):
        raise ValueError("non-finite feature value")
    gamma = KernelParams(gamma).gamma
    d2 = 0.0
    for a, b in zip(x, y):
        diff = a - b
        d2 += diff * diff
    return math.exp(-gamma * d2)


class TrainingSet(_FrozenValue):
    """Finite feature rows of one length with labels in {-1, +1}; both
    labels must occur. A value outside these rules raises ValueError, one
    of the wrong type (a row that is not a sequence) TypeError."""

    def __init__(self, x: tuple[tuple[float, ...], ...], y: tuple[int, ...]):
        self.__dict__.update(x=tuple(map(_floats, x)), y=_labels(y))
        if len(self.x) != len(self.y):
            raise ValueError("x and y lengths differ")
        if not self.x:
            raise ValueError("training set is empty")
        if not all(map(math.isfinite, itertools.chain.from_iterable(self.x))):
            raise ValueError("non-finite feature value")
        if len(set(map(len, self.x))) > 1:
            raise ValueError("feature rows have differing dimensionality")
        if len(set(self.y)) < 2:
            raise DegenerateTrainingError(
                "degenerate training set: only one class present"
            )


class SvmModel(_FrozenValue):
    """Trained dual solution: support vectors, multipliers, bias, kernel width.

    Only structural invariants are enforced here (hand-built stub models are
    legitimate for testing); the dual equality constraint is asserted by the
    trainer and validated by the model-file loader. A value that breaks an
    invariant raises ValueError, one of the wrong type TypeError.
    """

    def __init__(
        self, support_x: tuple[tuple[float, ...], ...], support_y: tuple[int, ...],
        alpha: tuple[float, ...], bias: float, gamma: float,
        pos_class: str, neg_class: str, c: float,
    ):
        self.__dict__.update(
            support_x=tuple(map(_floats, support_x)), support_y=_labels(support_y),
            alpha=_floats(alpha), bias=_float(bias), gamma=gamma,
            pos_class=pos_class, neg_class=neg_class, c=c,
        )
        if not (len(self.support_x) == len(self.support_y) == len(self.alpha) >= 1):
            raise ValueError("support vectors, labels, and alphas must align")
        self.__dict__["dim"] = len(self.support_x[0])  # every row's, checked below
        if self.dim < 1:
            raise ValueError("feature dimension must be positive")
        params = KernelParams(self.gamma, self.c)
        self.__dict__.update(gamma=params.gamma, c=params.c)
        if self.pos_class == self.neg_class:
            raise ValueError("pos_class and neg_class must differ")
        if not math.isfinite(self.bias):
            raise ValueError("bias must be finite")
        if any(len(row) != self.dim for row in self.support_x):
            raise ValueError("support vector dimension mismatch")
        sv, alpha = np.array(self.support_x), np.array(self.alpha)
        if not np.isfinite(sv).all():
            raise ValueError("non-finite support vector component")
        if not np.isfinite(alpha).all():
            raise ValueError("non-finite multiplier")
        if alpha.min() <= 0.0:
            raise ValueError("stored multipliers must be positive")
        if (worst := alpha.max()) > self.c:
            raise ValueError(f"multiplier {worst} exceeds box constraint {self.c}")
        # support_x as an array and alpha_i * y_i, built once for decision()
        self.__dict__.update(_sv=sv, _coef=alpha * np.array(self.support_y))


def train_smo(
    data: TrainingSet,
    params: KernelParams,
    seed: int,
    pos_class: str = "pos",
    neg_class: str = "neg",
    debug: bool = False,
) -> SvmModel:
    """Solve the soft-margin dual by SMO with second-order working-set choice.

    With Q_ij = y_i y_j K(x_i, x_j) and the gradient G = Q alpha - 1, each
    step takes i maximising -y_i G_i over I_up (multipliers that may move
    up along y) and the partner j in I_low that maximises the second-order
    gain, then moves the pair analytically inside the box. Returns once the
    gap max_{I_up} -y G - min_{I_low} -y G is at most kkt_tol, so every
    sample meets its KKT condition within kkt_tol; raises ConvergenceError
    after 100 steps per sample without getting there. The bias is the
    mean -y G over free multipliers (the gap midpoint when none is free).
    The model keeps only samples with a nonzero multiplier. `seed` is
    accepted for interface stability and unused: the selection is
    deterministic. With `debug` the dual objective is recomputed around
    every step and asserted non-decreasing.
    """
    x = np.array(data.x)
    y = np.array(data.y, dtype=float)
    m = len(y)
    c, tol = params.c, params.kkt_tol

    # ||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b avoids an (m, m, d) difference
    sq = np.einsum("ij,ij->i", x, x)
    kern = np.exp(
        -params.gamma * np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    )
    np.fill_diagonal(kern, 1.0)
    q = np.outer(y, y) * kern
    pos = y > 0

    alpha = np.zeros(m)
    grad = -np.ones(m)

    def objective() -> float:
        return alpha.sum() - 0.5 * alpha @ q @ alpha

    for _ in range(_ITERATIONS_PER_SAMPLE * m):
        viol = -y * grad
        at_lo = alpha <= 0.0
        at_hi = alpha >= c
        up = np.where(pos, ~at_hi, ~at_lo)
        low = np.where(pos, ~at_lo, ~at_hi)
        i = int(np.argmax(np.where(up, viol, -np.inf)))
        v_max = viol[i]
        v_min = np.min(np.where(low, viol, np.inf))
        if v_max - v_min <= tol:
            break
        gain = v_max - viol
        curv = 2.0 - 2.0 * kern[i]  # K_ii + K_tt - 2 K_it with a unit diagonal
        curv[curv <= 0.0] = _TAU
        j = int(np.argmin(np.where(low & (gain > 0.0), -gain * gain / curv, np.inf)))

        # alpha_i moves by y_i t and alpha_j by -y_j t, keeping sum(alpha y)
        cap_i = c - alpha[i] if pos[i] else alpha[i]
        cap_j = alpha[j] if pos[j] else c - alpha[j]
        t = min(gain[j] / curv[j], cap_i, cap_j)
        if debug:
            before = objective()
        old_i, old_j = alpha[i], alpha[j]
        alpha[i] = old_i + y[i] * t if t < cap_i else (c if pos[i] else 0.0)
        alpha[j] = old_j - y[j] * t if t < cap_j else (0.0 if pos[j] else c)
        grad += q[i] * (alpha[i] - old_i) + q[j] * (alpha[j] - old_j)
        if debug:
            after = objective()
            assert after >= before - 1e-9 * max(1.0, abs(before)), (
                f"dual objective decreased: {before} -> {after}"
            )
    else:
        raise ConvergenceError(
            f"KKT gap still above {tol:g} after "
            f"{_ITERATIONS_PER_SAMPLE * m} SMO steps"
        )

    free = (alpha > 0.0) & (alpha < c)
    bias = viol[free].mean() if free.any() else (v_max + v_min) / 2.0
    keep = [i for i in range(m) if alpha[i] > _ZERO_ALPHA]
    if not keep:
        raise ConvergenceError("solver finished with no support vectors")
    balance = sum(alpha[i] * y[i] for i in keep)
    if abs(balance) > _EQUALITY_TOL:
        raise ConvergenceError(
            f"dual equality constraint violated after training: {balance}"
        )
    return SvmModel(
        support_x=tuple(data.x[i] for i in keep),
        support_y=tuple(data.y[i] for i in keep),
        alpha=tuple(alpha[i] for i in keep),
        bias=float(bias),
        gamma=params.gamma,
        pos_class=pos_class,
        neg_class=neg_class,
        c=c,
    )


# a . b over the last axis, each row summed alone: a (S, d) @ (d,) product
# would round a row by its place among the S, and a stack of machines would
# then not match decision(). np.vecdot (numpy >= 2.0) skips einsum's parse.
_row_dots = getattr(np, "vecdot", None) or functools.partial(np.einsum, "...d,...d->...")


def _kernel(sv: np.ndarray, x: Sequence[float], gamma: float) -> np.ndarray:
    """K(s, x) for each row s of `sv`: (S,) for one row x, (R, S) for (R, 1, d) x."""
    x, dim = np.asarray(x, dtype=float), sv.shape[1]
    if x.shape[-1] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {x.shape[-1]}")
    diff = sv - x
    k = _row_dots(diff, diff)
    k *= -gamma
    return np.exp(k, out=k)


def decisions(model: SvmModel, rows: Sequence[Sequence[float]]) -> np.ndarray:
    """decision() of every row, bit for bit, one kernel block per
    _DECISION_BLOCK rows."""
    x = np.asarray(rows, dtype=float)
    if x.size and x.shape[1:] != (model.dim,):
        raise ValueError(
            f"dimension mismatch: expected {model.dim}, got {x.shape[-1]}"
        )
    sums = np.empty(len(x))
    for start in range(0, len(x), _DECISION_BLOCK):
        block = slice(start, start + _DECISION_BLOCK)
        k = _kernel(model._sv, x[block, None], model.gamma)
        # a dot product per row, as decision() takes; gemv rounds differently
        sums[block] = (k[:, None] @ model._coef)[:, 0]
    return sums + model.bias


def decision(model: SvmModel, x: Sequence[float]) -> float:
    """sum_i alpha_i * y_i * K(s_i, x) + bias; decisions() on one row,
    without the batch axes."""
    return float(_kernel(model._sv, x, model.gamma).dot(model._coef)) + model.bias


class ModelMeta(_FrozenValue):
    """Pipeline facts baked into a model file: raster side, coefficient count,
    the split seed, and whether feature vectors were L2-normalized. A side,
    count or seed that is not an integer (a bool or 2.0 included), or a flag
    that is not a bool, raises TypeError; a side outside [1, N_MAX], a count
    outside [1, n], or an integer too long for str() to render, ValueError."""

    def __init__(self, n: int, m: int, seed: int, normalize: bool = False):
        # the JSON types load_model requires: a numpy integer becomes an int
        for name, value in (("n", n), ("m", m), ("seed", seed)):
            value = _int(value, name)
            try:
                str(value)  # save_model's json renders it the same way
            except ValueError:
                raise ValueError(
                    f"{name} has more digits than sys.get_int_max_str_digits()"
                ) from None
            self.__dict__[name] = value
        if type(normalize) is not bool:
            raise TypeError("normalize must be a bool")
        self.__dict__["normalize"] = normalize
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.n > N_MAX:
            raise ValueError(f"n must be at most {N_MAX}, got {self.n}")
        if not 1 <= self.m <= self.n:
            raise ValueError(f"m must satisfy 1 <= m <= {self.n}, got {self.m}")


class PairRegistry(_FrozenValue):
    """The confusable pairs: (correct_class, error_class) rows, the first
    bound to +1. The one home of the pair-list rules: at least one pair,
    non-empty and distinct names, no unordered pair twice. A list that breaks
    them raises ValueError, one whose rows are not sequences TypeError."""

    def __init__(self, pairs: tuple[tuple[str, str], ...]):
        self.__dict__["pairs"] = tuple((str(a), str(b)) for a, b in pairs)
        if not self.pairs:
            raise ValueError("no pairs")
        seen = set()
        for a, b in self.pairs:
            if not a or not b:
                raise ValueError("class names must be non-empty")
            if a == b:
                raise ValueError(f"pair {a!r}/{b!r}: classes must differ")
            key = frozenset((a, b))
            if key in seen:
                raise ValueError(f"duplicate pair {a!r}/{b!r}")
            seen.add(key)

    @property
    def classes(self) -> tuple[str, ...]:
        """Every class of a pair, in order of first appearance."""
        return tuple(dict.fromkeys(cls for pair in self.pairs for cls in pair))


class PairwiseModel(_FrozenValue):
    """One binary machine per confusable class pair, voting for prediction.
    Its pairs obey PairRegistry's rules; `classes` is every class of a pair,
    in order of first appearance among the machines."""

    def __init__(self, models: tuple[SvmModel, ...], meta: ModelMeta | None = None):
        self.__dict__.update(models=tuple(models), meta=meta)
        registry = PairRegistry((m.pos_class, m.neg_class) for m in self.models)
        first = self.models[0]
        if self.meta is not None and 2 * self.meta.m != first.dim:
            raise ValueError(
                f"feature dimension {first.dim} differs from "
                f"2m = {2 * self.meta.m} in the metadata"
            )
        for mdl in self.models:
            if mdl.dim != first.dim:
                raise ValueError("pair machines disagree on feature dimension")
            if mdl.gamma != first.gamma or mdl.c != first.c:
                raise ValueError("pair machines disagree on kernel parameters")
        # derived: the classes, all support vectors stacked, each machine's row span
        ends = list(itertools.accumulate(len(mdl.alpha) for mdl in self.models))
        self.__dict__.update(
            classes=registry.classes, _sv=np.vstack([mdl._sv for mdl in self.models]),
            _spans=tuple(zip([0] + ends, ends)),
        )


def train_pairwise(
    features: Sequence[Sequence[float]],
    labels: Sequence[str],
    params: KernelParams,
    seed: int,
    pairs: Sequence[tuple[str, str]] | None = None,
    meta: ModelMeta | None = None,
) -> PairwiseModel:
    """Train one binary machine per class pair.

    With `pairs=None` every unordered pair of observed classes gets a
    machine (classes ordered by first appearance). Passing an explicit pair
    list restricts training to just those confusable pairs; the first class
    of each pair is bound to +1. A pair list that breaks PairRegistry's
    rules raises its ValueError before any machine is trained.
    Deterministic: `seed` reaches train_smo, which does not use it.
    """
    if len(features) != len(labels):
        raise ValueError("features and labels lengths differ")
    if pairs is None:
        observed = dict.fromkeys(labels)
        if len(observed) < 2:
            raise DegenerateTrainingError("fewer than 2 classes in training data")
        pairs = itertools.combinations(observed, 2)
    registry = PairRegistry(pairs)
    present = set(labels)
    for cls in registry.classes:
        if cls not in present:
            raise DegenerateTrainingError(f"class {cls!r} has no samples")

    models = []
    for pos, neg in registry.pairs:
        # input order, +1 for pos; both classes occur, as checked above
        rows = [(row, 1 if label == pos else -1)
                for row, label in zip(features, labels) if label in (pos, neg)]
        data = TrainingSet(*zip(*rows))
        models.append(train_smo(data, params, seed, pos_class=pos, neg_class=neg))
    return PairwiseModel(tuple(models), meta)


def vote(pm: PairwiseModel, values: Sequence[float]) -> tuple[str, dict[str, int]]:
    """Majority vote given each pair machine's decision value, in model order:
    a value >= 0 (exactly zero included) votes for the machine's positive
    class; ties go to the class that appears first among the machines."""
    votes = {cls: 0 for cls in pm.classes}
    for mdl, value in zip(pm.models, values, strict=True):
        votes[mdl.pos_class if value >= 0.0 else mdl.neg_class] += 1
    return max(pm.classes, key=votes.__getitem__), votes  # max keeps the first


def _decision_values(pm: PairwiseModel, x: Sequence[float]) -> list[float]:
    """decision() of every pair machine, bit for bit, from one kernel row."""
    k = _kernel(pm._sv, x, pm.models[0].gamma)
    return [float(k[a:b].dot(m._coef)) + m.bias for m, (a, b) in zip(pm.models, pm._spans)]


def predict_multiclass(
    pm: PairwiseModel, x: Sequence[float]
) -> tuple[str, dict[str, int]]:
    """vote() on the decision value of every pair machine."""
    return vote(pm, _decision_values(pm, x))


def save_model(pm: PairwiseModel) -> bytes:
    """Serialize to versioned JSON on one line.

    Each real is written as its shortest round-trip repr, so a loaded model
    compares equal to the saved one and makes bit-identical decisions.
    """
    if pm.meta is None:
        raise ValueError("pairwise model carries no metadata; cannot serialize")
    doc = {
        "format_version": FORMAT_VERSION,
        "n": pm.meta.n,
        "m": pm.meta.m,
        "gamma": float(pm.models[0].gamma),
        "c": float(pm.models[0].c),
        "seed": pm.meta.seed,
        "normalize": pm.meta.normalize,
        "classes": pm.classes,
        "pairs": [
            {
                "pos_class": mdl.pos_class,
                "neg_class": mdl.neg_class,
                "bias": float(mdl.bias),
                "support": [
                    {"y": label, "alpha": a, "x": sv}
                    for sv, label, a in zip(mdl.support_x, mdl.support_y, mdl.alpha)
                ],
            }
            for mdl in pm.models
        ],
    }
    return (json.dumps(doc, allow_nan=False) + "\n").encode()


def _field(doc, key: str, kind: type, where: str):
    """doc[key], which must be present and of a JSON type that the root's
    _JSON_TYPES accepts for `kind`. A real comes back as a float, possibly
    inf or NaN: JSON 1e400 and Infinity parse to inf, as does an integer
    past the float range. The model types refuse every non-finite value."""
    if type(doc) is not dict:
        raise ModelFormatError(f"{where} must be a JSON object")
    if key not in doc:
        raise ModelFormatError(f"{where}: missing field '{key}'")
    value = doc[key]
    types, name = _JSON_TYPES[kind]
    if type(value) not in types:
        raise ModelFormatError(f"{where}: field '{key}' must be {name}")
    return _float(value) if kind is float else value


def load_model(data: bytes) -> PairwiseModel:
    """Parse a serialized PairwiseModel.

    The loader checks what only a file can get wrong: JSON syntax, field
    presence, exact JSON types (so `true` is not read as 1), the format
    version, each pair's dual equality constraint (which hand-built stub
    models may break) and `classes`, the pairs' own in order. Every other
    invariant, finite reals included, is checked by the ModelMeta, SvmModel
    and PairwiseModel constructors; their errors are raised as ModelFormatError.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ModelFormatError(f"invalid model file: {exc}") from None

    version = _field(doc, "format_version", int, "model")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format version: {version}")
    n = _field(doc, "n", int, "model")
    m = _field(doc, "m", int, "model")
    gamma = _field(doc, "gamma", float, "model")
    c = _field(doc, "c", float, "model")
    seed = _field(doc, "seed", int, "model")
    normalize = _field(doc, "normalize", bool, "model")

    models = []
    reals, real = _JSON_TYPES[float]  # the per-row check of support components
    for entry in _field(doc, "pairs", list, "model"):
        pos = _field(entry, "pos_class", str, "pair")
        neg = _field(entry, "neg_class", str, "pair")
        where = f"pair {pos!r}/{neg!r}"  # repr: one line whatever the names hold
        bias = _field(entry, "bias", float, where)
        in_entry = f"{where} support entry"
        xs, ys, alphas = [], [], []
        for sv in _field(entry, "support", list, where):
            ys.append(_field(sv, "y", int, in_entry))
            alphas.append(_field(sv, "alpha", float, in_entry))
            x = _field(sv, "x", list, in_entry)
            if not set(map(type, x)) <= reals:  # one check per row
                raise ModelFormatError(f"{where}: support component must be {real}")
            xs.append(x)
        try:
            models.append(SvmModel(xs, ys, alphas, bias, gamma, pos, neg, c))
        except ValueError as exc:
            raise ModelFormatError(f"{where}: {exc}") from None
        balance = sum(a * label for a, label in zip(alphas, ys))
        if abs(balance) > _EQUALITY_TOL:
            raise ModelFormatError(
                f"{where}: dual equality constraint violated ({balance})"
            )

    try:
        meta = ModelMeta(n=n, m=m, seed=seed, normalize=normalize)
        pm = PairwiseModel(tuple(models), meta)
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
    if _field(doc, "classes", list, "model") != list(pm.classes):
        raise ModelFormatError("model: classes must be the pairs' classes in order")
    return pm
