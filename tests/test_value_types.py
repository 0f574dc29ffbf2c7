"""The public value types refuse bad input only with the errors their
docstrings name."""
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from glyphspect.dataset import GlyphSample, SynthParams
from glyphspect.evaluation import ConfusionCounts, PairMetrics
from glyphspect.features import (
    FeatureVector,
    ProjectionPair,
    Spectrum,
    dft,
    extract_features,
    project,
)
from glyphspect.imaging import BinaryImage, GrayImage
from glyphspect.svm import (
    KernelParams,
    ModelMeta,
    PairRegistry,
    PairwiseModel,
    SvmModel,
    TrainingSet,
    load_model,
    rbf_kernel,
    save_model,
)

# one valid positional argument list per constructor
VALID = {
    GrayImage: (2, 1, [0, 255]),
    BinaryImage: (1, 2, [[1], [0]]),
    ProjectionPair: ([1, 0], [0, 1]),
    Spectrum: ([1 + 0j, 0.5j],),
    FeatureVector: ((0.5, 1.0),),
    TrainingSet: ([[0.0, 1.0], [1.0, 0.5]], [1, -1]),
    KernelParams: (0.5, 10.0),
    ModelMeta: (4, 2, 0, True),
    SvmModel: ([[0.0, 1.0], [1.0, 0.0]], [1, -1], [0.5, 0.5], 0.0, 1.0, "a", "b", 10.0),
    PairRegistry: ([("a", "b"), ("c", "d")],),
}
# integers past the float range, non-finite floats, bools, and ordinary
# values of the wrong kind
BAD = st.sampled_from(
    [10**400, -(10**400), math.nan, math.inf, -math.inf, True, False,
     2**63, -1, 0, 1.5, None, "x", "1"]
)
# bad values nested into sequences of the wrong shape
SHAPES = st.recursive(
    BAD, lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner), max_leaves=6
)


def leaf_paths(value, path=()):
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from leaf_paths(item, path + (i,))
    else:
        yield path


def replaced(value, path, new):
    if not path:
        return new
    items = list(value)
    items[path[0]] = replaced(items[path[0]], path[1:], new)
    return type(value)(items)


def named_errors(cls) -> tuple[type, ...]:
    """ValueError and TypeError, each as far as a docstring of the class names it."""
    docs = " ".join(k.__doc__ for k in cls.__mro__ if k.__module__.startswith("glyphspect"))
    return tuple(e for e in (ValueError, TypeError) if e.__name__ in docs)


@settings(max_examples=600)
@given(st.sampled_from(list(VALID)), st.data())
def test_constructors_raise_only_their_named_errors(cls, data):
    args = list(VALID[cls])
    index = data.draw(st.integers(0, len(args) - 1))
    if data.draw(st.booleans()):
        args[index] = data.draw(SHAPES)
    else:
        path = data.draw(st.sampled_from(list(leaf_paths(args[index]))))
        args[index] = replaced(args[index], path, data.draw(BAD))
    try:
        cls(*args)
    except named_errors(cls):
        pass


@pytest.mark.parametrize(
    "make",
    [
        lambda: SvmModel(((10**400,),), (1,), (1.0,), 0.0, 1.0, "a", "b", 10.0),
        lambda: SvmModel(((0.0,),), (1,), (10**400,), 0.0, 1.0, "a", "b", 10.0),
        lambda: SvmModel(((0.0,),), (1,), (1.0,), -(10**400), 1.0, "a", "b", 10.0),
        lambda: TrainingSet(((10**400,), (0,)), (1, -1)),
        lambda: rbf_kernel((0.0,), (1.0,), 10**400),
        lambda: rbf_kernel((10**400,), (0.0,), 1.0),
        lambda: rbf_kernel((0.0, 1.0), (0.0, -(10**400)), 1.0),
        lambda: KernelParams(10**400, 1.0),
        lambda: FeatureVector((10**400, 1.0)),
    ],
    ids=["support", "alpha", "bias", "training-row", "rbf-gamma", "rbf-x", "rbf-y",
         "kernel-gamma", "feature"],
)
def test_an_integer_past_the_float_range_is_a_value_error(make):
    with pytest.raises(ValueError, match="finite|box constraint"):
        make()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_rbf_kernel_refuses_a_non_finite_component(bad):
    for x, y in [((bad, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, bad))]:
        with pytest.raises(ValueError, match="finite"):
            rbf_kernel(x, y, 1.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda text: TrainingSet(((text,), (0,)), (1, -1)),
        lambda text: TrainingSet(((0.0, 1.0), (2.0, text)), (1, -1)),
        lambda text: TrainingSet((text, (0.0,)), (1, -1)),  # map(float, b"1") is (49.0,)
        lambda text: rbf_kernel((text,), (0.0,), 1.0),
        lambda text: rbf_kernel((0.0,), (text,), 1.0),
        lambda text: SvmModel(((text,),), (1,), (0.5,), 0.0, 1.0, "a", "b", 10.0),
        lambda text: SvmModel(((0.25,),), (1,), (text,), 0.0, 1.0, "a", "b", 10.0),
        lambda text: ProjectionPair((text, 0), (0, 1)),
        lambda text: ProjectionPair(text, (1,)),
        lambda text: Spectrum((1.0, text)),
        lambda text: FeatureVector((0.5, text)),
        lambda text: FeatureVector(text),
        lambda text: dft((1.0, text)),
        lambda text: dft(text),
    ],
    ids=["training-row", "training-last", "text-row", "rbf-x", "rbf-y", "support", "alpha",
         "projection", "projection-whole", "spectrum", "feature", "feature-whole",
         "dft", "dft-whole"],
)
@pytest.mark.parametrize(
    "text", ["1", "0.5", b"1", bytearray(b"1"), np.str_("1"), np.bytes_(b"1")],
    ids=["str", "str-float", "bytes", "bytearray", "numpy-str", "numpy-bytes"],
)
def test_numeric_text_is_a_type_error(make, text):
    with pytest.raises(TypeError, match="text"):
        make(text)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: FeatureVector((math.nan, 1.0)), ValueError, "finite"),
        (lambda: FeatureVector((math.inf, 1.0)), ValueError, "finite"),
        (lambda: FeatureVector((1.0,)), ValueError, "m >= 1, got 1"),
        (lambda: ProjectionPair([1.5], [1.5]), TypeError, "got float64"),
        (lambda: ProjectionPair([math.nan], [math.nan]), TypeError, "got float64"),
        (lambda: ProjectionPair([math.inf], [math.inf]), TypeError, "got float64"),
        (lambda: ProjectionPair([10**400], [10**400]), TypeError, "got object"),
        (lambda: ProjectionPair([], []), ValueError, "non-empty"),
        (lambda: ProjectionPair([[1]], [[1]]), ValueError, "1-D"),
        (lambda: Spectrum([10**400]), TypeError, "got object"),
        (lambda: Spectrum([None, 1.0]), TypeError, "got object"),
        (lambda: dft([10**400]), TypeError, "got object"),
        (lambda: dft([1j, 1.0]), TypeError, "got complex128"),
        (lambda: dft([None, 1.0]), TypeError, "got object"),
    ],
    ids=["feature-nan", "feature-inf", "feature-odd-count",
         "counts-float", "counts-nan", "counts-inf", "counts-huge-int", "counts-empty",
         "counts-2d", "spectrum-huge-int", "spectrum-none", "dft-huge-int", "dft-complex",
         "dft-none"]
)
def test_feature_types_refuse_what_their_docstrings_rule_out(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_sizes_are_derived_from_the_values():
    assert SvmModel(**MACHINE).dim == len(MACHINE["support_x"][0])
    img = BinaryImage(3, 3, [1, 0, 0, 1, 1, 0, 0, 0, 1])
    pair = project(img)
    assert len(pair.h) == len(pair.v) == img.width
    fv = extract_features(img, 2)
    assert FeatureVector(fv.values) == fv
    # an iterator is read once, not once to check types and again to convert
    assert FeatureVector(iter(fv.values)) == fv
    assert TrainingSet([iter((0.0,)), iter((1.0,))], [1, -1]).x == ((0.0,), (1.0,))


# integers, and values a model file cannot hold as one: floats, bools, text
INTEGRAL = st.integers(-(10**20), 10**20) | st.sampled_from(
    [math.inf, math.nan, 1.5, 2.0, True, np.int64(3), np.float64(2.0), None, "2"]
)


@settings(max_examples=300)
@given(
    INTEGRAL,
    st.integers(1, 4) | st.sampled_from([1.0, 1.5, True, np.int32(2)]),
    INTEGRAL,
    st.sampled_from([True, False, 1, 0, None, np.True_]),
)
# 4,301 digits: one past what str() and json render by default
@example(n=2, m=1, seed=10**4300, normalize=False)
@example(n=10**4300, m=1, seed=0, normalize=False)
def test_a_model_meta_that_constructs_saves_and_loads(n, m, seed, normalize):
    try:
        meta = ModelMeta(n, m, seed, normalize)
    except (ValueError, TypeError):
        return
    dim = 2 * meta.m
    machine = SvmModel([[0.0] * dim, [1.0] * dim], [1, -1], [0.5, 0.5], 0.0, 1.0,
                       "a", "b", 10.0)
    loaded = load_model(save_model(PairwiseModel((machine,), meta)))
    assert loaded.meta == meta
    assert [type(v) for v in vars(loaded.meta).values()] == [int, int, int, bool]


# ------------------------------------------------ what frozen dataclasses gave

MACHINE = dict(
    support_x=((0.0, 1.0), (1.0, 0.0)), support_y=(1, -1), alpha=(0.5, 0.5),
    bias=0.0, gamma=1.0, pos_class="a", neg_class="b", c=10.0,
)
# every value type, with one instance's arguments by keyword, in field order
FIELDS = {
    GrayImage: dict(width=2, height=1, pixels=[0, 255]),
    BinaryImage: dict(width=1, height=2, pixels=[[1], [0]]),
    ProjectionPair: dict(h=[1, 0], v=[0, 1]),
    Spectrum: dict(coeffs=[1 + 0j, 0.5j]),
    FeatureVector: dict(values=(0.5, 1.0)),
    KernelParams: dict(gamma=0.5, c=10.0),
    TrainingSet: dict(x=((0.0, 1.0), (1.0, 0.5)), y=(1, -1)),
    SvmModel: MACHINE,
    ModelMeta: dict(n=4, m=1, seed=0, normalize=True),
    PairRegistry: dict(pairs=(("a", "b"),)),
    PairwiseModel: dict(models=(SvmModel(**MACHINE),), meta=None),
    GlyphSample: dict(image=GrayImage(1, 1, [0]), label="a", source_id="a.pgm"),
    SynthParams: dict(flips=0.0, max_shift=0, scale_jitter=0.0, count=1, seed=0),
    ConfusionCounts: dict(tp=1, fp=2, tn=3, fn=4),
    PairMetrics: dict(sensitivity=None, specificity=50.0, accuracy=75.0),
}
IDENTITY_EQ = (ProjectionPair, Spectrum)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_value_types_are_frozen_and_show_their_fields(cls):
    value = cls(**FIELDS[cls])
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in FIELDS[cls])
    assert repr(value) == f"{cls.__name__}({shown})"
    for name in (*FIELDS[cls], "other"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 0)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(value, name)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_value_types_compare_by_type_and_fields(cls):
    value, twin = cls(**FIELDS[cls]), cls(**FIELDS[cls])
    assert value == value and hash(value) == hash(value)
    if cls in IDENTITY_EQ:
        assert value != twin
        return
    # SvmModel's and PairwiseModel's cached arrays are not compared
    assert value == twin and hash(value) == hash(twin)
    assert value != object() and not value == FIELDS[cls]


def test_a_changed_field_makes_a_value_unequal():
    assert KernelParams(0.5) != KernelParams(0.25)
    assert ModelMeta(4, 1, 0) != ModelMeta(4, 1, 1)
    assert ConfusionCounts(1, 2, 3, 4) != ConfusionCounts(1, 2, 3, 5)
    assert hash(KernelParams(0.5)) == hash((0.5, 10.0))


def test_constructor_signatures_keep_keywords_and_defaults():
    assert KernelParams(0.5) == KernelParams(gamma=0.5, c=10.0)
    assert ModelMeta(4, 1, 0).normalize is False
    assert PairwiseModel((SvmModel(**MACHINE),)).meta is None
    assert SynthParams() == SynthParams(0.0, 0, 0.0, 1, 0)
    with pytest.raises(TypeError, match="unexpected keyword argument '_sv'"):
        SvmModel(**MACHINE, _sv=None)
