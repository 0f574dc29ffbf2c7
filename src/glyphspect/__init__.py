"""Confusable-glyph classification from projection-profile spectra.

Pipeline: binarize and square-normalize a glyph image, take row/column ink
projections, keep the lowest DFT coefficient magnitudes of each, and
classify with per-pair RBF-kernel SVMs trained by SMO.
"""

from .imaging import (
    BinaryImage,
    EmptyGlyphError,
    GrayImage,
    PgmParseError,
    binarize_otsu,
    binary_to_gray,
    crop_to_bbox,
    load_pgm,
    resize_nearest,
    resize_to_square,
    write_pgm,
)
from .features import (
    FeatureVector,
    ProjectionPair,
    Spectrum,
    dft,
    extract_features,
    project,
    truncate_spectrum,
)
from .svm import (
    ConvergenceError,
    DegenerateTrainingError,
    KernelParams,
    ModelFormatError,
    ModelMeta,
    PairRegistry,
    PairwiseModel,
    SvmModel,
    TrainingSet,
    decision,
    load_model,
    predict_multiclass,
    predict_pair,
    rbf_kernel,
    save_model,
    train_pairwise,
    train_smo,
)
from .dataset import (
    GlyphSample,
    ManifestError,
    RegistryError,
    SynthParams,
    SynthesisError,
    builtin_registry,
    builtin_templates,
    load_manifest,
    load_registry,
    read_manifest,
    split_even,
    synth_generate,
    write_corpus,
    write_registry,
)
from .evaluation import (
    ConfusionCounts,
    PairMetrics,
    evaluate_pair,
    format_percent,
    metrics,
    report_csv,
    report_table,
)

__version__ = "0.1.0"
