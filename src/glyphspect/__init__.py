"""Confusable-glyph classification from projection-profile spectra.

Pipeline: binarize and square-normalize a glyph image, take row/column ink
projections, keep the lowest DFT coefficient magnitudes of each, and
classify with per-pair RBF-kernel SVMs trained by SMO.

The root re-exports every module's public names; each module's `__all__`
is the one list of them.
"""

from . import dataset, evaluation, features, imaging, svm
from .imaging import *
from .features import *
from .svm import *
from .dataset import *
from .evaluation import *

__all__ = (
    imaging.__all__ + features.__all__ + svm.__all__
    + dataset.__all__ + evaluation.__all__
)

__version__ = "0.1.0"
