"""Confusable-glyph classification from projection-profile spectra.

Pipeline: binarize and square-normalize a glyph image, take row/column ink
projections, keep the lowest DFT coefficient magnitudes of each, and
classify with per-pair RBF-kernel SVMs trained by SMO.

The root re-exports every module's public names; each module's `__all__`
is the one list of them. Nothing is imported until used (PEP 562): reading
a module, one of its names, or the root's `__all__` loads what it needs,
so a process that runs `predict` never loads `dataset` or `evaluation`.
"""

_MODULES = ("imaging", "features", "svm", "dataset", "evaluation")

__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULES:
        # binds `name` here; unlike importlib.import_module, -X importtime sees it
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name == "__all__":
        value = [n for module in _MODULES for n in __getattr__(module).__all__]
    else:
        # the first module, in _MODULES order, whose `__all__` holds `name`
        module = next(
            (m for m in map(__getattr__, _MODULES) if name in m.__all__), None
        )
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value  # later reads skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *_MODULES, *__getattr__("__all__")})
