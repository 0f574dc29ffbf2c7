"""Confusable-glyph classification from projection-profile spectra.

Pipeline: binarize and square-normalize a glyph image, take row/column ink
projections, keep the lowest DFT coefficient magnitudes of each, and
classify with per-pair RBF-kernel SVMs trained by SMO.

The root re-exports every module's public names; each module's `__all__`
is the one list of them. Nothing is imported until used (PEP 562): reading
a module, one of its names, or the root's `__all__` loads what it needs,
so a process that runs `predict` never loads `dataset` or `evaluation`.
It also holds `_FrozenValue`, every value type's base, their number rules,
and `_csv_text`, the one CSV writer.
"""
import math
import operator

_MODULES = ("imaging", "features", "svm", "dataset", "evaluation")
_SUBMODULES = (*_MODULES, "cli")  # `cli` is a submodule, not re-exported

__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
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
    return sorted({*globals(), *_SUBMODULES, *__getattr__("__all__")})


_TEXT = (str, bytes, bytearray)  # float() and numpy parse these; no number is text


def _numbers(values) -> tuple:
    """The values of an iterable, read once, with their types checked once
    per distinct type; text, or text among them, raises TypeError."""
    values = (values,) if isinstance(values, _TEXT) else tuple(values)
    if any(issubclass(k, _TEXT) for k in set(map(type, values))):
        raise TypeError("expected numbers, got text")
    return values


def _float(value) -> float:
    """float(value) of a number, text refused with TypeError; an integer past
    the float range becomes +-inf, which each caller refuses, not OverflowError."""
    if isinstance(value, _TEXT):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _int(value, name: str) -> int:
    """operator.index(value); a bool or a non-integer (2.0 too) is a TypeError."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise TypeError(f"{name} must be an integer")
    return operator.index(value)


def _csv_text(rows) -> str:
    """Rows as CSV text with LF line ends; a cell holding a comma, a double
    quote, an LF or a CR is quoted, so csv.reader reads each row back whole."""
    import csv
    from types import SimpleNamespace
    lines = []  # the writer hands write() one whole row, terminator included
    # a CRLF terminator makes it quote a cell holding either character
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerows(rows)
    return "".join(line[:-2] + "\n" for line in lines)


def _floats(values) -> tuple[float, ...]:
    """_float() of each of _numbers(values)."""
    values = _numbers(values)
    try:
        return tuple(map(float, values))
    except OverflowError:
        return tuple(map(_float, values))


class _FrozenValue:
    """What a frozen dataclass gives, written out once: `@dataclass` would
    generate and compile each class's methods at import (~0.5 ms a class on
    Python 3.11). A subclass's fields are its `__init__` parameters, in
    order: `repr` shows them, and `==` and `hash` compare the type and them.
    `__init__` stores them, and anything else it caches, in `self.__dict__`;
    assigning or deleting an attribute raises FrozenInstanceError."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")
