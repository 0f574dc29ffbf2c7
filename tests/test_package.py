"""The package root: each module's `__all__` is the one list of its public
names, and the root re-exports all of them."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import glyphspect
from glyphspect import dataset, evaluation, features, imaging, svm

MODULES = (imaging, features, svm, dataset, evaluation)


def test_root_all_is_the_module_lists_concatenated():
    names = [name for module in MODULES for name in module.__all__]
    assert glyphspect.__all__ == names
    assert len(set(names)) == len(names)


def test_every_root_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(glyphspect, name) is getattr(module, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from glyphspect import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(glyphspect.__all__)


# Imports are checked in a new interpreter: this one has loaded every module.
LOADED = (
    "import sys; print(sorted(m for m in sys.modules "
    "if m.startswith('glyphspect') or m == 'csv'))"
)
LOADED_WITH_NUMPY = (
    "import sys; print(sorted(m for m in sys.modules "
    "if m.startswith('glyphspect') or m.partition('.')[0] == 'numpy'))"
)


def fresh_interpreter(code: str, *argv: str) -> list:
    """The list `code`, run in a new interpreter, prints on its last line."""
    src = str(Path(glyphspect.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return ast.literal_eval(done.stdout.splitlines()[-1])


def test_root_import_loads_no_module():
    assert fresh_interpreter(f"import glyphspect; {LOADED}") == ["glyphspect"]


def test_a_root_name_loads_its_module():
    loaded = fresh_interpreter(f"from glyphspect import load_pgm; {LOADED}")
    assert loaded == ["glyphspect", "glyphspect.imaging"]


def test_dir_lists_every_root_name():
    missing = fresh_interpreter(
        "import glyphspect as g; names = dir(g); "
        "print(sorted(set(g.__all__) - set(names)))"
    )
    assert missing == []


def test_predict_loads_only_the_modules_it_runs(trained):
    loaded = fresh_interpreter(
        "import sys; from glyphspect.cli import main; "
        "assert main(['predict', '--model', sys.argv[1], sys.argv[2]]) == 0; "
        + LOADED,
        str(trained.model), str(trained.glyph),
    )
    assert loaded == [
        "glyphspect", "glyphspect.cli", "glyphspect.features",
        "glyphspect.imaging", "glyphspect.svm",
    ]


def test_a_submodule_name_loads_only_that_submodule():
    loaded = fresh_interpreter(f"from glyphspect import cli; {LOADED}")
    assert "glyphspect.dataset" not in loaded
    assert "glyphspect.evaluation" not in loaded


def test_cli_import_loads_neither_numpy_nor_the_pipeline():
    """The console script imports `glyphspect.cli` before run() turns the
    collector off, so that import must leave numpy for the command."""
    loaded = fresh_interpreter("import glyphspect.cli; " + LOADED_WITH_NUMPY)
    assert loaded == ["glyphspect", "glyphspect.cli"]


@pytest.mark.parametrize(
    "argv, code", [(["--help"], 0), (["synth"], 1)], ids=["help", "usage-error"]
)
def test_help_and_a_usage_error_load_no_numpy(argv, code):
    """main parses and maps errors with what the root and `cli` hold."""
    loaded = fresh_interpreter(
        f"from glyphspect.cli import main; assert main({argv!r}) == {code}; "
        + LOADED_WITH_NUMPY
    )
    assert loaded == ["glyphspect", "glyphspect.cli"]


def test_no_module_imports_dataclasses():
    """The value types share one hand-written base, not `@dataclass`; skip
    where the standard library or numpy loads dataclasses by itself."""
    check = "print(['dataclasses' in sys.modules])"
    stdlib = "import sys, argparse, csv, json, math, pathlib, random, re, numpy; "
    if fresh_interpreter(stdlib + check) == [True]:
        pytest.skip("the package's imports outside glyphspect load dataclasses")
    every = "import sys, glyphspect.cli, glyphspect.dataset, glyphspect.evaluation; "
    assert fresh_interpreter(every + check) == [False]


def test_a_predict_data_error_does_not_load_dataset(tmp_path, trained):
    corrupt = tmp_path / "corrupt.pgm"
    corrupt.write_bytes(b"P2 broken")
    loaded = fresh_interpreter(
        "import sys; from glyphspect.cli import main; "
        "assert main(['predict', '--model', sys.argv[1], sys.argv[2]]) == 2; "
        + LOADED,
        str(trained.model), str(corrupt),
    )
    assert "glyphspect.dataset" not in loaded and "csv" not in loaded


def test_predict_does_not_load_numpy_fft(trained):
    """The features' DFT is a matrix product; numpy 1.x loads numpy.fft with
    numpy itself, so there is nothing to check."""
    numpy_alone = "import sys, numpy; print(['numpy.fft' in sys.modules])"
    if fresh_interpreter(numpy_alone) == [True]:
        pytest.skip("`import numpy` alone loads numpy.fft")
    loaded = fresh_interpreter(
        "import sys; from glyphspect.cli import main; "
        "assert main(['predict', '--model', sys.argv[1], sys.argv[2]]) == 0; "
        "print(['numpy.fft' in sys.modules])",
        str(trained.model), str(trained.glyph),
    )
    assert loaded == [False]
