"""The package root: each module's `__all__` is the one list of its public
names, and the root re-exports all of them."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import glyphspect
from glyphspect import cli, dataset, evaluation, features, imaging, svm

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


def test_predict_loads_only_the_modules_it_runs(tmp_path):
    corpus, model = tmp_path / "corpus", tmp_path / "model.json"
    assert cli.main(["synth", "--out", str(corpus), "--count", "2"]) == 0
    assert cli.main(
        ["train", "--manifest", str(corpus / "manifest.csv"),
         "--registry", str(corpus / "registry.csv"), "--model", str(model)]
    ) == 0
    loaded = fresh_interpreter(
        "import sys; from glyphspect.cli import main; "
        "assert main(['predict', '--model', sys.argv[1], sys.argv[2]]) == 0; "
        + LOADED,
        str(model), str(sorted(corpus.glob("*.pgm"))[0]),
    )
    assert loaded == [
        "glyphspect", "glyphspect.cli", "glyphspect.features",
        "glyphspect.imaging", "glyphspect.svm",
    ]
