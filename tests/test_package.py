"""The package root: each module's `__all__` is the one list of its public
names, and the root re-exports all of them."""
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
