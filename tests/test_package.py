"""Tests for the package namespace.

Each module's ``__all__`` is its public API, and ``fracppk`` re-exports all
of them in dependency order, after ``__version__``: the names are declared
once, in the modules.
"""

import fracppk
from fracppk import combinatorics, errors, fields, processes, specfun, subordinators, verify

MODULES = (errors, combinatorics, specfun, subordinators, processes, fields, verify)
PUBLIC = ["__version__"] + [name for m in MODULES for name in m.__all__]


def test_all_is_the_module_lists_in_order():
    assert fracppk.__all__ == PUBLIC
    assert len(set(fracppk.__all__)) == len(fracppk.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from fracppk import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC)
    assert "np" not in namespace and "math" not in namespace


def test_each_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(fracppk, name) is getattr(module, name), name
    # the type of every public ``variant`` parameter
    assert fracppk.Variant is processes.Variant


def test_errors_declares_the_exception_classes():
    assert errors.__all__ == [
        "FracppkError", "DomainError", "NonConvergence", "CapExceeded", "HorizonOverflow", "DegenerateBins",
    ]
    for name in errors.__all__:
        assert issubclass(getattr(errors, name), errors.FracppkError)
