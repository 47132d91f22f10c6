"""Tests for the package namespace.

Each module's ``__all__`` is its public API, and ``fracppk`` re-exports all
of them in dependency order, after ``__version__``: the names are declared
once, in the modules.  The README's Python examples run as written.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

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


def test_readme_examples_run():
    # the Quick start blocks build on each other, so they share one namespace;
    # a README that names a deleted function fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) == 4
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["table"].truncation_mass >= 0.0 and namespace["report"].passed


def test_import_builds_no_dataclasses():
    # the value records share one frozen base, so a cold start does not
    # import dataclasses or build a class through it
    code = "import sys, fracppk.cli; assert 'dataclasses' not in sys.modules"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ})
    assert result.returncode == 0, result.stderr
