"""The package namespace: each public name is declared once, in its module."""

import importlib
import inspect

import pytest

import pct_impact
from pct_impact import errors

MODULES = ("data", "effects", "errors", "kernels", "percentiles", "resampling",
           "svgchart", "tables")


def _module(name):
    return importlib.import_module(f"pct_impact.{name}")


def test_all_is_the_modules_lists_in_order():
    assert pct_impact.__all__ == [n for m in MODULES for n in _module(m).__all__]


def test_all_has_no_duplicates():
    assert len(set(pct_impact.__all__)) == len(pct_impact.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_each_name_is_the_object_its_module_defines(module):
    mod = _module(module)
    for name in mod.__all__:
        obj = vars(mod)[name]
        assert getattr(pct_impact, name) is obj
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == mod.__name__, name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from pct_impact import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(pct_impact.__all__)


def test_errors_all_names_every_exception_class():
    defined = {
        name for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, BaseException)
        and obj.__module__ == errors.__name__
    }
    assert set(errors.__all__) == defined
