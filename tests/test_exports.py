"""Every name the package and its modules export resolves: a name that
leaves a module must leave its `__all__` too, or `from sobotest import *`
breaks."""

import importlib
import pkgutil

import pytest

import sobotest

# the package and each of its modules that declares an __all__
MODULES = [name for name in ["sobotest"] + [f"sobotest.{info.name}" for info in
                                           pkgutil.iter_modules(sobotest.__path__)]
           if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_star_import():
    namespace = {}
    exec("from sobotest import *", namespace)
    assert set(sobotest.__all__) <= set(namespace)
