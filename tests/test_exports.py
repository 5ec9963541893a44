"""Every name a module lists in __all__ exists, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import qselftest

MODULES = ["qselftest"] + [
    f"qselftest.{m.name}" for m in pkgutil.iter_modules(qselftest.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing
