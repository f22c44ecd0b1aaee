"""Every public name that a geordd module exports resolves."""

import importlib
import pkgutil

import pytest

import geordd

MODULES = ["geordd"] + [
    info.name for info in pkgutil.walk_packages(geordd.__path__, prefix="geordd.")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}, which do not resolve"
