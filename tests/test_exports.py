"""Every name a module lists in ``__all__`` exists, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import asrlab

MODULES = ["asrlab", *(m.name for m in pkgutil.walk_packages(asrlab.__path__, "asrlab."))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}, which {name} does not define"
