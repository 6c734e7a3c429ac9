"""Every name a module lists in ``__all__`` exists, so a deletion cannot leave a stale export."""

import importlib
import pkgutil
import types

import pytest

import asrlab

MODULES = ["asrlab", *(m.name for m in pkgutil.walk_packages(asrlab.__path__, "asrlab."))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}, which {name} does not define"


def test_package_exports_only_its_version():
    # a submodule that has been imported is bound on the package; nothing else is
    assert [name for name, value in vars(asrlab).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)] == []
    with pytest.raises(ImportError):
        from asrlab import normalize  # noqa: F401


def test_submodule_is_not_shadowed_by_a_function_of_its_name():
    import asrlab.stitch as S

    assert S.__name__ == "asrlab.stitch"
    assert S.stitch([["a", "b"], ["b", "c"]], 1) == ["a", "b", "c"]
