"""The public surface: every exported name resolves, so no deletion leaves a dangling export."""
import importlib
import pkgutil
import types

import pytest

import measureonly

MODULES = [importlib.import_module(f"measureonly.{m.name}") for m in pkgutil.iter_modules(measureonly.__path__)]


@pytest.mark.parametrize("module", [measureonly] + MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"


def test_package_exports_every_public_import():
    public = {name for name, value in vars(measureonly).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(measureonly.__all__)
