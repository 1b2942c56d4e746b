"""The package's export lists name only what exists.

Every ``__all__`` entry must resolve in its module, and every public
name the package root re-exports must be listed by some module's
``__all__``, so a name deleted from a module cannot linger as an export.
"""

import importlib
import pkgutil
import types

import pytest

import covgraph

MODULES = [
    importlib.import_module(f"covgraph.{info.name}")
    for info in pkgutil.iter_modules(covgraph.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_all_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_package_exports_are_listed_by_a_module():
    listed = {name for module in MODULES for name in getattr(module, "__all__", ())}
    public = {
        name for name, value in vars(covgraph).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public, "the package root exports nothing"
    assert sorted(public - listed) == []
