"""The package surface: what the modules export and what ``mcpa`` re-exports."""
import importlib
import inspect
import pkgutil

import mcpa

MODULES = [importlib.import_module(f"mcpa.{info.name}")
           for info in pkgutil.iter_modules(mcpa.__path__)]


def test_every_exported_name_resolves():
    # the command-line entry point is the only module without an export list
    assert [m.__name__ for m in MODULES if not hasattr(m, "__all__")] == ["mcpa.cli"]
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"


def test_package_reexports_only_exported_names():
    exported = {name for module in MODULES for name in getattr(module, "__all__", ())}
    reexported = {name for name, value in vars(mcpa).items()
                  if not name.startswith("_") and not inspect.ismodule(value)}
    assert reexported
    assert reexported - exported == set()
