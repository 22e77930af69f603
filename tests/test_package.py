"""The package surface: what the modules export and what ``mcpa`` re-exports,
and which modules see a ``FrameStore``'s tag format."""
import ast
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


def test_package_reexports_what_the_readme_examples_import():
    reexported = {name for name, value in vars(mcpa).items()
                  if not name.startswith("_") and not inspect.ismodule(value)}
    assert reexported == {"RadioConstants", "RobotGeometry", "DatasetMeta", "draw_channels",
                          "qom_weights", "solve_mcpa", "waterfill", "build_scenario",
                          "run_campaign"}


def test_only_gae_and_world_name_a_stores_pair_columns():
    # a store's (frame, tag) pairs stay behind FrameStore: every other module
    # reads tags through occurrences(), a MemoryIndex or the tag table
    columns = {"hits", "tag_ids"}
    naming = {module.__name__ for module in MODULES
              if any(isinstance(node, ast.Attribute) and node.attr in columns
                     or isinstance(node, ast.keyword) and node.arg in columns
                     for node in ast.walk(ast.parse(inspect.getsource(module))))}
    assert naming == {"mcpa.gae", "mcpa.world"}
