"""The package surface: what the modules export and what ``mcpa`` re-exports,
and which modules see a ``FrameStore``'s tag format."""
import ast
import importlib
import inspect
import pkgutil
import sys

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


def test_every_backend_is_the_two_method_protocol():
    # run_gae calls prepare_memory and run_exams; an entry point only a test
    # calls would show here as one more public name
    from mcpa.gae import SyntheticBackend
    from mcpa.remote import RemoteBackend
    for backend in (SyntheticBackend, RemoteBackend):
        assert {name for name in dir(backend) if not name.startswith("_")} == \
            {"name", "prepare_memory", "run_exams"}, backend.__name__


def test_only_gae_and_world_name_a_stores_pair_columns():
    # a store's (frame, tag) pairs stay behind FrameStore: every other module
    # reads tags through occurrences(), a MemoryIndex or the tag table
    columns = {"hits", "tag_ids"}
    naming = {module.__name__ for module in MODULES
              if any(isinstance(node, ast.Attribute) and node.attr in columns
                     or isinstance(node, ast.keyword) and node.arg in columns
                     for node in ast.walk(ast.parse(inspect.getsource(module))))}
    assert naming == {"mcpa.gae", "mcpa.world"}


def _imported(tree) -> set[str]:
    """Every module an AST imports from, and each name it imports, fully qualified."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ("mcpa." if node.level else "") + (node.module or "")
            found.add(base.rstrip("."))
            found.update(f"{base.rstrip('.')}.{alias.name}" for alias in node.names)
    return found


def test_only_gae_sizes_a_pilot():
    # the pilot overhead charges the pilots GAE sampled: one module holds the
    # pilot-size rule, and it takes nothing from mcpa.qom
    trees = {module.__name__: ast.parse(inspect.getsource(module)) for module in MODULES}
    naming = {name for name, tree in trees.items()
              if any(getattr(node, field, None) == "pilot_size"
                     for node in ast.walk(tree) for field in ("id", "attr", "name", "arg"))}
    assert naming == {"mcpa.gae"}
    assert {name for name in _imported(trees["mcpa.gae"])
            if name == "mcpa.qom" or name.startswith("mcpa.qom.")} == set()
    assert "mcpa.qom" in _imported(trees["mcpa.harness"])    # the check sees a relative import


def test_src_imports_only_the_stdlib_and_numpy():
    # numpy is the one runtime dependency; the test extras (scipy, hypothesis)
    # are installed too, so an import of theirs in the package would otherwise
    # pass. Every import statement counts, the lazy ones inside functions too.
    allowed = set(sys.stdlib_module_names) | {"numpy", "mcpa"}
    for module in (mcpa, *MODULES):
        tree = ast.parse(inspect.getsource(module))
        lazy = {name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                for name in _imported(node)}
        assert module.__name__ != "mcpa.remote" or "ssl" in lazy
        assert module.__name__ != "mcpa.cli" or "mcpa.remote" in lazy
        outside = {name for name in _imported(tree) if name.split(".")[0] not in allowed}
        assert outside == set(), module.__name__
