"""The package's module graph, read from the source with `ast`: its
internal imports form no cycle, every import sits at module level, and
only the dense simulator imports numpy."""

import ast
import graphlib
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "cactusq"
MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _imports(tree: ast.AST) -> list:
    """Every import statement in `tree`, nested ones included."""
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def _loaded(node) -> list[str]:
    """The absolute names of the modules an import statement loads, the
    package's own as "cactusq.<module>" (`from . import x` may name a
    module or an attribute of the package)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level == 0:
        return [node.module]
    if node.module is None:
        return ["cactusq." + alias.name for alias in node.names]
    return ["cactusq." + node.module]


def _internal(tree: ast.AST) -> set[str]:
    """The package modules `tree` imports."""
    parts = [name.split(".") for node in _imports(tree) for name in _loaded(node)]
    return {p[1] if len(p) > 1 else "__init__" for p in parts if p[0] == "cactusq"} & MODULES.keys()


def test_internal_imports_form_no_cycle():
    graph = {name: _internal(tree) for name, tree in MODULES.items()}
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_import_inside_a_function(name):
    nested = [(fn.name, node.lineno)
              for fn in ast.walk(MODULES[name])
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in _imports(fn)]
    assert not nested, f"{name} imports inside functions (function, line): {nested}"


def test_only_verify_sim_imports_numpy():
    users = {name for name, tree in MODULES.items()
             for node in _imports(tree) for loaded in _loaded(node)
             if loaded.split(".")[0] == "numpy"}
    assert users == {"verify_sim"}
