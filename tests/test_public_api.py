"""The package's top-level names: the README's Python API example runs
as written, and imports every name the package exports."""

import ast
import inspect
import pathlib
import re

import cactusq

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _api_block() -> str:
    match = re.search(r"## Python API\n\n```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert match, "README.md has no Python API block"
    return match.group(1)


def test_readme_python_api_block_runs():
    namespace: dict = {}
    exec(compile(_api_block(), str(README), "exec"), namespace)
    assert namespace["ok"]
    assert namespace["walk"].k == 2


def test_exports_are_what_the_readme_imports():
    imported = {alias.name for node in ast.walk(ast.parse(_api_block()))
                if isinstance(node, ast.ImportFrom) and node.module == "cactusq"
                for alias in node.names}
    exported = {name for name, value in vars(cactusq).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == imported
    assert cactusq.__version__
