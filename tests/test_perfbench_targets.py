"""The traced benchmark run wraps package functions by (module, attribute)
name; every name it lists must still resolve in the package, so a rename
fails here rather than in a traced run."""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = _load_tracing()


@pytest.mark.parametrize("module_name, attr",
                         TRACING_MODULE.TARGETS + TRACING_MODULE.COUNTED_ONLY)
def test_target_resolves(module_name, attr):
    owner = importlib.import_module(f"cactusq.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("module_name", TRACING_MODULE.MODULES)
def test_module_resolves(module_name):
    importlib.import_module(f"cactusq.{module_name}")
