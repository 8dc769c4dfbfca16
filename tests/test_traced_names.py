"""The benchmark's tracer wraps package functions by "<module>.<function>"
name; each name it lists must still exist, so that a refactor which moves
or renames a traced function fails here and not only in a traced run."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names(variable):
    """The literal tuple assigned to a module-level name in the tracer."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == variable for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{variable} is not assigned in {TRACER.name}")


def resolve(name):
    module, attr = name.split(".")
    return getattr(importlib.import_module(f"gesselgamma.{module}"), attr, None)


@pytest.mark.parametrize("name", traced_names("FUNCTIONS"))
def test_traced_function_exists(name):
    assert callable(resolve(name)), name


@pytest.mark.parametrize("name", traced_names("GENERATORS"))
def test_traced_generator_exists(name):
    assert inspect.isgeneratorfunction(resolve(name)), name
