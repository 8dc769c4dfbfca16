"""Every name a package module imports is used in that module, so a
refactor that retires the last use of an import also retires the import.

The package's ``__init__`` imports only to re-export, and ``grammar``
re-exports ``substitute_uv`` from ``poly``; those are the exceptions."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gesselgamma"
RE_EXPORTS = {"grammar.py": {"substitute_uv"}}


def imported_names(tree):
    """The names the module's imports bind, with the line of each."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def used_names(tree):
    """The names the module reads: every name it loads, attribute bases included."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def test_every_module_is_scanned():
    assert {"harness.py", "stirling.py", "counts.py", "cli.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text())
    used = used_names(tree) | RE_EXPORTS.get(module, set())
    unused = [(name, line) for name, line in imported_names(tree) if name not in used]
    assert unused == [], f"{module} imports names it never uses: {unused}"


def test_an_unused_import_is_found():
    tree = ast.parse("from operator import attrgetter\nimport os.path\n"
                     "from math import comb, prod\nprod(os.sep)\n")
    used = used_names(tree)
    assert [name for name, _ in imported_names(tree) if name not in used] == [
        "attrgetter", "comb"]
