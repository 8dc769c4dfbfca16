"""Every module-level private function, class and constant of the package is
read somewhere in the package, as a name or as an attribute, so a helper
that a refactor retires from its last caller is retired with it."""

import ast

from test_imports import PACKAGE


def private_definitions(tree):
    """The private names a module binds at module level, with the line of each."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def read_names(tree):
    """The names a module reads: loaded names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def unread_private_names(sources):
    """(module, name, line) of each private module-level name no source reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return [(module, name, line) for module, tree in trees.items()
            for name, line in private_definitions(tree) if name not in read]


def test_every_private_name_is_read_in_the_package():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert "counts.py" in sources
    assert unread_private_names(sources) == []


def test_an_unread_private_name_is_found():
    sources = {
        "a.py": "_CAP = 3\n_left: int = 0\n_x, _y = 1, 2\n\ndef _used():\n    return _CAP\n\n"
                "def _retired():\n    pass\n\nclass _Box:\n    pass\n",
        "b.py": "import a\n\na._used()\nprint(a._x)\na._left = 1\n",
    }
    assert unread_private_names(sources) == [
        ("a.py", "_left", 2), ("a.py", "_y", 3), ("a.py", "_retired", 8), ("a.py", "_Box", 11)]
