"""No module of the package imports a name at module level that it never uses."""

import ast
from pathlib import Path

import pytest

import octomidi

MODULES = sorted(Path(octomidi.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by module-level imports of ``source`` that nothing in it
    reads; ``__future__`` imports and the names in ``__all__`` are exempt."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name.partition(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_reported():
    source = ("from __future__ import annotations\nimport io\nimport os.path\n"
              "from x import y as z\n__all__ = ['z']\n")
    assert unused_imports(source) == ["line 2: io", "line 3: os"]
    assert unused_imports(source + "os.path.join(io.BytesIO())\n") == []
