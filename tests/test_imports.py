"""Every name a module of the package imports is used in that module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "rothlab"
# census never calls s_roth_oracle; perfbench's tracing test binds it as rothlab.census.s_roth_oracle
REEXPORTS = {("census", "s_roth_oracle")}


def _unused_imports(tree: ast.Module) -> list:
    """The names that tree's import statements bind and that no Name node of tree reads, sorted."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    return sorted(bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


def test_unused_imports_are_found():
    tree = ast.parse("from __future__ import annotations\nimport os, numpy.linalg\nfrom .a import b, c as d\n"
                     "def f(x: numpy.ndarray):\n    return b(x)\n")
    assert _unused_imports(tree) == ["d", "os"]


# __init__ imports only to export
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.stem)
def test_every_import_is_used(path):
    unused = [name for name in _unused_imports(ast.parse(path.read_text())) if (path.stem, name) not in REEXPORTS]
    assert unused == [], f"{path.name} imports {unused} and never uses them"
