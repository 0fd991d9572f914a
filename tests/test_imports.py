"""Static checks on the package source: every name a module imports is used there, and one function calls eigh."""

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


def _eigh_callers(tree: ast.Module) -> list:
    """The innermost function around each call of a name or attribute eigh in tree, '<module>' outside any."""
    callers = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == "eigh":
                    callers.append(owner)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(tree, "<module>")
    return callers


def test_eigh_callers_are_found():
    tree = ast.parse("import numpy as np\nfrom numpy.linalg import eigh\nw = eigh(np.eye(2))\n"
                     "def f(m):\n    def g():\n        return np.linalg.eigh(m)\n    return g, np.linalg.eigvalsh(m)\n")
    assert _eigh_callers(tree) == ["<module>", "g"]


def test_only_full_spectrum_calls_eigh():
    # every verdict rests on full_spectrum's checked solve.  np.linalg.eigvalsh stays in
    # mu_lower_bound_degrees and bounds, which give bounds, not verdicts: its values can differ
    # from eigh's in the last bits, so moving them would change the analyze reports
    callers = [(p.stem, name) for p in sorted(SRC.glob("*.py")) for name in _eigh_callers(ast.parse(p.read_text()))]
    assert callers == [("spectra", "full_spectrum")]
