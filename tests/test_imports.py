"""Static checks on the package source: every name a module imports is used there, every public
definition is used by the package or the benchmark, every private one by the package, and one function
calls eigh."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rothlab"
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


# public definitions that no module of the package and no benchmark file reads
UNREFERENCED = {
    # analysis' one use of full_spectrum, which perfbench/tests/test_bench_tracing.py expects to find
    # traced as rothlab.analysis.full_spectrum
    "analysis.build_r_mu",
    # perfbench/tracing.py's MODULES traces the bounds module
    "bounds.cycle_block_bounds",
    "bounds.path_block_rowsums",
    # the README's library entry for a family of G of the user's own
    "census.ultra_roth_probe",
    # the README's library entry for a whole scaffold stack, which perfbench/tracing.py probes by name; the
    # census reads the packed codes of enumeration.scaffold_codes instead
    "enumeration.enumerate_connected_bipartite",
}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.Module) -> list:
    """The functions and classes defined at the top level of tree."""
    return [node.name for node in tree.body if isinstance(node, DEFINITIONS)]


def _references(tree: ast.Module) -> set:
    """The names tree reads outside their own top-level definition: as a Name, or as an attribute of a rothlab module.

    A rothlab module is a name bound by ``import rothlab...`` or by importing a submodule from rothlab or from the
    package itself, so ``os.path.join`` reads no ``join``.
    """
    submodules = {p.stem for p in SRC.glob("*.py")}
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or "rothlab" for alias in node.names if alias.name.partition(".")[0] == "rothlab"}
        elif isinstance(node, ast.ImportFrom) and (node.module == "rothlab" or (node.level and node.module is None)):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name in submodules}
    refs = set()
    for stmt in tree.body:
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in modules:
                    found.add(node.attr)
        refs |= found - ({stmt.name} if isinstance(stmt, DEFINITIONS) else set())
    return refs


def test_references_are_found():
    tree = ast.parse("import os\nimport rothlab.graphs\nfrom . import spectra as sp\nx = C()\n"
                     "def f(n):\n    return f(n - 1) + g(n) + os.path.join() + rothlab.graphs.h() + sp.k\n"
                     "class C:\n    def _m(self):\n        return C\n"
                     "def _p():\n    return _p()\n")
    assert _definitions(tree) == ["f", "C", "_p"]
    # C is read outside its class, f and _p only inside their own bodies
    assert _references(tree) == {"C", "os", "rothlab", "g", "graphs", "h", "k", "sp", "n"}


def _modules() -> dict:
    """The parsed modules of the package but __init__, by stem."""
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}


def test_every_public_definition_is_used():
    # a public function or class that only tests read is a proof tool and belongs in tests/paper_tools.py
    modules = _modules()
    trees = list(modules.values()) + [ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").rglob("*.py"))]
    refs = set().union(*map(_references, trees))
    unreferenced = {f"{stem}.{name}" for stem, tree in modules.items() for name in _definitions(tree)
                    if not name.startswith("_") and name not in refs}
    assert sorted(unreferenced - UNREFERENCED) == [], "only tests read these"
    assert sorted(UNREFERENCED - unreferenced) == [], "these exceptions are read now, so they can go"


def test_every_private_definition_is_read_in_the_package():
    # a private function or class is the package's own: one that only tests or the benchmark read is dead code
    modules = _modules()
    refs = set().union(*map(_references, modules.values()))
    private = [(stem, name) for stem, tree in modules.items() for name in _definitions(tree) if name.startswith("_")]
    assert private  # the walk found the helpers it checks
    assert [f"{stem}.{name}" for stem, name in private if name not in refs] == []


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
