"""Static checks on the package source: every name a module imports is used there, every public
definition is used by the package or the benchmark, every private one by the package, one function
calls eigh, one reads SIGN_TOL, one keys graphs for both enumerators, and only the enumerated families and
the CLI parser are cached."""

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


def _owners(tree: ast.Module, hit) -> list:
    """The innermost function around each node of tree that hit accepts, '<module>' outside any; a decorator
    counts as inside the function it decorates."""
    owners = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if hit(child):
                owners.append(owner)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(tree, "<module>")
    return owners


def _callers(tree: ast.Module, name: str) -> list:
    """The innermost function around each call of a name or attribute name in tree, '<module>' outside any."""
    def hit(node):
        func = getattr(node, "func", None)
        return isinstance(node, ast.Call) and (
            func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == name

    return _owners(tree, hit)


def test_eigh_callers_are_found():
    tree = ast.parse("import numpy as np\nfrom numpy.linalg import eigh\nw = eigh(np.eye(2))\n"
                     "def f(m):\n    def g():\n        return np.linalg.eigh(m)\n    return g, np.linalg.eigvalsh(m)\n")
    assert _callers(tree, "eigh") == ["<module>", "g"]


def test_only_full_spectrum_calls_eigh():
    # every verdict rests on full_spectrum's checked solve.  np.linalg.eigvalsh stays in
    # mu_lower_bound_degrees, which gives a bound, not a verdict: its values can differ
    # from eigh's in the last bits, so moving it would change the analyze reports
    callers = [(p.stem, name) for p in sorted(SRC.glob("*.py")) for name in _callers(ast.parse(p.read_text()), "eigh")]
    assert callers == [("spectra", "full_spectrum")]


def test_both_enumerators_key_through_first_met():
    # graphs and trees share one canonical form: each enumerator hands its candidate extensions to _first_met,
    # and only _first_met keys them
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert sorted(_callers(trees["enumeration"], "_first_met")) == ["all_graphs", "all_trees"]
    keyers = [(stem, name) for stem, tree in trees.items() for name in _callers(tree, "_canonical_keys")]
    assert keyers == [("enumeration", "_first_met")]


def _sign_tol_readers(tree: ast.Module) -> list:
    """The innermost function around each read of SIGN_TOL in tree, as a name or an attribute, '<module>' outside
    any; importing or assigning it is no read."""
    return _owners(tree, lambda node: (isinstance(node, ast.Name) and node.id == "SIGN_TOL"
                                       and isinstance(node.ctx, ast.Load))
                   or (isinstance(node, ast.Attribute) and node.attr == "SIGN_TOL"))


def test_sign_tol_readers_are_found():
    tree = ast.parse("from .spectra import SIGN_TOL\nfrom . import spectra\nSIGN_TOL = 1e-7\nz = 2 * SIGN_TOL\n"
                     "def f(x):\n    return x > SIGN_TOL\ndef g(x):\n    return x > 10 * spectra.SIGN_TOL\n")
    assert _sign_tol_readers(tree) == ["<module>", "f", "g"]


def test_only_the_sign_rule_reads_sign_tol():
    # the oracle and the twin screen decide signs by one rule, so a change to its tolerance is made in one place
    readers = [(p.stem, name) for p in sorted(SRC.glob("*.py")) for name in _sign_tol_readers(ast.parse(p.read_text()))]
    assert readers == [("analysis", "_sign_reasons")]


# the enumerated families are cached for the sweeps and the parser for every CLI call; any other cache would
# keep its tables past the call that needs them (the scaffold enumerator's carried bounds live in one
# _canonical_codes call)
CACHED = {("enumeration", "all_graphs"), ("enumeration", "all_trees"), ("cli", "build_parser")}
CACHES = {"lru_cache", "cache"}


def _cache_uses(tree: ast.Module) -> list:
    """The innermost function around each use of functools.lru_cache or functools.cache in tree, '<module>' outside
    any; a decorator counts as inside the function it decorates."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {alias.asname or alias.name for alias in node.names if alias.name in CACHES}
        elif isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name == "functools"}
    return _owners(tree, lambda node: (isinstance(node, ast.Name) and node.id in names) or (
        isinstance(node, ast.Attribute) and node.attr in CACHES
        and isinstance(node.value, ast.Name) and node.value.id in modules))


def test_cache_uses_are_found():
    tree = ast.parse("import functools as ft\nfrom functools import lru_cache as lc, partial\n"
                     "@lc(maxsize=None)\ndef f(n):\n    return n\n@ft.cache\ndef g():\n    return partial\n"
                     "h = ft.lru_cache(maxsize=2)(f)\ndef cache(x):\n    return x.cache\n")
    assert _cache_uses(tree) == ["f", "g", "<module>"]


def test_only_the_enumerated_families_and_the_parser_are_cached():
    uses = [(p.stem, owner) for p in sorted(SRC.glob("*.py")) for owner in _cache_uses(ast.parse(p.read_text()))]
    assert uses  # the walk found the caches it allows
    assert [use for use in uses if use not in CACHED] == []
