"""Isomorph-free generation: connected bipartite scaffolds, small graphs, trees.

Bipartite scaffolds with parts (t, s) are generated as multisets of column
types (a column type is a nonempty subset of the smaller part), which keeps
the working set at multiset-coefficient size instead of 2^(t*s).  A matrix is
emitted iff it equals its canonical form: the lexicographically least
biadjacency under independent part permutations.  Emission is in ascending
canonical order, so the stream is deterministic and duplicate free.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .graphs import Graph, _reach

EXHAUSTIVE_LIMIT = 40  # t*s above this needs allow_long
_CHUNK = 500_000


def _perm_lut(m: int) -> np.ndarray:
    """lut[p, c] = image of column type c under the p-th permutation of m rows."""
    perms = list(itertools.permutations(range(m)))
    ncols = 1 << m
    lut = np.zeros((len(perms), ncols), dtype=np.int64)
    for pi, p in enumerate(perms):
        for c in range(ncols):
            out = 0
            for i in range(m):
                if c >> i & 1:
                    out |= 1 << p[i]
            lut[pi, c] = out
    return lut


def _canonical_codes(m: int, cols: int):
    """Yield the canonical column-multisets of an m x cols biadjacency, in chunks (M, cols) of column codes."""
    lut = _perm_lut(m)
    ncols = 1 << m
    w = (ncols ** np.arange(cols - 1, -1, -1)).astype(np.int64)
    it = itertools.combinations_with_replacement(range(1, ncols), cols)
    while True:
        chunk = np.array(list(itertools.islice(it, _CHUNK)), dtype=np.int64)
        if chunk.size == 0:
            return
        codes = chunk @ w
        best = codes.copy()
        for pi in range(1, lut.shape[0]):
            mapped = np.sort(lut[pi][chunk], axis=1)
            np.minimum(best, mapped @ w, out=best)
        yield chunk[codes == best]


def enumerate_connected_bipartite(t: int, s: int, allow_long: bool = False):
    """A stack (N, t, s) of int64 biadjacencies, one per isomorphism class of connected bipartite graphs.

    Classes are taken under independent permutations of the two parts; parts
    never swap.  Matrices arrive in ascending canonical order.  t*s above
    EXHAUSTIVE_LIMIT raises unless allow_long is set.
    """
    if t < 1 or s < 1:
        raise ValueError("need t, s >= 1")
    if t * s > EXHAUSTIVE_LIMIT and not allow_long:
        raise ValueError(f"t*s = {t*s} exceeds the exhaustive limit {EXHAUSTIVE_LIMIT}; pass allow_long")
    m, cols, transpose = (t, s, False) if t <= s else (s, t, True)
    out = []
    for codes in _canonical_codes(m, cols):
        k = codes[:, None, :] >> np.arange(m)[:, None] & 1  # bit i of a column code is row i
        # column codes are nonzero, so B is connected iff its rows are, through shared columns
        out.append(k[_reach(k @ np.swapaxes(k, -1, -2)).all(axis=(-2, -1))])
    k = np.concatenate(out)
    return np.swapaxes(k, -1, -2) if transpose else k


# all graphs on n vertices up to isomorphism, by vertex augmentation


def _refine_colors(n: int, adj) -> list:
    colors = [0] * n
    while True:
        key = [(colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(n)]
        order = {k: i for i, k in enumerate(sorted(set(key)))}
        new = [order[k] for k in key]
        if new == colors:
            return colors
        colors = new


def _canon_code(n: int, edges) -> int:
    """Minimum edge bitmask over permutations respecting the refined colouring."""
    adj = [[] for _ in range(n)]
    for (u, v) in edges:
        adj[u].append(v)
        adj[v].append(u)
    colors = _refine_colors(n, adj)
    cells = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    pools = [list(itertools.permutations(cells[c])) for c in sorted(cells)]
    best = None
    for combo in itertools.product(*pools):
        pos = [0] * n
        i = 0
        for cell in combo:
            for v in cell:
                pos[v] = i
                i += 1
        code = 0
        for (u, v) in edges:
            a, b = pos[u], pos[v]
            if a > b:
                a, b = b, a
            code |= 1 << (a * n + b)
        if best is None or code < best:
            best = code
    return best


@lru_cache(maxsize=None)
def all_graphs(n: int) -> tuple:
    """All graphs on n vertices up to isomorphism (1, 2, 4, 11, 34, 156, 1044, ...)."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return (Graph(1),)
    reps = {}
    for g in all_graphs(n - 1):
        base = set(g.edges)
        for sub in range(1 << (n - 1)):
            edges = frozenset(base | {(u, n - 1) for u in range(n - 1) if sub >> u & 1})
            key = _canon_code(n, edges)
            if key not in reps:
                reps[key] = edges
    return tuple(Graph(n, e) for _, e in sorted(reps.items()))


# trees up to isomorphism, by leaf augmentation with a rooted canonical form


def _tree_centers(n: int, adj) -> list:
    if n == 1:
        return [0]
    deg = [len(adj[v]) for v in range(n)]
    layer = [v for v in range(n) if deg[v] == 1]
    removed = len(layer)
    while removed < n:
        nxt = []
        for v in layer:
            for u in adj[v]:
                deg[u] -= 1
                if deg[u] == 1:
                    nxt.append(u)
        if not nxt:
            break
        removed += len(nxt)
        layer = nxt
    return sorted(layer)


def _rooted_encoding(adj, root: int, blocked: int) -> str:
    subs = sorted(_rooted_encoding(adj, u, root) for u in adj[root] if u != blocked)
    return "(" + "".join(subs) + ")"


def _tree_key(g: Graph) -> str:
    adj = [[] for _ in range(g.n)]
    for (u, v) in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    centers = _tree_centers(g.n, adj)
    if len(centers) == 1:
        return _rooted_encoding(adj, centers[0], -1)
    c1, c2 = centers
    return "|".join(sorted((_rooted_encoding(adj, c1, c2), _rooted_encoding(adj, c2, c1))))


@lru_cache(maxsize=None)
def all_trees(n: int) -> tuple:
    """All trees on n vertices up to isomorphism (1, 1, 1, 2, 3, 6, 11, 23, 47, ...)."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return (Graph(1),)
    reps = {}
    for g in all_trees(n - 1):
        for v in range(n - 1):
            t = Graph(n, frozenset(set(g.edges) | {(v, n - 1)}))
            reps.setdefault(_tree_key(t), t)
    return tuple(reps[k] for k in sorted(reps))
