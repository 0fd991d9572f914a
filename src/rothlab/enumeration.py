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

from .graphs import _pair_stack, _reach

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


# all graphs on n vertices up to isomorphism, by vertex augmentation.  Inside, a
# graph on n vertices is its graph6 bit code held as an int: the pair u < v is
# bit v(v-1)/2 + u, so adding vertex n-1 sets bits from (n-1)(n-2)/2 up.


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple:
    return tuple((u, v) for v in range(1, n) for u in range(v))


def _edges(n: int, code: int) -> tuple:
    """The pairs (u, v), u < v, of a bit code on n vertices, in bit order, and its adjacency lists."""
    pairs, edges, adj = _pairs(n), [], [[] for _ in range(n)]
    while code:
        low = code & -code
        u, v = pairs[low.bit_length() - 1]
        edges.append((u, v))
        adj[u].append(v)
        adj[v].append(u)
        code ^= low
    return edges, adj


def _code_stack(n: int, codes) -> np.ndarray:
    """The read-only int64 adjacency stack (N, n, n) of N bit codes on n vertices."""
    bits = np.array([[c >> i & 1 for i in range(n * (n - 1) // 2)] for c in codes], dtype=bool)
    a = _pair_stack(bits, n).astype(np.int64)
    a.flags.writeable = False  # the stack is cached and shared by every caller
    return a


def _stack_codes(a: np.ndarray) -> list:
    """The bit codes of an adjacency stack (N, n, n)."""
    v, u = np.tril_indices(a.shape[-1], -1)
    return [int.from_bytes(row.tobytes(), "little") for row in np.packbits(a[:, u, v], axis=1, bitorder="little")]


def _refine_colors(n: int, adj) -> list:
    colors = [0] * n
    while True:
        key = [(colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(n)]
        order = {k: i for i, k in enumerate(sorted(set(key)))}
        new = [order[k] for k in key]
        if new == colors:
            return colors
        colors = new


def _canon_code(n: int, code: int) -> int:
    """Minimum edge bitmask (bit a*n + b for positions a < b) over permutations respecting the refined colouring."""
    edges, adj = _edges(n, code)
    colors = _refine_colors(n, adj)
    cells = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    pools = [list(itertools.permutations(cells[c])) for c in sorted(cells)]
    best = None
    bit = _pair_bits(n)
    for combo in itertools.product(*pools):
        pos = [0] * n
        for i, v in enumerate(itertools.chain.from_iterable(combo)):
            pos[v] = i
        key = 0
        for (u, v) in edges:
            key |= bit[pos[u]][pos[v]]
        if best is None or key < best:
            best = key
    return best


@lru_cache(maxsize=None)
def _pair_bits(n: int) -> tuple:
    """bit[a][b] = 1 << (a*n + b) for positions a < b, and the same for b < a."""
    return tuple(tuple(1 << (min(a, b) * n + max(a, b)) for b in range(n)) for a in range(n))


@lru_cache(maxsize=None)
def all_graphs(n: int) -> np.ndarray:
    """All graphs on n vertices up to isomorphism (1, 2, 4, 11, 34, 156, 1044, ...).

    A cached, read-only int64 adjacency stack (N, n, n): of each class, the
    first labelled extension of all_graphs(n - 1) met, in canonical-key order.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return _code_stack(1, [0])
    reps = {}
    shift = (n - 1) * (n - 2) // 2
    for g in _stack_codes(all_graphs(n - 1)):
        for sub in range(1 << (n - 1)):
            code = g | sub << shift
            reps.setdefault(_canon_code(n, code), code)
    return _code_stack(n, [reps[k] for k in sorted(reps)])


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


def _tree_key(n: int, adj) -> str:
    centers = _tree_centers(n, adj)
    if len(centers) == 1:
        return _rooted_encoding(adj, centers[0], -1)
    c1, c2 = centers
    return "|".join(sorted((_rooted_encoding(adj, c1, c2), _rooted_encoding(adj, c2, c1))))


@lru_cache(maxsize=None)
def all_trees(n: int) -> np.ndarray:
    """All trees on n vertices up to isomorphism (1, 1, 1, 2, 3, 6, 11, 23, 47, ...).

    A cached, read-only int64 adjacency stack (N, n, n): of each class, the
    first leaf extension of all_trees(n - 1) met, in key order.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return _code_stack(1, [0])
    reps = {}
    shift = (n - 1) * (n - 2) // 2
    for g in _stack_codes(all_trees(n - 1)):
        for v in range(n - 1):
            code = g | 1 << (shift + v)
            reps.setdefault(_tree_key(n, _edges(n, code)[1]), code)
    return _code_stack(n, [reps[k] for k in sorted(reps)])
