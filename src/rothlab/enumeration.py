"""Isomorph-free generation: connected bipartite scaffolds, small graphs, trees.

Bipartite scaffolds with parts (t, s) are multisets of column types (nonempty
subsets of the smaller part, as bitmasks), kept iff the ascending code tuple is
least among its sorted images under the row permutations.  Orderly generation
(Read 1978; McKay 1998) appends columns c >= the last to canonical tuples only:
a prefix X' of a canonical X is canonical, since the r-th entry of sorted p(X)
is at most that of sorted p(X').  Tuples come out in lexicographic order, and
only full tuples are tested for connectivity, on bool expansions in fixed
chunks.  scaffold_codes returns the connected tuples themselves, one byte per
column, which the census carries to its files; enumerate_connected_bipartite
expands them into an int64 stack (N, t, s), eight bytes per entry.

Graphs on n vertices are the extensions of all_graphs(n - 1) by a vertex joined
to a subset (sub) of the old ones, one per class: the first met, parent major
and sub ascending, under a canonical key from colour refinement and the least
upper triangle over the orders within each colour cell.  An extension is not
keyed if twins i < j of its parent (a swap of them fixes the parent) have j in
the sub and i not: the swap maps it onto the same parent's extension by a
smaller sub, which comes first, so every first-met extension is still keyed
and the output is that of keying them all.  The cell-rank tables of the keys
live in one dict of that level's _first_met call, so none outlives its level:
the only caches of the module are all_graphs and all_trees.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .graphs import _connected_mask

EXHAUSTIVE_LIMIT = 40  # t*s above this needs allow_long
_CHUNK = 500_000  # candidate tuples tested at once
_SCAFFOLD_CHUNK = 1 << 13  # scaffolds expanded to bool at once: per connectivity test here, per graph6 codec call


def _canonical_codes(m: int, cols: int) -> np.ndarray:
    """The canonical column-multisets (M, cols) of an m x cols biadjacency, as ascending codes, in lex order."""
    ncols = 1 << m
    dtype = np.min_scalar_type(ncols - 1)  # narrow codes keep the candidate stacks small
    # lut[p, c] = image of column type c under the p-th permutation of the m rows, the identity first
    lut = ((1 << _cell_perms((0,) * m)) @ (np.arange(ncols) >> np.arange(m)[:, None] & 1)).astype(dtype)
    level = np.zeros((1, 0), dtype=dtype)
    for k in range(1, cols + 1):
        # each canonical parent, in order, then each column type c >= its last one (lut[0] lists the types in order)
        cand = np.hstack([np.repeat(level, ncols - 1, axis=0), np.tile(lut[0, 1:, None], (len(level), 1))])
        cand = cand[cand[:, -1] >= cand[:, -min(k, 2)]]  # at k = 1 a column meets only itself
        w = ncols ** np.arange(k - 1, -1, -1, dtype=np.int64)
        keep = []
        for chunk in np.split(cand, range(_CHUNK, len(cand), _CHUNK)):
            best = chunk @ w
            for p in lut[1:]:
                np.minimum(best, np.sort(p[chunk], axis=1) @ w, out=best)
            keep.append(chunk[chunk @ w == best])
        level = np.concatenate(keep)
    return level


def scaffold_codes(t: int, s: int, allow_long: bool = False) -> np.ndarray:
    """The packed codes (N, max(t, s)), uint8, of the connected bipartite graphs with parts (t, s), one per class.

    A code lists the columns of the biadjacency over the smaller part as bitmasks, bit i for its row i:
    the columns of the t x s matrix for t <= s, its rows otherwise.  Classes are taken under independent
    permutations of the two parts; parts never swap.  Codes arrive in ascending canonical order.  t*s above
    EXHAUSTIVE_LIMIT raises unless allow_long is set, and above 63 always.
    """
    if t < 1 or s < 1:
        raise ValueError("need t, s >= 1")
    if t * s > 63:  # _canonical_codes packs a tuple of columns into t*s bits
        raise ValueError(f"t*s = {t*s} exceeds 63: packed column codes would overflow int64")
    if t * s > EXHAUSTIVE_LIMIT and not allow_long:
        raise ValueError(f"t*s = {t*s} exceeds the exhaustive limit {EXHAUSTIVE_LIMIT}; pass allow_long")
    m, cols = min(t, s), max(t, s)
    codes = _canonical_codes(m, cols)
    chunks = np.split(codes, range(_SCAFFOLD_CHUNK, len(codes), _SCAFFOLD_CHUNK))
    return codes[np.concatenate([_connected_mask(_unpack_codes(c, m, cols)) for c in chunks])]


def _unpack_codes(codes: np.ndarray, t: int, s: int, dtype=bool) -> np.ndarray:
    """The biadjacency stack (N, t, s), of dtype, of packed codes (N, max(t, s)).

    Bit i of a code is row i of the smaller part; the result is a view with swapped axes for t > s.
    """
    k = (codes[:, None, :] >> np.arange(min(t, s), dtype=codes.dtype)[:, None] & 1).astype(dtype)
    return k if t <= s else np.swapaxes(k, -1, -2)


def _pack_codes(k: np.ndarray) -> np.ndarray:
    """The packed codes (N, max(t, s)) of a 0/1 stack (N, t, s), which _unpack_codes turns back into it."""
    t, s = k.shape[-2:]
    k = k if t <= s else np.swapaxes(k, -1, -2)
    dtype = np.min_scalar_type((1 << min(t, s)) - 1)
    return (k.astype(dtype) << np.arange(min(t, s), dtype=dtype)[:, None]).sum(axis=-2, dtype=dtype)


def enumerate_connected_bipartite(t: int, s: int, allow_long: bool = False) -> np.ndarray:
    """A stack (N, t, s) of int64 biadjacencies, one per isomorphism class of connected bipartite graphs.

    The expansion of scaffold_codes(t, s, allow_long), in its order and under its limits.
    """
    return _unpack_codes(scaffold_codes(t, s, allow_long), t, s, np.int64)


# all graphs on n vertices up to isomorphism, by vertex augmentation: the extensions
# of all_graphs(n - 1), parent major, then sub ascending, are keyed in blocks

_BLOCK = 1 << 14  # extensions keyed at once: about 1 MB of bool adjacency at n = 8


def _extend(prev: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Bool stack (N, m + 1, m + 1): prev[e >> m], on m vertices, plus vertex m joined to the bits of e mod 2^m."""
    m = prev.shape[-1]
    a = np.zeros((len(e), m + 1, m + 1), dtype=bool)
    a[:, :m, :m] = prev[e >> m]
    a[:, :m, m] = a[:, m, :m] = e[:, None] >> np.arange(m) & 1
    return a


def _twin_kept(p: np.ndarray) -> np.ndarray:
    """Bool mask (N, 2^m) of the subs kept for each parent of a bool stack (N, m, m).

    Sub e is dropped if the parent has twins i < j, N(i) - {j} = N(j) - {i}, with bit j of e set
    and bit i clear.  Swapping the twins fixes the parent and clears bit j for bit i, so the
    extension is isomorphic to the one by a smaller sub, which comes first: no class loses its
    first-met extension.
    """
    m = p.shape[-1]
    iu, ju = np.triu_indices(m, 1)
    pair = np.arange(len(iu))
    same = p[:, iu] == p[:, ju]  # (N, pairs, m): rows i and j agree at each vertex
    same[:, pair, iu] = same[:, pair, ju] = True  # but for vertices i and j
    twins = same.all(axis=2)
    bits = (np.arange(1 << m) >> np.arange(m)[:, None] & 1).astype(bool)
    kept = np.ones((len(p), 1 << m), dtype=bool)
    for k in np.flatnonzero(twins.any(axis=0)):
        kept[twins[:, k]] &= bits[iu[k]] | ~bits[ju[k]]
    return kept


def _first_met(prev: np.ndarray) -> np.ndarray:
    """Of each class among the extensions of a bool stack prev (N, m, m), the code parent << m | sub
    of the first met, parent major and sub ascending; the codes come in canonical-key order."""
    m = prev.shape[-1]
    step = max(1, _BLOCK >> m)  # whole parents, at most _BLOCK extensions
    kept = np.concatenate([_twin_kept(prev[lo:lo + step]) for lo in range(0, len(prev), step)]).ravel()
    ranks = {}  # the level's cell-rank tables, shared by its blocks and gone with it: n! rows for a one-cell row
    keys = np.concatenate([_canonical_keys(_extend(prev, lo + np.flatnonzero(kept[lo:lo + _BLOCK])), ranks)
                           for lo in range(0, len(kept), _BLOCK)])
    return np.flatnonzero(kept)[np.unique(keys, return_index=True)[1]]


def _ranks(key: np.ndarray) -> np.ndarray:
    """The dense rank (B, n), as uint8, of each entry of each row of key among the distinct values of its row."""
    order = np.argsort(key, axis=1)
    ranked = np.take_along_axis(key, order, axis=1)
    rank = np.zeros(key.shape, dtype=np.uint8)
    rank[:, 1:] = np.cumsum(ranked[:, 1:] != ranked[:, :-1], axis=1)
    np.put_along_axis(rank, order, rank.copy(), axis=1)
    return rank


def _refine_colors(a: np.ndarray) -> np.ndarray:
    """The stable colour refinement (B, n), as uint8, of each graph of a bool stack (B, n, n).

    Colours start as degree ranks; each round ranks the vertices by colour, then sorted neighbour
    colours, until none changes.  Vertices of one colour share a degree, and no colour occurs n
    times among n - 1 neighbours.  So of two vertices of one colour, the one with the smaller sorted
    neighbour colours has the larger neighbour colour counts read as an int in base n, colour 0 most
    significant: a vertex is ranked by its colour times n^n minus that int.
    """
    b, n = a.shape[:2]
    digits = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    colors = _ranks(a.sum(axis=2))
    live = np.arange(b)  # graphs whose colours changed in the last round
    while live.size:
        c = colors[live]
        counts = np.einsum("bvu,bu->bv", a[live], digits[c])
        new = _ranks(c.astype(np.int64) * n ** n - counts)
        colors[live] = new
        live = live[(new != c).any(axis=1)]
    return colors


def _cell_perms(cells: tuple) -> np.ndarray:
    """The permutations (P, n) of 0..n-1 that map each run of equal entries of cells onto itself, identity first."""
    perms, lo = np.zeros((1, 0), dtype=np.int64), 0
    for _, run in itertools.groupby(cells):
        k = len(list(run))
        # the run's positions lo .. lo + k - 1 in every order, itertools' first: the identity
        q = lo + np.array(list(itertools.permutations(range(k))), dtype=np.int64)
        perms = np.hstack([np.repeat(perms, len(q), axis=0), np.tile(q, (len(perms), 1))])
        lo += k
    return perms


def _cell_ranks(cells: tuple) -> np.ndarray:
    """Pair ranks (P, n(n-1)/2), as uint8: row p holds, for each pair i < j in row-major order,
    the row-major rank of the pair that the p-th permutation of _cell_perms moves it to."""
    n, perms = len(cells), _cell_perms(cells)
    iu, ju = np.triu_indices(n, 1)
    rank = np.zeros((n, n), dtype=np.uint8)
    rank[iu, ju] = rank[ju, iu] = np.arange(len(iu))
    return rank[perms[:, iu], perms[:, ju]]


def _canonical_keys(a: np.ndarray, ranks: dict) -> np.ndarray:
    """The canonical key (B,) of each graph of a bool stack (B, n, n).

    The least, over the orders within each colour cell (cells in colour order), of the upper
    triangle read as an int with row-major pair k at bit k.  Keys order graphs as the edge
    bitmasks with bit a*n + b for positions a < b do.  Graphs are grouped by their sorted colour
    row, which fixes the cells: packed into one int64, 4 bits per colour, most significant first.
    Colours are ranks below n, and all_graphs refuses n > 11, so the packing is injective (44 bits
    at most) and orders the groups as the rows sort.  ranks holds the _cell_ranks table of each sorted
    colour row met, by its tuple; the caller chooses how long it lives.
    """
    b, n = a.shape[:2]
    colors = _refine_colors(a)
    order = np.argsort(colors, axis=1)
    iu, ju = np.triu_indices(n, 1)
    upper = a[np.arange(b)[:, None], order[:, iu], order[:, ju]]
    cells = np.sort(colors, axis=1)
    _, first, group = np.unique((cells.astype(np.int64) << 4 * np.arange(n - 1, -1, -1)).sum(axis=1),
                                return_index=True, return_inverse=True)
    cells = cells[first]  # one row per group: a block-long array kept through the loop costs 1 MB of peak RSS
    keys = np.empty(b, dtype=np.int64)
    for g, row in enumerate(cells):
        if (cell := tuple(row.tolist())) not in ranks:
            ranks[cell] = _cell_ranks(cell)
        table, members = ranks[cell], group == g
        u = upper[members].astype(np.int64)
        best = np.full(len(u), np.iinfo(np.int64).max)
        step = max(1, _BLOCK * 8 // len(u))  # keeps each (G, step) product near 1 MB
        for p in range(0, len(table), step):
            np.minimum(best, (u @ (1 << table[p:p + step].T.astype(np.int64))).min(axis=1), out=best)
        keys[members] = best
    return keys


@lru_cache(maxsize=None)
def all_graphs(n: int) -> np.ndarray:
    """All graphs on n vertices up to isomorphism (1, 2, 4, 11, 34, 156, 1044, ...).

    A cached, read-only int64 adjacency stack (N, n, n): of each class, the
    first labelled extension of all_graphs(n - 1) met, in canonical-key order. n above 11
    raises ValueError; n above 9 is untested, and a one-cell group holds all n! cell orders.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > 11:
        raise ValueError(f"n = {n} exceeds 11: a canonical key of n(n-1)/2 bits overflows int64")
    if n == 1:
        return _read_only(np.zeros((1, 1, 1), dtype=np.int64))
    prev = all_graphs(n - 1).astype(bool)
    return _read_only(_extend(prev, _first_met(prev)).astype(np.int64))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False  # the stack is cached and shared by every caller
    return a


# trees up to isomorphism, by leaf augmentation with a rooted canonical form


def _tree_centers(n: int, adj) -> list:
    """The one or two centres of a tree: peel off leaves until at most two vertices are left."""
    deg = [len(nbrs) for nbrs in adj]
    layer, left = [v for v in range(n) if deg[v] <= 1], n
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for u in adj[v]:
                deg[u] -= 1
                if deg[u] == 1:
                    nxt.append(u)
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
        return _read_only(np.zeros((1, 1, 1), dtype=np.int64))
    prev = all_trees(n - 1).astype(bool)
    reps = {}  # key -> extension code of its first tree met
    step = max(1, _BLOCK // (n - 1))  # parents keyed at once
    for first in range(0, len(prev), step):
        # parent major, then the vertex the leaf hangs from
        codes = (np.arange(first, min(first + step, len(prev)))[:, None] << n - 1 | 1 << np.arange(n - 1)).ravel()
        a = _extend(prev, codes)
        nbrs = np.nonzero(a)[2].reshape(len(a), -1).tolist()  # row-major: a tree's 2(n - 1) entries, vertex by vertex
        for code, vs, ends in zip(codes.tolist(), nbrs, a.sum(axis=2).cumsum(axis=1).tolist()):
            reps.setdefault(_tree_key(n, [vs[lo:hi] for lo, hi in zip([0, *ends], ends)]), code)
    return _read_only(_extend(prev, np.array([reps[k] for k in sorted(reps)])).astype(np.int64))
