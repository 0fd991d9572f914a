"""Isomorph-free generation: connected bipartite scaffolds, small graphs, trees.

Bipartite scaffolds with parts (t, s) are multisets of column types (nonempty
subsets of the smaller part, as bitmasks), kept iff the ascending code tuple is
least among its sorted images under the row permutations.  Orderly generation
(Read 1978; McKay 1998) appends columns c >= the last to canonical tuples only:
a prefix X' of a canonical X is canonical, since the r-th entry of sorted p(X)
is at most that of sorted p(X').  Each canonical tuple carries one byte per
non-identity permutation p, the entry where sorted p(X) first exceeds X, so
a child is settled under p by comparing that byte with p of the new column;
about 2 % of the pairs need the sorted image.  Tuples come out in
lexicographic order, and only full tuples are tested for connectivity, on the
codes: the rows reached from the first column grow by every column that meets
them.  scaffold_codes returns the connected tuples themselves, one byte per
column, which the census carries to its files; enumerate_connected_bipartite
expands them into an int64 stack (N, t, s), eight bytes per entry.

Graphs on n vertices are the extensions of all_graphs(n - 1) by a vertex joined
to a subset (sub) of the old ones, one per class under a canonical key from
colour refinement and the least upper triangle over the orders within each
colour cell.  Only extensions whose new vertex has the least degree, ties kept,
are keyed (McKay 1998), and no class is lost: for a least-degree vertex u of
any member X, X - u is isomorphic to a parent, whose extension by the image of
N(u) is isomorphic to X and has its new vertex, the image of u, least.
Each class keeps the first of these met, parent major and sub ascending.  Nor
is one keyed if twins i < j of its parent (a swap of them fixes the parent)
have j in the sub and i not: the swap maps it onto the same parent's extension
by a smaller sub, which comes first and, as a swap keeps every degree, is kept
too.  So the output is that of keying every least-degree extension: the
classes and their key order are those of keying every extension, and only the
labelled representatives differ.  A graph whose colour cells are each
one twin class has its key read off the colour order; any other is keyed by a
search that fills positions from the last and keeps, per graph, the partial
orders with the least rows.  A key is the upper triangle in that least order,
one big-endian uint16 per row, so it serves up to n = 16.

Trees on n <= 16 vertices go through the same step, _first_met, with the leaf
extensions of all_trees(n - 1) as candidates: codes parent << n - 1 | 1 << v,
one per vertex v without a smaller twin.  A leaf has the least degree, so every
class keeps a member, and the classes come in key order.  No table of cell
orders is built, and the only caches of the module are all_graphs and all_trees.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

EXHAUSTIVE_LIMIT = 40  # t*s above this needs allow_long
_CHUNK = 500_000  # (child, permutation) pairs tested at once


def _canonical_codes(m: int, cols: int) -> np.ndarray:
    """The canonical column-multisets (M, cols) of an m x cols biadjacency, as ascending codes, in lex order.

    A tuple is canonical iff no row permutation maps it to a smaller sorted tuple.  Each canonical tuple of a
    level carries its bounds under the m! - 1 non-identity row permutations (see _child_bounds) to its
    children, chunk by chunk, and the last level carries none.  A chunk holds at most _CHUNK (child,
    permutation) pairs.  The last level's bounds, dropped, are 0 exactly on each tuple's stabiliser.
    """
    ncols = 1 << m
    dtype = np.min_scalar_type(ncols - 1)  # narrow codes and bounds keep the chunks small
    # images[c, p] = image of column type c under the p-th non-identity permutation of the m rows; itertools
    # lists the identity first, which lut[1:] drops
    lut = (1 << np.array(list(itertools.permutations(range(m))))) @ (np.arange(ncols) >> np.arange(m)[:, None] & 1)
    images = np.ascontiguousarray(lut[1:].T, dtype=dtype)
    step = _CHUNK // len(lut)  # children per chunk
    chunks = [(np.zeros((1, 0), dtype=dtype), np.zeros((1, len(lut) - 1), dtype=dtype))]  # the empty tuple
    for k in range(1, cols + 1):
        parents, chunks = chunks[::-1], []
        while parents:
            # each canonical parent, in order, then each column type c >= its last one (at k = 1, every c >= 1);
            # a chunk of parents is dropped once its children are tested, so no level is held twice
            level, bound = parents.pop()
            last = level[:, -1].astype(np.int64) if k > 1 else np.ones(1, dtype=np.int64)
            ends = np.cumsum(ncols - last)
            shift = ends - ncols  # child j of parent i appends column j - shift[i]
            for lo in range(0, ends[-1], step):
                j = np.arange(lo, min(lo + step, ends[-1]))
                par = np.searchsorted(ends, j, side="right")
                child = np.hstack([level[par], (j - shift[par]).astype(dtype)[:, None]])
                beaten, b = _child_bounds(child, bound[par], images)
                chunks.append((child[~beaten], b[~beaten] if k < cols else None))
    return np.concatenate([level for level, _ in chunks])


def _child_bounds(child: np.ndarray, b: np.ndarray, images: np.ndarray) -> tuple:
    """(beaten (n,), bounds (n, P)) of children (n, k), each a canonical parent X, of bounds b (n, P), plus a
    column c >= X[-1], under the permutations of images (2^m, P): images[c, p] is the image of type c under p.

    The bound of a canonical X under p is X[r] at the first r where sorted p(X) differs from X, where the
    image is the larger, and 0 where they are equal (codes are at least 1).  With q = p(c): from 0, q > c
    gives c; a bound b > 0 stays b if q > b, since sorted p(X + c) still first differs at r, there larger.
    Otherwise, about one pair in fifty, the sorted image of X + c beats it or gives its new bound: from
    0, q < c beats it and q == c keeps 0, and from b > 0 the tie q == b can beat it.  Where a child is
    beaten its bounds mean nothing.
    """
    c = child[:, -1:]
    q = images[child[:, -1]]
    bound = b + (b == 0) * c  # 0 becomes c: arithmetic, as np.where on a scattered mask is many times slower
    i, p = np.divmod(np.flatnonzero(q <= bound), bound.shape[1])
    x = child[i]
    img = np.sort(images[x, p[:, None]], axis=1)
    r = (img != x).argmax(axis=1)  # 0 where they are equal, and then img[r] == x[r]
    at, im = x[np.arange(len(i)), r], img[np.arange(len(i)), r]
    bound[i, p] = np.where(im == at, 0, at)
    beaten = np.zeros(len(child), dtype=bool)
    beaten[i[im < at]] = True
    return beaten, bound


def _connected_codes(codes: np.ndarray, m: int) -> np.ndarray:
    """Whether each packed scaffold (N, cols) over m rows is connected, bool (N,).

    Connected iff no column is zero and every row is reached from the rows of the first column: a round ORs
    into the reach every column that meets it, and adds a row until none is left to add.
    """
    reach = codes[:, 0].copy()
    for _ in range(m - 1):
        reach |= np.bitwise_or.reduce(np.where(codes & reach[:, None], codes, 0), axis=1)
    return codes.all(axis=1) & (reach == (1 << m) - 1)


def scaffold_codes(t: int, s: int, allow_long: bool = False) -> np.ndarray:
    """The packed codes (N, max(t, s)), uint8, of the connected bipartite graphs with parts (t, s), one per class.

    A code lists the columns of the biadjacency over the smaller part as bitmasks, bit i for its row i:
    the columns of the t x s matrix for t <= s, its rows otherwise.  Classes are taken under independent
    permutations of the two parts; parts never swap.  Codes arrive in ascending canonical order: the canonical
    tuples of _canonical_codes that _connected_codes passes, the test the census runs on a cached scaffold.
    t*s above EXHAUSTIVE_LIMIT raises unless allow_long is set, and above 63 always.
    """
    if t < 1 or s < 1:
        raise ValueError("need t, s >= 1")
    if t * s > 63:  # keeps the smaller part at 7 rows or fewer, so codes and bounds fit uint8
        raise ValueError(f"t*s = {t*s} exceeds 63, the largest scaffold shape")
    if t * s > EXHAUSTIVE_LIMIT and not allow_long:
        raise ValueError(f"t*s = {t*s} exceeds the exhaustive limit {EXHAUSTIVE_LIMIT}; pass allow_long")
    m = min(t, s)
    codes = _canonical_codes(m, max(t, s))
    return codes[_connected_codes(codes, m)]


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


def _extend(prev: np.ndarray, e: np.ndarray, dtype=bool) -> np.ndarray:
    """Stack (N, m + 1, m + 1), of dtype: prev[e >> m], on m vertices, plus vertex m joined to the bits of e mod 2^m."""
    m = prev.shape[-1]
    a = np.zeros((len(e), m + 1, m + 1), dtype=dtype)
    a[:, :m, :m] = prev[e >> m]
    a[:, :m, m] = a[:, m, :m] = e[:, None] >> np.arange(m) & 1
    return a


def _bit_rows(a: np.ndarray) -> np.ndarray:
    """The rows (B, n), as uint16, of a bool stack (B, n, n), n <= 16, as bitmasks: entry (v, u) at bit u of row v."""
    rows = np.zeros(a.shape[:2], dtype=np.uint16)
    for u in range(a.shape[2]):
        rows |= a[:, :, u].astype(np.uint16) << u
    return rows


def _twins(rows: np.ndarray) -> np.ndarray:
    """Bool (B, n, n) of graphs as bit rows (B, n): (u, w) is set if N(u) - {w} = N(w) - {u}, the diagonal too."""
    bits = np.uint16(1) << np.arange(rows.shape[1], dtype=np.uint16)
    return ((rows[:, :, None] ^ rows[:, None, :]) & ~(bits[:, None] | bits)) == 0


def _twin_kept(p: np.ndarray) -> np.ndarray:
    """Bool mask (N, 2^m) of the subs kept for each parent of a bool stack (N, m, m).

    Sub e is dropped if the parent has twins i < j, N(i) - {j} = N(j) - {i}, with bit j of e set
    and bit i clear.  Swapping the twins fixes the parent and clears bit j for bit i, so the
    extension is isomorphic to the one by a smaller sub, which comes first: no class loses its
    first-met extension.
    """
    m = p.shape[-1]
    iu, ju = np.triu_indices(m, 1)
    twins = _twins(_bit_rows(p))[:, iu, ju]
    bits = (np.arange(1 << m) >> np.arange(m)[:, None] & 1).astype(bool)
    kept = np.ones((len(p), 1 << m), dtype=bool)
    for k in np.flatnonzero(twins.any(axis=0)):
        kept[twins[:, k]] &= bits[iu[k]] | ~bits[ju[k]]
    return kept


def _least_degree(p: np.ndarray) -> np.ndarray:
    """Bool mask (N, 2^m) of the subs whose new vertex has the least degree in the extension of each
    parent of a bool stack (N, m, m), ties kept: popcount(e) <= deg(u) + bit u of e for every u.

    Every class on m + 1 vertices keeps a member: for a least-degree vertex u of any member X, X - u is
    isomorphic to a parent, whose extension by the image of N(u) is isomorphic to X, with its new vertex least.
    """
    m = p.shape[-1]
    bits = (np.arange(1 << m) >> np.arange(m)[:, None] & 1).astype(np.uint8)
    least = (p.sum(axis=2, dtype=np.uint8)[:, :, None] + bits).min(axis=1)
    return bits.sum(axis=0, dtype=np.uint8) <= least


def _first_met(prev: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Of each class among the extensions of a bool stack prev (N, m, m) by the ascending codes
    parent << m | sub, the code of the first met; the codes come in canonical-key order."""
    keys = np.concatenate([_canonical_keys(_extend(prev, codes[lo:lo + _BLOCK]))
                           for lo in range(0, len(codes), _BLOCK)])
    return codes[np.unique(keys, return_index=True)[1]]


def _ranks(key: np.ndarray) -> np.ndarray:
    """The dense rank (B, n), as uint8, of each entry of each row of key among the distinct values of its row."""
    b, n = key.shape
    order = np.argsort(key, axis=1)
    ranked = np.take_along_axis(key, order, axis=1)
    step = np.zeros(key.shape, dtype=np.uint8)
    step[:, 1:] = np.cumsum(ranked[:, 1:] != ranked[:, :-1], axis=1)
    rank = np.empty(key.shape, dtype=np.uint8)
    rank.ravel()[(order + np.arange(0, b * n, n)[:, None]).ravel()] = step.ravel()
    return rank


def _refine_colors(a: np.ndarray) -> np.ndarray:
    """The stable colour refinement (B, n), as uint8, of each graph of a bool stack (B, n, n), n <= 16.

    Colours start as degree ranks; each round ranks the vertices by colour, then sorted neighbour
    colours, until none changes.  A discrete colouring is stable, so a graph whose colours are all
    distinct leaves the rounds, and the others' colours are at most n - 2.  Vertices of one colour
    share a degree, and no colour occurs n times among n - 1 neighbours.  So of two vertices of one
    colour, the one with the smaller sorted neighbour colours has the larger neighbour colour counts
    read as an int in base n, colour 0 most significant, below n^(n - 1): a vertex is ranked by its
    colour times n^(n - 1) plus n^(n - 1) - 1 minus that int, which is below n^n <= 2^64.
    """
    b, n = a.shape[:2]
    top = np.uint64(n) ** np.uint64(n - 1)
    digits = np.uint64(n) ** np.arange(n - 2, -1, -1, dtype=np.uint64)
    colors = _ranks(a.sum(axis=2))
    live = np.flatnonzero(colors.max(axis=1) < n - 1)  # graphs whose colours may still change
    while live.size:
        c = colors[live]
        counts = np.einsum("bvu,bu->bv", a[live], digits[c])
        new = _ranks(c.astype(np.uint64) * top + (top - np.uint64(1) - counts))
        colors[live] = new
        live = live[(new != c).any(axis=1) & (new.max(axis=1) < n - 1)]
    return colors


def _canonical_keys(a: np.ndarray) -> np.ndarray:
    """The canonical key (B,), as void of 2(n - 1) bytes, of each graph of a bool stack (B, n, n), 2 <= n <= 16.

    The least, over the orders within each colour cell (cells in colour order), of the upper
    triangle: rows n - 2 down to 0, each a big-endian uint16 holding its bits j > i, so keys
    compare as the bytes they are and order graphs as the edge bitmasks with bit a*n + b for
    positions a < b do.  Where every cell is one twin class (N(u) - {w} = N(w) - {u}), every
    order within the cells is a product of twin swaps, which are automorphisms, so the colour
    order is least; _least_rows searches the other graphs.
    """
    b, n = a.shape[:2]
    colors = _refine_colors(a)
    order = np.argsort(colors, axis=1)
    cells = np.take_along_axis(colors, order, axis=1)
    rows, at = np.take_along_axis(_bit_rows(a), order, axis=1), order.astype(np.uint16)
    ordered = np.zeros((b, n), dtype=np.uint16)  # the graph in colour order: bit j of row i joins positions i and j
    for j in range(n):
        ordered |= (rows >> at[:, j, None] & 1) << j
    # twins form classes and share a colour, so a cell is one class if each of its vertices is a twin of the next
    twins = ((ordered[:, 1:] ^ ordered[:, :-1]) & ~(np.uint16(3) << np.arange(n - 1, dtype=np.uint16))) == 0
    rest = np.flatnonzero(~(twins | (cells[:, 1:] != cells[:, :-1])).all(axis=1))
    if rest.size:
        ordered[rest] = _least_rows(ordered[rest], cells[rest])
    upper = ordered[:, n - 2::-1] & (np.uint16(0xFFFF) << np.arange(n - 1, 0, -1, dtype=np.uint16))
    return upper.astype(">u2").view(np.dtype((np.void, 2 * (n - 1)))).ravel()


def _least_rows(rows: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """The bit rows (R, n) of each graph's least order, of graphs as bit rows (R, n) in colour order, colours cells.

    Positions n - 1 down to 0 are filled over one stack of partial orders, sorted by graph.  A
    position takes the unplaced vertices of its colour, twins in vertex order: a twin swap is an
    automorphism that keeps the colours.  Placing position i fixes the pairs (i, j), j > i, which
    outrank every pair of the rows below, so of each graph's partial orders only those with the
    least row i go on (refine, then search: McKay and Piperno, Practical graph isomorphism II, 2014).
    Row i of the result holds only its bits j > i.
    """
    r, n = rows.shape
    bits = np.uint16(1) << np.arange(n, dtype=np.uint16)
    # bit w of below[., v]: w < v is a twin of v, so v waits until w is placed
    below = _bit_rows(_twins(rows) & np.tri(n, k=-1, dtype=bool))
    g = np.arange(r)  # the graph of each partial order
    placed = np.zeros(r, dtype=np.uint16)
    seen = np.zeros((r, n), dtype=np.uint16)  # bit j of seen[., v]: v is joined to the vertex at position j
    least = np.zeros((r, n), dtype=np.uint16)  # row i of each partial order, once position i is placed
    for i in range(n - 1, -1, -1):
        s, v = np.nonzero(((placed[:, None] & (below[g] | bits)) == below[g]) & (cells[g] == cells[g, i, None]))
        row, start = seen[s, v], np.ones(len(s), dtype=bool)
        start[1:] = g[s[1:]] != g[s[:-1]]  # the first candidate of each graph
        keep = row == np.minimum.reduceat(row, np.flatnonzero(start))[np.cumsum(start) - 1]
        s, v = s[keep], v[keep].astype(np.uint16)
        g, placed, least = g[s], placed[s] | bits[v], least[s]
        least[:, i] = row[keep]
        seen = seen[s] | (rows[g] >> v[:, None] & 1) << i
    return least[np.flatnonzero(np.diff(g, prepend=-1))]


@lru_cache(maxsize=None)
def all_graphs(n: int) -> np.ndarray:
    """All graphs on n vertices up to isomorphism (1, 2, 4, 11, 34, 156, 1044, ...).

    A cached, read-only int64 adjacency stack (N, n, n), in canonical-key order: of each class, the
    first extension of all_graphs(n - 1) met whose new vertex n - 1 has the least degree, parent major and
    sub ascending (see _least_degree).  n above 11 raises ValueError; n above 9 is untested: all_graphs(10)
    alone would take about 10 GB.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > 11:
        raise ValueError(f"n = {n} exceeds 11: the graphs on 12 vertices alone number 165091172592")
    if n == 1:
        return _read_only(np.zeros((1, 1, 1), dtype=np.int64))
    prev = all_graphs(n - 1).astype(bool)
    step = max(1, _BLOCK >> n - 1)  # whole parents, at most _BLOCK extensions
    chunks = (prev[lo:lo + step] for lo in range(0, len(prev), step))
    codes = np.flatnonzero(np.concatenate([_twin_kept(p) & _least_degree(p) for p in chunks]))
    return _read_only(_extend(prev, _first_met(prev, codes), np.int64))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False  # the stack is cached and shared by every caller
    return a


@lru_cache(maxsize=None)
def all_trees(n: int) -> np.ndarray:
    """All trees on n vertices up to isomorphism (1, 1, 1, 2, 3, 6, 11, 23, 47, ...), n <= 16.

    A cached, read-only int64 adjacency stack (N, n, n), in canonical-key order: of each class, the
    first leaf extension of all_trees(n - 1) met, code parent << n - 1 | 1 << v for a leaf on vertex v,
    parent major and v ascending.  A leaf has the least degree, so every class keeps a member, as in
    all_graphs.  No leaf hangs on a vertex with a smaller twin: the swap of the two maps it onto the
    extension at the twin, met earlier.  n above 16 raises ValueError: the key holds a row in 16 bits.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > 16:
        raise ValueError(f"n = {n} exceeds 16: the canonical key holds each vertex's neighbours in 16 bits")
    if n == 1:
        return _read_only(np.zeros((1, 1, 1), dtype=np.int64))
    prev = all_trees(n - 1).astype(bool)
    m = n - 1
    parent, v = np.nonzero(~(_twins(_bit_rows(prev)) & np.tri(m, k=-1, dtype=bool)).any(axis=2))
    return _read_only(_extend(prev, _first_met(prev, parent << m | 1 << v), np.int64))
