"""Adjacency arrays, composite instances and their codecs.

A graph on vertices 0..n-1 is its (n, n) 0/1 int64 adjacency array, from
the command line to the outputs: the named constructors build one, the
graph6 codec and the edge-list parser read one, and every computation takes
one.  A composite instance is a connected graph H together with a
distinguished independent set S; the bipartite scaffold B collects the S-T
edges and G is the subgraph induced on T = V(H) - S.  Vertices of an
instance are always ordered T first, so the matrices built downstream have
the block layout [[Q(G)+D1, K], [K^T, D2]] without any permutation
bookkeeping.

Graph, a frozenset of edge pairs, and parse_graph6, which builds one from a
graph6 line, are kept for perfbench's check of its own graph6 encoder; the
package reads graph6 with decode_graph6 and builds no Graph elsewhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

GRAPH6_MAX_N = 258  # long-form header supported up to here, larger inputs rejected


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count and a frozenset of (u, v) pairs, u < v."""

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        for (u, v) in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if u > v:
                raise ValueError(f"edge ({u},{v}) not normalized")

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        return Graph(n, frozenset(_norm_edge(u, v) for u, v in edges))


def _check_adjacency(a) -> np.ndarray:
    """a as int64; ValueError unless it is a square, 0/1, symmetric, loop-free adjacency matrix or a stack of them."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"an adjacency matrix must be square, got shape {a.shape}")
    upper = np.triu(a, 1) != 0
    if not np.array_equal(a, upper | np.swapaxes(upper, -1, -2)):
        raise ValueError("an adjacency matrix must be 0/1, symmetric and loop-free")
    return a.astype(np.int64, copy=False)


# named constructors


def empty_graph(n: int) -> np.ndarray:
    return np.zeros((n, n), dtype=np.int64)


def complete_graph(n: int) -> np.ndarray:
    return 1 - np.eye(n, dtype=np.int64)


def path_graph(n: int) -> np.ndarray:
    return np.eye(n, k=1, dtype=np.int64) + np.eye(n, k=-1, dtype=np.int64)


def cycle_graph(n: int) -> np.ndarray:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    a = path_graph(n)
    a[0, -1] = a[-1, 0] = 1
    return a


def complete_bipartite(a: int, b: int) -> np.ndarray:
    return join(empty_graph(a), empty_graph(b))


def join(g, h) -> np.ndarray:
    """g and h side by side, g's vertices first, plus every edge between them."""
    n = len(g)
    m = np.ones((n + len(h), n + len(h)), dtype=np.int64)
    m[:n, :n] = g
    m[n:, n:] = h
    return m


def complement(a) -> np.ndarray:
    """Edge {i,j} in the result iff i != j and {i,j} is not an edge of a."""
    return complete_graph(len(a)) - (np.asarray(a) != 0)


def _reach(a) -> np.ndarray:
    """Reachability of an adjacency matrix, or of each in a stack: (u, v) is True iff v is reachable from u.

    The one connectivity routine.  Repeated squaring of the float 0/1 matrix I + A: after k products it
    covers every walk of length up to 2^k, and its entries stay exact.
    """
    n = a.shape[-1]
    r = ((np.asarray(a) != 0) | np.eye(n, dtype=bool)).astype(float)
    for _ in range((n - 1).bit_length()):
        r = np.minimum(r @ r, 1.0)
    return r > 0


def connected_components(a) -> list:
    """Partition of [0,n) into the maximal connected sets of adjacency matrix a.

    Each set is sorted, and the sets are ordered by least element.
    """
    r = _reach(a)
    comps, seen = [], np.zeros(len(r), dtype=bool)
    for v in range(len(r)):
        if not seen[v]:
            seen |= r[v]
            comps.append(np.flatnonzero(r[v]).tolist())
    return comps


def is_connected(a) -> bool:
    """Whether the graph of adjacency matrix a is connected; for a stack, whether every one is."""
    return bool(_reach(a).all())


def join_decomposition(a) -> list:
    """Maximal join decomposition of adjacency matrix a: the components of its complement.

    A single returned set means the graph is join-indecomposable.
    """
    n = len(a)
    return connected_components((np.asarray(a) == 0) & ~np.eye(n, dtype=bool))


# graph6 codec (McKay's format: 6-bit groups, +63 offset, upper triangle column-major)


def _g6_header(n: int) -> str:
    if n < 0:
        raise ValueError("negative vertex count")
    if n <= 62:
        return chr(n + 63)
    if n <= GRAPH6_MAX_N:
        return "~" + "".join(chr(((n >> sh) & 0x3F) + 63) for sh in (12, 6, 0))
    raise ValueError(f"graphs larger than {GRAPH6_MAX_N} vertices are not supported")


def encode_graph6(a) -> list:
    """graph6 lines of an adjacency stack (N, n, n), an edge wherever its upper triangle is nonzero."""
    a = np.asarray(a)
    head = np.frombuffer(_g6_header(a.shape[-1]).encode(), dtype=np.uint8)  # refuses an oversize n first
    v, u = np.tril_indices(a.shape[-1], -1)  # bit v(v-1)/2 + u holds the pair u < v
    nchars = -(-len(u) // 6)
    bits = np.zeros((len(a), 6 * nchars), dtype=np.uint8)  # zero padding to a multiple of 6
    bits[:, :len(u)] = a[:, u, v] != 0
    # each 6-bit group, most significant first, packs into the top of a byte
    body = (np.packbits(bits.reshape(len(a), nchars, 6), axis=-1)[..., 0] >> 2) + 63
    chars = np.hstack([np.broadcast_to(head, (len(a), len(head))), body])
    return chars.view(f"S{chars.shape[1]}").ravel().astype(str).tolist()


def decode_graph6(lines) -> np.ndarray:
    """Adjacency stack (N, n, n), bool, of N graph6 lines that all have one order n.

    A line may carry surrounding whitespace and the >>graph6<< header.  A
    malformed line, or lines of different orders, raise ValueError; no lines
    give an empty (0, 0, 0) stack.
    """
    lines = [line.strip().removeprefix(">>graph6<<") for line in lines]
    if not lines:
        return np.zeros((0, 0, 0), dtype=bool)
    if not all(lines):
        raise ValueError("empty graph6 input")
    size = np.array([len(line) for line in lines])
    # code points, zero-padded to the longest line and to at least a long header's four
    codes = np.array(lines, dtype=f"<U{max(size.max(), 4)}").view(np.uint32).reshape(len(lines), -1)
    bad = (np.arange(codes.shape[1]) < size[:, None]) & ((codes < 63) | (codes > 126))
    if bad.any():
        raise ValueError(f"character {chr(codes[bad][0])!r} outside graph6 range [63,126]")
    c = codes[:, :4].astype(np.int64) - 63
    long = c[:, 0] == 63
    if np.any(long & (c[:, 1] == 63)):
        raise ValueError(f"graphs larger than {GRAPH6_MAX_N} vertices are not supported")
    if np.any(long & (size < 4)):
        raise ValueError("malformed graph6 header")
    n = np.where(long, c[:, 1] << 12 | c[:, 2] << 6 | c[:, 3], c[:, 0])
    if np.any(n > GRAPH6_MAX_N):
        raise ValueError(f"graphs larger than {GRAPH6_MAX_N} vertices are not supported")
    if np.any(n != n[0]):
        raise ValueError(f"graph6 lines of different orders {n[0]} and {n[n != n[0]][0]}")
    n = int(n[0])
    nbits = n * (n - 1) // 2
    nchars = -(-nbits // 6)
    head = np.where(long, 4, 1)
    if np.any(size - head != nchars):
        raise ValueError("malformed graph6 header: body length does not match vertex count")
    body = np.take_along_axis(codes, head[:, None] + np.arange(nchars), axis=1) - 63
    bits = np.unpackbits(body.astype(np.uint8)[..., None], axis=-1)[..., 2:].reshape(len(lines), 6 * nchars)
    if bits[:, nbits:].any():
        raise ValueError("nonzero trailing bits in graph6 input")
    a = np.zeros((len(lines), n, n), dtype=bool)
    v, u = np.tril_indices(n, -1)
    a[:, u, v] = a[:, v, u] = bits[:, :nbits]
    return a


def parse_graph6(text: str) -> Graph:
    """The Graph of one graph6 line: decode_graph6's one-graph case, kept for perfbench's encoder check."""
    a = decode_graph6([text])[0]
    rows, cols = np.nonzero(np.triu(a))
    return Graph(len(a), frozenset(zip(rows.tolist(), cols.tolist())))


def parse_edge_list(text: str) -> np.ndarray:
    """Adjacency (n, n), int64, of an edge list: one "u v" pair per line, 0-based, '#' starts a comment.

    n is one more than the largest vertex named.  A pair may come reversed or
    more than once; it is one edge.
    """
    edges = []
    top = -1
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge-list line: {raw!r}")
        u, v = int(parts[0]), int(parts[1])
        if u < 0 or v < 0:
            raise ValueError("edge-list vertices must be nonnegative")
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        edges.append((u, v))
        top = max(top, u, v)
    a = np.zeros((top + 1, top + 1), dtype=np.int64)
    u, v = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    a[u, v] = a[v, u] = 1
    return a


# composite instances


def block_adjacency(a, k) -> np.ndarray:
    """[[a, K], [K^T, 0]] in K's dtype: the adjacency of H for a = A_G, of the scaffold B for a = 0.

    K may be a stack (..., t, s); the result then has the same leading axes.
    """
    t, s = k.shape[-2:]
    m = np.zeros(k.shape[:-2] + (t + s, t + s), dtype=k.dtype)
    m[..., :t, :t] = a
    m[..., :t, t:] = k
    m[..., t:, :t] = np.swapaxes(k, -1, -2)
    return m


@dataclass(frozen=True, eq=False)
class CompositeInstance:
    """Connected H with independent S, under T-first vertex ordering, as arrays.

    T = 0..t-1 and S = t..t+s-1 in H's labelling.  A is the t x t 0/1
    adjacency matrix of G, the subgraph induced on T; K is the t x s
    biadjacency of the bipartite scaffold B (the S-T edges of H), rows
    indexed by T and columns by S.  Its row and column sums are D1 and D2;
    census scaffolds may leave a T-vertex without an S-neighbour.  labels
    maps instance vertex -> caller's original label.
    """

    A: np.ndarray
    K: np.ndarray
    labels: tuple

    @property
    def s(self) -> int:
        return self.K.shape[1]

    @property
    def t(self) -> int:
        return self.K.shape[0]


def _check_scaffold(k: np.ndarray) -> None:
    """Raise ValueError unless the t x s scaffold K is 0/1 and every S-vertex has a neighbour in T."""
    if not np.array_equal(k, k.astype(bool).astype(k.dtype)):
        raise ValueError("scaffold must be a 0/1 matrix")
    if np.any(k.sum(axis=0) == 0):
        raise ValueError("zero column in scaffold: an S-vertex has no neighbour in T")


def _assemble(a: np.ndarray, k: np.ndarray, labels) -> CompositeInstance:
    _check_scaffold(k)
    a, k = a.astype(np.int64), k.astype(np.int64)
    # every S-vertex has a T-neighbour, so H is connected iff T is, with i ~ j for a G-edge or a common S-neighbour
    if not is_connected(a + k @ k.T):
        raise ValueError("composite instance is disconnected")
    return CompositeInstance(A=a, K=k, labels=tuple(labels))


def compose(s: int, a_g, scaffold=None) -> CompositeInstance:
    """Attach an independent set of size s to G, of adjacency matrix a_g, via a bipartite scaffold.

    scaffold is the t x s biadjacency (rows = vertices of G); omitted means the
    complete scaffold K = all-ones, i.e. H is the join of an edgeless graph on
    s vertices with G.
    """
    if s < 1:
        raise ValueError("need s >= 1")
    a_g = _check_adjacency(a_g)
    t = len(a_g)
    # _assemble checks the caller's values for 0/1 before it casts them
    K = np.ones((t, s), dtype=np.int64) if scaffold is None else np.asarray(scaffold)
    if K.shape != (t, s):
        raise ValueError(f"scaffold shape {K.shape} does not match (t={t}, s={s})")
    return _assemble(a_g, K, labels=range(t + s))


def instance_from_graph(a_h, S) -> CompositeInstance:
    """Build a composite instance from the adjacency matrix of an arbitrary graph H and a chosen S.

    Vertices are relabelled T-first; labels records the original names.
    S must be nonempty and independent in H, and every S-vertex must have a
    neighbour.
    """
    a = _check_adjacency(a_h)
    S = sorted(set(S))
    if not S:
        raise ValueError("S must contain at least one vertex")
    if any(not (0 <= v < len(a)) for v in S):
        raise ValueError("S contains a vertex outside the graph")
    inside = np.argwhere(np.triu(a[np.ix_(S, S)]))
    if len(inside):
        u, v = inside[0]
        raise ValueError(f"S is not independent: edge ({S[u]},{S[v]}) inside S")
    T = sorted(set(range(len(a))) - set(S))
    if not T:
        raise ValueError("S must leave at least one vertex in T")
    return _assemble(a[np.ix_(T, T)], a[np.ix_(T, S)], labels=T + S)


def instance_to_json(inst: CompositeInstance) -> dict:
    """JSON-ready summary of an instance (embed directly or json.dump it)."""
    n = inst.t + inst.s
    return {
        "n": n,
        "s": inst.s,
        "t": inst.t,
        "S": list(range(inst.t, n)),
        "T": list(range(inst.t)),
        "edges": np.argwhere(np.triu(block_adjacency(inst.A, inst.K))).tolist(),
    }


# noise operations: delete a scaffold edge / add an edge inside T


@dataclass(frozen=True)
class DeleteCross:
    """Remove scaffold edge (i in T, k in S); None endpoints are sampled."""

    i: int | None = None
    k: int | None = None  # S-column index, 0..s-1


@dataclass(frozen=True)
class AddIntra:
    """Add edge {i, j} inside T; None endpoints are sampled."""

    i: int | None = None
    j: int | None = None


def apply_noise(inst: CompositeInstance, ops, seed: int = 0) -> CompositeInstance:
    """Apply cross-deletions and intra-T additions, in order.

    Explicit endpoints must name a current scaffold edge (DeleteCross) or a
    current non-edge of G between two distinct vertices (AddIntra), else
    ValueError.  None endpoints are sampled uniformly among the currently
    valid moves under the given seed (a deletion is valid only if it leaves
    no zero scaffold column).  The result must be connected with no zero
    column; otherwise ValueError.
    """
    rng = np.random.default_rng(seed)
    A, K = inst.A.copy(), inst.K.copy()
    t, s = K.shape
    for op in ops:
        if isinstance(op, DeleteCross):
            if op.i is None or op.k is None:
                cand = [
                    (i, k)
                    for i, k in zip(*np.nonzero(K))
                    if K[:, k].sum() > 1
                ]
                if not cand:
                    raise ValueError("no deletable scaffold edge remains")
                i, k = cand[rng.integers(len(cand))]
            else:
                i, k = op.i, op.k
                if not (0 <= i < t and 0 <= k < s) or K[i, k] == 0:
                    raise ValueError(f"DeleteCross({i},{k}): not a scaffold edge")
            K[i, k] = 0
        elif isinstance(op, AddIntra):
            if op.i is None or op.j is None:
                cand = [
                    (i, j)
                    for i, j in itertools.combinations(range(t), 2)
                    if not A[i, j]
                ]
                if not cand:
                    raise ValueError("G is already complete")
                i, j = cand[rng.integers(len(cand))]
            else:
                i, j = _norm_edge(op.i, op.j)
                if not (0 <= i < t and 0 <= j < t):
                    raise ValueError(f"AddIntra({op.i},{op.j}): endpoints must lie in T")
                if i == j:
                    raise ValueError(f"AddIntra({i},{j}): a loop is not an edge of a simple graph")
                if A[i, j]:
                    raise ValueError(f"AddIntra({i},{j}): already an edge of G")
            A[i, j] = A[j, i] = 1
        else:
            raise TypeError(f"unknown noise op {op!r}")
    return _assemble(A, K, labels=inst.labels)
