"""Adjacency arrays, composite instances and their codecs.

A graph on vertices 0..n-1 is its (n, n) 0/1 int64 adjacency array, from
the command line to the outputs: the named constructors build one, the
graph6 codec and the edge-list parser read one, every computation takes
one, and outputs write it as graph6, whose one-character and `~` headers
reach GRAPH6_MAX_N vertices.  A composite instance is
a connected graph H together with a distinguished independent set S; the
bipartite scaffold B collects the S-T edges and G is the subgraph induced on
T = V(H) - S.  Vertices of an instance are always ordered T first, so the
matrices built downstream have the block layout [[Q(G)+D1, K], [K^T, D2]]
without any permutation bookkeeping.

Graph, a frozenset of edge pairs, and parse_graph6, which builds one from a
graph6 line, are kept for perfbench's check of its own graph6 encoder; the
package reads graph6 with decode_graph6 and builds no Graph elsewhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

GRAPH6_MAX_N = 258047  # the 18-bit `~` header reaches here; the `~~` form beyond is rejected


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
        return Graph(n, frozenset((min(u, v), max(u, v)) for u, v in edges))


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


def _component(a, v: int = 0) -> np.ndarray:
    """Vertices reachable from v in an adjacency matrix, or in each of a stack: bool (..., n).

    The connectivity routine of adjacency arrays; packed scaffold codes are tested on the codes by
    enumeration._connected_codes.  Breadth-first: each step is one boolean matrix-vector product
    that moves the frontier to its unseen neighbours, until no frontier is left.
    """
    a = np.asarray(a) != 0
    seen = np.broadcast_to(np.arange(a.shape[-1]) == v, a.shape[:-1]).copy()
    frontier = seen
    while frontier.any():
        frontier = (a @ frontier[..., None])[..., 0] & ~seen
        seen |= frontier
    return seen


def _connected_mask(k: np.ndarray, a) -> np.ndarray:
    """Whether [[a, K], [K^T, 0]] is connected, bool (N,) over a stack of K or of a = A_G.

    Connected iff no column of K is zero and T is, with i ~ j for an edge of a or a common S-neighbour.
    """
    return k.any(axis=-2).all(axis=-1) & _component(a + k @ np.swapaxes(k, -1, -2)).all(axis=-1)


def connected_components(a) -> list:
    """Partition of [0,n) into the maximal connected sets of adjacency matrix a.

    Each set is sorted, and the sets are ordered by least element.
    """
    comps, seen = [], np.zeros(len(a), dtype=bool)
    for v in range(len(a)):
        if not seen[v]:
            comp = _component(a, v)
            seen |= comp
            comps.append(np.flatnonzero(comp).tolist())
    return comps


def is_connected(a) -> bool:
    """Whether the graph of adjacency matrix a is connected; for a stack, whether every one is."""
    return bool(_component(a).all())


def join_decomposition(a) -> list:
    """Maximal join decomposition of adjacency matrix a: the components of its complement.

    A single returned set means the graph is join-indecomposable.
    """
    return connected_components((np.asarray(a) == 0) & ~np.eye(len(a), dtype=bool))


# graph6 codec (McKay's format: 6-bit groups, +63 offset, upper triangle column-major)


def _g6_header(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= GRAPH6_MAX_N:
        return "~" + "".join(chr(((n >> sh) & 0x3F) + 63) for sh in (12, 6, 0))
    raise ValueError(f"graphs larger than {GRAPH6_MAX_N} vertices are not supported")


def _g6_layout(n: int) -> tuple:
    """(v, u) of order n: body bit v(v-1)/2 + u holds the pair u < v."""
    v = np.repeat(np.arange(n), np.arange(n))
    return v, np.arange(len(v)) - v * (v - 1) // 2


def encode_graph6(a) -> list:
    """graph6 lines of an adjacency stack (N, n, n), an edge wherever its upper triangle is nonzero."""
    a = np.asarray(a)
    head = np.frombuffer(_g6_header(a.shape[-1]).encode(), dtype=np.uint8)  # refuses an oversize n first
    v, u = _g6_layout(a.shape[-1])
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
    # a `~` header below `~~` reads at most 62 << 12 | 63 << 6 | 63 = GRAPH6_MAX_N
    n = np.where(long, c[:, 1] << 12 | c[:, 2] << 6 | c[:, 3], c[:, 0])
    if np.any(n != n[0]):
        raise ValueError(f"graph6 lines of different orders {n[0]} and {n[n != n[0]][0]}")
    n = int(n[0])
    # the body length follows from n alone, so a short line is refused before _g6_layout allocates n(n-1) indices
    nbits, head = n * (n - 1) // 2, np.where(long, 4, 1)
    nchars = -(-nbits // 6)
    if np.any(size - head != nchars):
        raise ValueError("malformed graph6 header: body length does not match vertex count")
    v, u = _g6_layout(n)
    body = np.take_along_axis(codes, head[:, None] + np.arange(nchars), axis=1) - 63
    bits = np.unpackbits(body.astype(np.uint8)[..., None], axis=-1)[..., 2:].reshape(len(lines), 6 * nchars)
    if bits[:, nbits:].any():
        raise ValueError("nonzero trailing bits in graph6 input")
    a = np.zeros((len(lines), n, n), dtype=bool)
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
    more than once; it is one edge.  Plain lines of two decimals are read as
    one array.  Any other text, and one with a loop, is read line by line,
    which raises at the first bad line.
    """
    edges = np.fromstring(text, dtype=np.int64, sep=" ").reshape(-1, 2) if _PLAIN_EDGES.fullmatch(text) else None
    if edges is not None and not (edges[:, 0] == edges[:, 1]).any():
        n = int(edges.max(initial=-1)) + 1
    else:
        edges, n = [], 0  # n a Python int, so that an oversize one fails in np.zeros
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
            n = max(n, u + 1, v + 1)
    a = np.zeros((n, n), dtype=np.int64)
    u, v = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    a[u, v] = a[v, u] = 1
    return a


# lines of two decimals of up to ten digits (so each fits an int64), spaces and tabs around them; last newline optional
_PLAIN_EDGES = re.compile(r"(?:[ \t]*[0-9]{1,10}[ \t]+[0-9]{1,10}[ \t]*\n)*"
                          r"(?:[ \t]*[0-9]{1,10}[ \t]+[0-9]{1,10}[ \t]*)?")


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


def _check_scaffold(a: np.ndarray, k: np.ndarray) -> None:
    """Raise ValueError unless the t x s scaffold K is 0/1 with no zero column and H is connected.

    a is A_G, or a stack of them, each of which must give a connected H.
    """
    if not np.array_equal(k, k.astype(bool).astype(k.dtype)):
        raise ValueError("scaffold must be a 0/1 matrix")
    if np.any(k.sum(axis=0) == 0):
        raise ValueError("zero column in scaffold: an S-vertex has no neighbour in T")
    if not _connected_mask(k != 0, a).all():  # bool, so that K K^T cannot overflow a narrow dtype
        raise ValueError("composite instance is disconnected")


def _assemble(a: np.ndarray, k: np.ndarray, labels) -> CompositeInstance:
    _check_scaffold(a, k)
    return CompositeInstance(A=a.astype(np.int64), K=k.astype(np.int64), labels=tuple(labels))


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
    """JSON-ready summary of an instance (embed directly or json.dump it).

    H is given as one graph6 line in its T-first labelling, T = 0..t-1 and S = t..n-1.
    """
    h = block_adjacency(inst.A, inst.K)
    return {"n": inst.t + inst.s, "s": inst.s, "t": inst.t, "graph6": encode_graph6(h[None])[0]}
