"""Undirected graphs, composite instances and their codecs.

Vertices are 0..n-1 throughout.  A composite instance is a connected graph H
together with a distinguished independent set S; the bipartite scaffold B
collects the S-T edges and G is the subgraph induced on T = V(H) - S.
Vertices of an instance are always ordered T first, so the matrices built
downstream have the block layout [[Q(G)+D1, K], [K^T, D2]] without any
permutation bookkeeping.
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

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def neighbors(self, v: int) -> set:
        return {b if a == v else a for (a, b) in self.edges if v in (a, b)}

    def degree(self, v: int) -> int:
        return sum(1 for (a, b) in self.edges if v in (a, b))

    def degrees(self) -> list:
        d = [0] * self.n
        for (u, v) in self.edges:
            d[u] += 1
            d[v] += 1
        return d

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for (u, v) in self.edges:
            a[u, v] = a[v, u] = 1.0
        return a

    def adjacency_sets(self) -> list:
        adj = [set() for _ in range(self.n)]
        for (u, v) in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


# named constructors


def empty_graph(n: int) -> Graph:
    return Graph(n)


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    edges = set(g.edges) | {(u + g.n, v + g.n) for (u, v) in h.edges}
    return Graph.from_edges(g.n + h.n, edges)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all cross edges."""
    u = disjoint_union(g, h)
    cross = {(i, g.n + j) for i in range(g.n) for j in range(h.n)}
    return Graph.from_edges(u.n, set(u.edges) | cross)


def complement(g: Graph) -> Graph:
    """Edge {i,j} in the result iff i != j and {i,j} not in g."""
    all_pairs = set(itertools.combinations(range(g.n), 2))
    return Graph(g.n, frozenset(all_pairs - set(g.edges)))


def connected_components(g: Graph) -> list:
    """Partition of [0,n) into maximal connected sets, each sorted, ordered by least element."""
    adj = g.adjacency_sets()
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def join_decomposition(g: Graph) -> list:
    """Maximal join decomposition: the joinees are the components of the complement.

    A single returned set means g is join-indecomposable.
    """
    return connected_components(complement(g))


# graph6 codec (McKay's format: 6-bit groups, +63 offset, upper triangle column-major)


def _g6_header(n: int) -> str:
    if n < 0:
        raise ValueError("negative vertex count")
    if n <= 62:
        return chr(n + 63)
    if n <= GRAPH6_MAX_N:
        return "~" + "".join(chr(((n >> sh) & 0x3F) + 63) for sh in (12, 6, 0))
    raise ValueError(f"graphs larger than {GRAPH6_MAX_N} vertices are not supported")


def emit_graph6(g: Graph) -> str:
    head = _g6_header(g.n)
    nbits = g.n * (g.n - 1) // 2
    # bit v(v-1)/2 + u holds the pair u < v; pad to a multiple of 6 with zeros
    bits = bytearray(nbits + (-nbits) % 6)
    for (u, v) in g.edges:
        bits[v * (v - 1) // 2 + u] = 1
    return head + "".join(
        chr(63 + (bits[i] << 5 | bits[i + 1] << 4 | bits[i + 2] << 3 | bits[i + 3] << 2 | bits[i + 4] << 1 | bits[i + 5]))
        for i in range(0, len(bits), 6))


def parse_graph6(text: str) -> Graph:
    line = text.strip()
    if line.startswith(">>graph6<<"):
        line = line[10:]
    if not line:
        raise ValueError("empty graph6 input")
    for ch in line:
        if not (63 <= ord(ch) <= 126):
            raise ValueError(f"character {ch!r} outside graph6 range [63,126]")
    if line.startswith("~~"):
        raise ValueError(f"graphs larger than {GRAPH6_MAX_N} vertices are not supported")
    if line.startswith("~"):
        if len(line) < 4:
            raise ValueError("malformed graph6 header")
        n = 0
        for ch in line[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = line[4:]
    else:
        n = ord(line[0]) - 63
        body = line[1:]
    if n > GRAPH6_MAX_N:
        raise ValueError(f"graphs larger than {GRAPH6_MAX_N} vertices are not supported")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise ValueError("malformed graph6 header: body length does not match vertex count")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        bits.extend((val >> sh) & 1 for sh in range(5, -1, -1))
    if any(bits[nbits:]):
        raise ValueError("nonzero trailing bits in graph6 input")
    edges = set()
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.add((u, v))
            idx += 1
    return Graph(n, frozenset(edges))


# edge-list text format: one "u v" pair per line, 0-based, '#' starts a comment


def parse_edge_list(text: str) -> Graph:
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
    return Graph.from_edges(top + 1, edges)


def emit_edge_list(g: Graph) -> str:
    return "\n".join(f"{u} {v}" for (u, v) in sorted(g.edges)) + "\n"


# composite instances


@dataclass(frozen=True, eq=False)
class CompositeInstance:
    """Connected H with independent S, under T-first vertex ordering.

    T = 0..t-1 and S = t..t+s-1 in H's labelling.  B is the bipartite scaffold
    (the S-T edges of H, as a graph on all of V(H)); G is the subgraph induced
    on T, on its own vertex set 0..t-1.  K is the t x s biadjacency of B with
    rows indexed by T and columns by S; D1 and D2 are its row and column sums.
    s_maximal records whether S is a maximal independent set (every T-vertex
    has an S-neighbour); census scaffolds may violate it, so it is a flag, not
    an error.  labels maps instance vertex -> caller's original label.
    """

    H: Graph
    S: tuple
    T: tuple
    B: Graph
    G: Graph
    K: np.ndarray
    D1: np.ndarray
    D2: np.ndarray
    s_maximal: bool
    labels: tuple

    @property
    def s(self) -> int:
        return len(self.S)

    @property
    def t(self) -> int:
        return len(self.T)


def _assemble(G: Graph, K: np.ndarray, labels) -> CompositeInstance:
    t, s = K.shape
    if t != G.n:
        raise ValueError("scaffold row count must equal the order of G")
    if not np.array_equal(K, K.astype(bool).astype(K.dtype)):
        raise ValueError("scaffold must be a 0/1 matrix")
    D2 = K.sum(axis=0)
    if np.any(D2 == 0):
        raise ValueError("zero column in scaffold: an S-vertex has no neighbour in T")
    D1 = K.sum(axis=1)
    n = t + s
    cross = {(i, t + j) for i in range(t) for j in range(s) if K[i, j]}
    H = Graph.from_edges(n, set(G.edges) | cross)
    if not is_connected(H):
        raise ValueError("composite instance is disconnected")
    return CompositeInstance(
        H=H,
        S=tuple(range(t, n)),
        T=tuple(range(t)),
        B=Graph(n, frozenset(cross)),
        G=G,
        K=K.astype(np.int64),
        D1=D1.astype(np.int64),
        D2=D2.astype(np.int64),
        s_maximal=bool(np.all(D1 > 0)),
        labels=tuple(labels),
    )


def compose(s: int, G: Graph, scaffold=None) -> CompositeInstance:
    """Attach an independent set of size s to G via a bipartite scaffold.

    scaffold is the t x s biadjacency (rows = vertices of G); omitted means the
    complete scaffold K = all-ones, i.e. H is the join of an edgeless graph on
    s vertices with G.
    """
    if s < 1:
        raise ValueError("need s >= 1")
    t = G.n
    K = np.ones((t, s), dtype=np.int64) if scaffold is None else np.asarray(scaffold, dtype=np.int64)
    if K.shape != (t, s):
        raise ValueError(f"scaffold shape {K.shape} does not match (t={t}, s={s})")
    return _assemble(G, K, labels=range(t + s))


def instance_from_graph(H: Graph, S) -> CompositeInstance:
    """Build a composite instance from an arbitrary graph and a chosen S.

    Vertices are relabelled T-first; labels records the original names.
    S must be independent in H and every S-vertex must have a neighbour.
    """
    S = sorted(set(S))
    if any(not (0 <= v < H.n) for v in S):
        raise ValueError("S contains a vertex outside the graph")
    sset = set(S)
    for (u, v) in H.edges:
        if u in sset and v in sset:
            raise ValueError(f"S is not independent: edge ({u},{v}) inside S")
    T = [v for v in range(H.n) if v not in sset]
    if not T:
        raise ValueError("S must leave at least one vertex in T")
    new_index = {old: i for i, old in enumerate(T)}
    new_index.update({old: len(T) + j for j, old in enumerate(S)})
    t = len(T)
    G = Graph.from_edges(
        t, ((new_index[u], new_index[v]) for (u, v) in H.edges if u not in sset and v not in sset)
    )
    K = np.zeros((t, len(S)), dtype=np.int64)
    for (u, v) in H.edges:
        if (u in sset) != (v in sset):
            i, k = (v, u) if u in sset else (u, v)
            K[new_index[i], new_index[k] - t] = 1
    return _assemble(G, K, labels=T + S)


def common_neighbors(inst: CompositeInstance, i: int, j: int) -> tuple:
    """N_ij: the S-vertices adjacent in the scaffold to both T-vertices i and j."""
    if i == j:
        raise ValueError("need two distinct T-vertices")
    if not (0 <= i < inst.t and 0 <= j < inst.t):
        raise ValueError("common_neighbors takes T-vertices (0..t-1)")
    mask = inst.K[i] & inst.K[j]
    return tuple(inst.t + k for k in np.flatnonzero(mask))


def instance_to_json(inst: CompositeInstance) -> dict:
    """JSON-ready summary of an instance (embed directly or json.dump it)."""
    return {
        "n": inst.H.n,
        "s": inst.s,
        "t": inst.t,
        "S": list(inst.S),
        "T": list(inst.T),
        "edges": sorted([u, v] for (u, v) in inst.H.edges),
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
    current non-edge of G (AddIntra), else ValueError.  None endpoints are
    sampled uniformly among the currently valid moves under the given seed
    (a deletion is valid only if it leaves no zero scaffold column).  The
    result must be connected with no zero column; otherwise ValueError.
    """
    rng = np.random.default_rng(seed)
    K = inst.K.copy()
    g_edges = set(inst.G.edges)
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
                    if (i, j) not in g_edges
                ]
                if not cand:
                    raise ValueError("G is already complete")
                i, j = cand[rng.integers(len(cand))]
            else:
                i, j = _norm_edge(op.i, op.j)
                if not (0 <= i < t and 0 <= j < t):
                    raise ValueError(f"AddIntra({op.i},{op.j}): endpoints must lie in T")
                if (i, j) in g_edges:
                    raise ValueError(f"AddIntra({i},{j}): already an edge of G")
            g_edges.add((i, j))
        else:
            raise TypeError(f"unknown noise op {op!r}")
    return _assemble(Graph(t, frozenset(g_edges)), K, labels=inst.labels)
