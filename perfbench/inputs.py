"""Seeded input batch for the ``analyze`` workload.

The batch has a fixed shape, so its cost barely depends on the seed: 128
input files, each with a fixed order and family per slot.  The seed picks the
graphs within each family, the vertex labelling of the float-path slots, the
file format (graph6 or edge list) and, where the family allows it, how S is given
(``--complete-scaffold`` or ``--s-vertices``).  Inputs are written with the
benchmark's own encoders, so they do not depend on rothlab's codecs.

Slots:
  16 exact-path instances (one in eight): 3 vs an even cycle C_k (mu = 3)
     and stars K_{1,s} at t = s + 1 (mu = 1), decided by the exact Fraction
     kernel; they set the latency tail.
  112 float-path instances, orders 16 to 160, in four families:
     path  - complete scaffold over a random tree or a path;
     general - a random G(t, p) with S attached by a random general scaffold,
               always given through --s-vertices;
     boundary - complete scaffold over a join with delta(G) = t - s, where
               the boundary characterization applies;
     dense - complete scaffold over a dense random graph.
"""

from __future__ import annotations

import os
import random

EXACT_CYCLES = (12, 14, 16, 20, 24, 28, 32, 36)
EXACT_STARS = (6, 7, 8, 9, 10, 12, 14, 16)
FLOAT_SLOTS = 112
MIN_ORDER, MAX_ORDER = 16, 160
FAMILIES = ("path", "general", "boundary", "dense")


def graph6(n: int, edges) -> str:
    """graph6 text of a simple graph on 0..n-1 (n < 63 uses the short header)."""
    if n < 63:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + (n >> sh & 63)) for sh in (12, 6, 0))
    eset = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (u, v) in eset else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[i:i + 6])), 2))
                   for i in range(0, len(bits), 6))
    return head + body


def edge_list(edges) -> str:
    return "".join(f"{u} {v}\n" for u, v in sorted((min(e), max(e)) for e in edges))


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _random_tree(t: int, rng: random.Random) -> list:
    if t <= 2:
        return [(0, 1)][: t - 1]
    seq = [rng.randrange(t) for _ in range(t - 2)]
    degree = [1] * t
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(t) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = [x for x in range(t) if degree[x] == 1]
    edges.append((u, w))
    return edges


def _gnp(t: int, p: float, rng: random.Random) -> list:
    return [(u, v) for u in range(t) for v in range(u + 1, t) if rng.random() < p]


def _sparse_g(t: int, rng: random.Random) -> list:
    if rng.random() < 0.25:
        return [(i, i + 1) for i in range(t - 1)]
    return _random_tree(t, rng)


def _join(a_edges, a: int, b_edges, b: int) -> list:
    return (list(a_edges) + [(a + u, a + v) for u, v in b_edges]
            + [(u, a + v) for u in range(a) for v in range(b)])


def _complete_join(g_edges, t: int, s: int) -> list:
    return list(g_edges) + [(u, t + j) for u in range(t) for j in range(s)]


def _general(n: int, rng: random.Random):
    """H on n vertices: G(t, p) on T and a random scaffold, connected; returns (edges, t)."""
    s = max(3, n // 8)
    t = n - s
    while True:
        g = _gnp(t, rng.uniform(1.0, 4.0) / t, rng)
        q = rng.uniform(0.3, 0.9)
        cross = []
        for j in range(s):
            attach = [u for u in range(t) if rng.random() < q] or [rng.randrange(t)]
            cross.extend((u, t + j) for u in attach)
        edges = g + cross
        if _connected(n, edges):
            return edges, t


def _slot_orders() -> list:
    step = (MAX_ORDER - MIN_ORDER) / (FLOAT_SLOTS - 1)
    return [round(MIN_ORDER + i * step) for i in range(FLOAT_SLOTS)]


def _float_instance(i: int, n: int, rng: random.Random):
    """(family, G edges on 0..t-1 or H edges, t, s, complete) for a float-path slot."""
    family = FAMILIES[i % len(FAMILIES)]
    if family == "path":
        s = 4 + i % 9
        t = n - s
        return family, _sparse_g(t, rng), t, s, True
    if family == "general":
        edges, t = _general(n, rng)
        return family, edges, t, n - t, False
    if family == "boundary":
        # G = A join B with B of order b >> a: delta(G) = delta(B) + a, so
        # s = t - delta(G) keeps the instance on the boundary delta(G) = t - s.
        a = 2 + i % 4
        b = max(4, n // 2 - a)
        a_edges = _gnp(a, 0.5, rng)
        b_edges = _random_tree(b, rng) + _gnp(b, 2.0 / b, rng)
        g = sorted({(min(e), max(e)) for e in _join(a_edges, a, b_edges, b)})
        t = a + b
        deg = [0] * t
        for u, v in g:
            deg[u] += 1
            deg[v] += 1
        return family, g, t, t - min(deg), True
    s = n // 3
    t = n - s
    return family, _gnp(t, rng.uniform(0.6, 0.8), rng), t, s, True


def _write(path_stem: str, n: int, edges, rng: random.Random) -> str:
    # an edge list cannot carry an isolated vertex, so such graphs go as graph6
    covered = {v for e in edges for v in e}
    if rng.random() < 0.5 or len(covered) < n:
        path = path_stem + ".g6"
        text = graph6(n, edges) + "\n"
    else:
        path = path_stem + ".edges"
        text = edge_list(edges)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def make_batch(seed: int, out_dir: str) -> list:
    """Write the batch; return [{file, argv, family, order, s, t, complete, exact}]."""
    rng = random.Random(seed)
    os.makedirs(out_dir, exist_ok=True)
    specs = []
    for k in EXACT_CYCLES:
        specs.append(("exact_cycle", [(i, (i + 1) % k) for i in range(k)], k, 3, True))
    for s in EXACT_STARS:
        specs.append(("exact_star", [(0, i) for i in range(1, s + 1)], s + 1, s, True))
    for i, n in enumerate(_slot_orders()):
        specs.append(_float_instance(i, n, rng))
    # spread the exact instances evenly through the batch (one in eight)
    order = []
    exact, floats = specs[:16], specs[16:]
    for j in range(16):
        order.append(exact[j])
        order.extend(floats[7 * j:7 * j + 7])

    batch = []
    for idx, (family, edges, t, s, complete) in enumerate(order):
        n = t + s
        via_s_vertices = not complete or rng.random() < 0.5
        if complete and via_s_vertices:
            edges = _complete_join(edges, t, s)
        size = n if via_s_vertices else t
        perm = list(range(size))
        if not family.startswith("exact"):
            # relabelling an exact instance changes the Fraction pivots and
            # hence its cost, so those keep their construction order
            rng.shuffle(perm)
        relabelled = [(perm[u], perm[v]) for u, v in edges]
        stem = os.path.join(out_dir, f"in{idx:03d}_{family}")
        path = _write(stem, size, relabelled, rng)
        if via_s_vertices:
            svert = ",".join(str(perm[v]) for v in range(t, n))
            argv = ["analyze", path, "--s-vertices", svert]
        else:
            argv = ["analyze", path, "--complete-scaffold", str(s)]
        batch.append({"file": os.path.basename(path), "argv": argv, "family": family,
                      "order": n, "s": s, "t": t, "complete": complete,
                      "exact": family.startswith("exact")})
    return batch
