"""Bipartite scaffold enumeration, small-graph and tree generators."""

import hashlib
import itertools
import math
import os
from collections import Counter

import networkx as nx
import numpy as np
import pytest

import rothlab.enumeration
from rothlab.enumeration import (
    _pack_codes,
    _unpack_codes,
    all_graphs,
    all_trees,
    enumerate_connected_bipartite,
    scaffold_codes,
)
from rothlab.graphs import Graph, _component, encode_graph6


def test_known_counts():
    assert len(list(enumerate_connected_bipartite(1, 1))) == 1
    assert len(list(enumerate_connected_bipartite(2, 1))) == 1
    assert len(list(enumerate_connected_bipartite(2, 2))) == 2
    assert len(list(enumerate_connected_bipartite(4, 5))) == 558
    assert len(list(enumerate_connected_bipartite(4, 7))) == 5375


def test_matrix_orientation():
    mats = list(enumerate_connected_bipartite(5, 4))
    assert len(mats) == 558
    assert all(m.shape == (5, 4) for m in mats)
    # transposes of the (4, 5) run, as multisets of canonical forms
    back = {tuple(sorted(map(tuple, m.T))) for m in mats}
    fwd = {
        tuple(sorted(map(tuple, m)))
        for m in enumerate_connected_bipartite(4, 5)
    }
    assert back == fwd


def test_size_guard():
    with pytest.raises(ValueError):
        list(enumerate_connected_bipartite(7, 6))
    with pytest.raises(ValueError, match="t, s >= 1"):
        enumerate_connected_bipartite(0, 3)
    # explicit override allows oversized shapes; a thin one stays cheap
    mats = list(enumerate_connected_bipartite(41, 1, allow_long=True))
    assert len(mats) == 1 and mats[0].shape == (41, 1)


def test_packed_code_limit(monkeypatch):
    # past t*s = 63 the shape is refused before any enumeration, even with allow_long
    def unreachable(m, cols):
        raise AssertionError("enumeration started")

    assert len(enumerate_connected_bipartite(63, 1, allow_long=True)) == 1
    monkeypatch.setattr(rothlab.enumeration, "_canonical_codes", unreachable)
    for shape in ((8, 8), (64, 1), (7, 10)):
        with pytest.raises(ValueError, match="exceeds 63"):
            enumerate_connected_bipartite(*shape, allow_long=True)


def test_packed_codes_round_trip():
    # the census packs the scaffolds of its cache and unpacks each block it decides: in both
    # orientations, one byte per column of the smaller part, and lossless on any 0/1 stack
    rng = np.random.default_rng(29)
    for t, s in ((4, 7), (7, 4), (1, 5), (5, 1), (7, 7)):
        k = rng.integers(0, 2, size=(50, t, s))
        codes = _pack_codes(k)
        assert codes.shape == (50, max(t, s)) and codes.dtype == np.uint8
        assert np.array_equal(_unpack_codes(codes, t, s, np.int64), k)
        assert np.array_equal(_unpack_codes(codes, t, s), k != 0)
    for t, s in ((4, 5), (5, 4)):
        codes = scaffold_codes(t, s)
        assert codes.shape == (558, 5) and codes.dtype == np.uint8
        assert np.array_equal(_pack_codes(enumerate_connected_bipartite(t, s)), codes)


def test_connectivity_on_codes_matches_the_matrix_test():
    # the enumerator and the census cache test connectivity on packed codes: zero rows and columns included,
    # in both orientations, it agrees with the component search on the biadjacency
    rng = np.random.default_rng(33)
    for t, s in ((4, 7), (7, 4), (1, 5), (5, 1), (3, 3), (6, 6)):
        k = rng.random((400, t, s)) < rng.random((400, 1, 1))
        got = rothlab.enumeration._connected_codes(_pack_codes(k), min(t, s))
        expected = k.any(axis=-2).all(axis=-1) & _component(k @ np.swapaxes(k, -1, -2)).all(axis=-1)
        assert np.array_equal(got, expected) and 0 < got.sum() < len(k), (t, s)


def _brute_force_count(t: int, s: int) -> int:
    reps = set()
    row_perms = list(itertools.permutations(range(t)))
    col_perms = list(itertools.permutations(range(s)))
    for bits in range(1, 2 ** (t * s)):
        k = np.array([[(bits >> (i * s + j)) & 1 for j in range(s)] for i in range(t)])
        if (k.sum(axis=0) == 0).any() or (k.sum(axis=1) == 0).any():
            continue
        # connectivity of the bipartite graph
        n = t + s
        adj = [set() for _ in range(n)]
        for i in range(t):
            for j in range(s):
                if k[i, j]:
                    adj[i].add(t + j)
                    adj[t + j].add(i)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != n:
            continue
        canon = min(
            tuple(k[list(rp)][:, list(cp)].flatten())
            for rp in row_perms
            for cp in col_perms
        )
        reps.add(canon)
    return len(reps)


def test_brute_force_cross_check():
    for t in (1, 2, 3):
        for s in (1, 2, 3):
            expected = _brute_force_count(t, s)
            got = len(list(enumerate_connected_bipartite(t, s)))
            assert got == expected, (t, s, got, expected)


# reference enumerator: every column multiset in turn, kept iff no row permutation maps it to a
# lexicographically smaller sorted tuple, then filtered for connectivity


def _ref_canonical_codes(m: int, cols: int):
    ncols = 1 << m
    lut = (1 << np.array(list(itertools.permutations(range(m))))) @ (np.arange(ncols) >> np.arange(m)[:, None] & 1)
    w = (ncols ** np.arange(cols - 1, -1, -1)).astype(np.int64)
    it = itertools.combinations_with_replacement(range(1, ncols), cols)
    while True:
        chunk = np.array(list(itertools.islice(it, 500_000)), dtype=np.int64)
        if chunk.size == 0:
            return
        codes = chunk @ w
        best = codes.copy()
        for pi in range(1, lut.shape[0]):
            mapped = np.sort(lut[pi][chunk], axis=1)
            np.minimum(best, mapped @ w, out=best)
        yield chunk[codes == best]


def _ref_enumerate(t: int, s: int) -> np.ndarray:
    m, cols, transpose = (t, s, False) if t <= s else (s, t, True)
    out = []
    for codes in _ref_canonical_codes(m, cols):
        k = codes[:, None, :] >> np.arange(m)[:, None] & 1
        out.append(k[_component(k @ np.swapaxes(k, -1, -2)).all(axis=-1)])
    k = np.concatenate(out)
    return np.swapaxes(k, -1, -2) if transpose else k


def test_orderly_generation_matches_the_reference():
    # every shape with t*s <= 24, both orientations: the same stack, in the same order
    for t in range(1, 25):
        for s in range(1, 24 // t + 1):
            got, ref = enumerate_connected_bipartite(t, s), _ref_enumerate(t, s)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), (t, s)


def test_scaffold_stacks_match_their_pinned_digests():
    # sha256 of the stack bytes: (4, 7) and (4, 9) recorded from the full-multiset enumerator, the rest from
    # the enumerator that compared every candidate with all its sorted images; five and six rows are the
    # permutation groups the reference test above does not reach
    pinned = {
        (4, 7): "e6f2093a086454ca812204073fa4c117150d910295c4caee660b8a7862d6d3f4",
        (4, 9): "058f7c70e7afe1329b4187c036900fc5776bf039d8f8db878c4da90e04d1592e",
        (5, 5): "bcf62949d8ac389ff6b86ef96ce9e85b3cf3227bcdbb8ccf49c299cee38b12b7",
        (5, 6): "f473c2624cdefdd7a2367a6ceb142a2309e27a2779831bc2116a03538bfd9cc7",
        (5, 7): "1b0c019128c8526167f73a5935a4fa337abb65a8b8483dcb231801b849bb4c87",
        (7, 5): "f0157ff82134d0a952129e249392e9c1c1409411a0881250a90f97e415f139cd",
    }
    for shape, digest in pinned.items():
        assert hashlib.sha256(enumerate_connected_bipartite(*shape).tobytes()).hexdigest() == digest, shape


@pytest.mark.skipif(not os.environ.get("ROTHLAB_LONG"), reason="set ROTHLAB_LONG=1 (about 1 s, 70 MB)")
def test_six_row_scaffold_stack_matches_its_pinned_digest():
    k = enumerate_connected_bipartite(6, 6)
    assert len(k) == 194203
    assert hashlib.sha256(k.tobytes()).hexdigest() == "b8e4737f0071bf2a9fda42f3c2539dfbeb440b19d6794a3eddbdf06146e771cb"


def _ref_images(m: int, codes: tuple) -> list:
    """The sorted image of a code tuple under each permutation of the m rows, in itertools' order (identity first)."""
    bits = np.array(codes)[:, None] >> np.arange(m) & 1
    perms = np.array(list(itertools.permutations(range(m))))
    return [tuple(row) for row in np.sort((bits << perms[:, None, :]).sum(axis=2), axis=1).tolist()]


def _ref_is_canonical(m: int, codes: tuple) -> bool:
    return min(_ref_images(m, codes)) == codes


def _ref_bounds(m: int, codes: tuple) -> list:
    """Per non-identity permutation: the entry of codes at the first index where its sorted image differs, or 0."""
    return [next((x for x, y in zip(codes, image) if x != y), 0) for image in _ref_images(m, codes)[1:]]


@pytest.mark.parametrize("m", [5, 6])
def test_carried_bounds_decide_canonicity(m):
    # walk each tuple's prefixes through the rule from the empty tuple, whose bounds are all 0: a tuple is
    # canonical iff no prefix is beaten, and a canonical tuple's carried bounds are the ones defined afresh
    rng = np.random.default_rng(33 + m)
    perms = np.array(list(itertools.permutations(range(m))))
    lut = (1 << perms) @ (np.arange(1 << m) >> np.arange(m)[:, None] & 1)
    images = np.ascontiguousarray(lut[1:].T, dtype=np.uint8)
    samples = set()
    for k in range(1, 8):
        for codes in np.sort(rng.integers(1, 1 << m, size=(40, k)), axis=1).tolist():
            samples |= {tuple(codes), min(_ref_images(m, tuple(codes)))}  # mostly not canonical, and its least image
    for k in range(1, 8):
        tuples = sorted(x for x in samples if len(x) == k)
        x = np.array(tuples, dtype=np.uint8)
        alive, bounds = np.ones(len(x), dtype=bool), np.zeros((len(x), len(perms) - 1), dtype=np.uint8)
        for j in range(1, k + 1):
            beaten, bounds = rothlab.enumeration._child_bounds(x[:, :j], bounds, images)
            alive &= ~beaten
        expected = [_ref_is_canonical(m, codes) for codes in tuples]
        assert alive.tolist() == expected, (m, k)
        assert 0 < sum(expected) < len(tuples), (m, k)
        for codes, row in zip(tuples, bounds.tolist()):
            if _ref_is_canonical(m, codes):
                assert row == _ref_bounds(m, codes), (m, codes)


def test_every_prefix_of_an_emitted_tuple_is_canonical():
    # orderly generation only extends canonical prefixes, so it is complete only if these are all canonical
    for t, s in ((4, 6), (5, 4)):
        k = enumerate_connected_bipartite(t, s)
        if t > s:
            k = np.swapaxes(k, -1, -2)  # columns over the smaller part
        m = k.shape[1]
        codes = (k << np.arange(m)[:, None]).sum(axis=1)
        assert (np.diff(codes, axis=1) >= 0).all()
        disconnected = 0
        for tup in {tuple(row[:j]) for row in codes.tolist() for j in range(1, len(row) + 1)}:
            assert _ref_is_canonical(m, tup), (t, s, tup)
            rows = np.array(tup)[:, None] >> np.arange(m) & 1
            disconnected += not _component(rows.T @ rows).all()  # the columns are nonempty, so rows decide
        assert disconnected > 0, (t, s)


def test_enumeration_output_is_valid():
    for m in enumerate_connected_bipartite(3, 4):
        assert m.shape == (3, 4)
        assert set(np.unique(m)) <= {0, 1}
        assert (m.sum(axis=0) >= 1).all() and (m.sum(axis=1) >= 1).all()


def test_all_graphs_counts():
    expected = [1, 2, 4, 11, 34, 156, 1044, 12346]
    for n, cnt in zip(range(1, 9), expected):
        assert len(all_graphs(n)) == cnt


def test_twin_pruning_keeps_every_first_met_extension():
    # all_graphs keys only the extensions that no twin swap of the parent maps to an earlier one:
    # keying every extension and keying the kept ones must give the same classes, met first by the
    # same codes, so the labelled output is that of keying them all
    for n in range(2, 8):
        prev = all_graphs(n - 1).astype(bool)
        every = np.arange(len(prev) << (n - 1))
        kept = every[rothlab.enumeration._twin_kept(prev).ravel()]
        assert n < 3 or len(kept) < len(every), n
        firsts = []
        for codes in (every, kept):
            keys, first = np.unique(rothlab.enumeration._canonical_keys(rothlab.enumeration._extend(prev, codes)),
                                    return_index=True)
            firsts.append((keys.tolist(), codes[first].tolist()))
        assert firsts[0] == firsts[1], n
        assert rothlab.enumeration._first_met(prev).tolist() == firsts[0][1], n


@pytest.mark.skipif(not os.environ.get("ROTHLAB_LONG"), reason="set ROTHLAB_LONG=1 (about 15 s, 290 MB)")
def test_all_graphs_nine():
    # the known count (OEIS A000088); the digest, of the graph6 lines joined by
    # newlines, pins the labelled output and its order as the n <= 8 digests do
    gs = all_graphs(9)
    assert len(gs) == 274668
    digest = hashlib.sha256("\n".join(encode_graph6(gs)).encode()).hexdigest()
    assert digest == "01ced676852cfd8c9ed260a657f93b59d0baf4630cdf696df096f3a41054bda0"


def test_all_graphs_are_distinct_objects():
    gs = all_graphs(5)
    assert len({frozenset(_edges(a)) for a in gs}) == len(gs)
    assert gs.shape[1:] == (5, 5)


def test_all_trees_counts():
    expected = [1, 1, 1, 2, 3, 6, 11, 23, 47]
    for n, cnt in zip(range(1, 10), expected):
        assert len(all_trees(n)) == cnt


def test_trees_are_trees():
    from rothlab.graphs import is_connected

    for n in range(2, 9):
        for a in all_trees(n):
            assert len(_edges(a)) == n - 1
            assert is_connected(a)


def test_trees_subset_of_graphs():
    # each tree matches exactly one connected (n - 1)-edge graph, and no two trees match the
    # same one: the trees are a bijection onto those graphs, so they are pairwise non-isomorphic
    for n in range(1, 8):
        candidates = [nx.from_numpy_array(a) for a in all_graphs(n) if a.sum() == 2 * (n - 1)]
        candidates = [g for g in candidates if nx.is_connected(g)]
        matched = []
        for t in all_trees(n):
            tree = nx.from_numpy_array(t)
            hits = [i for i, g in enumerate(candidates) if nx.is_isomorphic(tree, g)]
            assert len(hits) == 1, (n, hits)
            matched += hits
        assert sorted(matched) == list(range(len(candidates))), n


def _edges(a) -> list:
    return [tuple(e) for e in np.argwhere(np.triu(a)).tolist()]


def _canon_small(a) -> tuple:
    best = None
    for p in itertools.permutations(range(len(a))):
        key = tuple(sorted(tuple(sorted((p[u], p[v]))) for (u, v) in _edges(a)))
        if best is None or key < best:
            best = key
    return best


def test_graph_enumeration_canonical_distinct():
    for n in range(1, 7):
        keys = {_canon_small(g) for g in all_graphs(n)}
        assert len(keys) == len(all_graphs(n))


def test_enumerators_keep_their_labelled_order():
    # the sweeps report counterexamples by graph6, so the labelling and the order are part of the output
    assert encode_graph6(all_graphs(4)) == ["C?", "CQ", "C]", "CC", "CU", "CE", "CF", "CT", "CV", "C^", "C~"]
    assert encode_graph6(all_trees(7)) == ["FqGOO", "FqHA?", "FqH@?", "FqHC?", "FqH?O", "FqI?G", "FqIC?",
                                           "FqH?_", "FsaC?", "FsaA?", "Fs`A?"]


def test_enumerated_stacks_are_read_only():
    # the stacks are cached: a write would reach every later caller
    for a in (all_graphs(5), all_trees(6)):
        assert a.dtype == np.int64
        with pytest.raises(ValueError):
            a[0, 0, 1] = 1


def test_enumeration_binds_no_graph():
    # the enumerators hold graphs as adjacency stacks throughout
    assert not any(value is Graph for value in vars(rothlab.enumeration).values())


def test_enumerated_stacks_match_their_pinned_digests():
    # sha256 of the graph6 lines joined by newlines, recorded from the per-code labeller
    # that the stacked canonical key replaced: the labelled output and its order are pinned
    pinned = {
        (all_graphs, 5): "313f5c6f37b5b243a4f6db065ca72b4b5c3656cd3a3880420f7759f4c84ba8d3",
        (all_graphs, 6): "02462efa1a05aa67541a345d4e097f51accf828de12ca43f6fdbfdf5ead44bff",
        (all_graphs, 7): "bb522a56ea143f2771b027ce9d8ecdfac6c1d083faa1801e3e45b224f5d1a6e2",
        (all_graphs, 8): "89d25a55c9fb9df05b2bf674d8066dfd3561b80a45defcc0825a1197f307de12",
        (all_trees, 8): "79937b253a5064b284ec16229d5aeaac3c8650a243e80f18b73b75cc7e8ede0d",
        (all_trees, 9): "175095c4c6c779422e3e746faca45015256de368809c6b3a6ccee93a487310be",
        (all_trees, 10): "9b75eab16858d31dd46aea27726ac4f225aabd56000d36823da549cafdbc20c5",
        (all_trees, 11): "bdf2d65bfab97048f12a3660e87c6e3368ec4899b381aafa3cb4e520ee9b021e",
        (all_trees, 12): "d490673239ac25d7813da63ba696ca403ce54767ae459a671eabd3731f13c24c",
    }
    for (enumerate_, n), digest in pinned.items():
        text = "\n".join(encode_graph6(enumerate_(n)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (enumerate_.__name__, n)


# reference labeller: colour refinement, then the least edge bitmask (bit a*n + b for the
# positions a < b of each edge) over the orders of each colour cell, one graph at a time


def _ref_refine_colors(n: int, adj) -> list:
    colors = [0] * n
    while True:
        key = [(colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(n)]
        order = {k: i for i, k in enumerate(sorted(set(key)))}
        new = [order[k] for k in key]
        if new == colors:
            return colors
        colors = new


def _ref_canon_code(n: int, edges, adj) -> int:
    colors = _ref_refine_colors(n, adj)
    cells = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    best = None
    for combo in itertools.product(*(itertools.permutations(cells[c]) for c in sorted(cells))):
        pos = [0] * n
        for i, v in enumerate(itertools.chain.from_iterable(combo)):
            pos[v] = i
        key = 0
        for (u, v) in edges:
            key |= 1 << (min(pos[u], pos[v]) * n + max(pos[u], pos[v]))
        if best is None or key < best:
            best = key
    return best


def _extensions(n: int) -> np.ndarray:
    """Every graph all_graphs(n - 1)[i] plus vertex n - 1 joined to the bits of sub, i major, sub ascending."""
    out = []
    for g in all_graphs(n - 1):
        for sub in range(1 << (n - 1)):
            a = np.zeros((n, n), dtype=bool)
            a[:n - 1, :n - 1] = g
            a[:n - 1, n - 1] = a[n - 1, :n - 1] = [sub >> i & 1 for i in range(n - 1)]
            out.append(a)
    return np.array(out)


def test_stacked_labeller_matches_the_reference():
    rng = np.random.default_rng(20140101)
    for n in range(2, 9):
        ext = _extensions(n)
        if n >= 7:
            ext = ext[np.sort(rng.choice(len(ext), 2000, replace=False))]
        colors = rothlab.enumeration._refine_colors(ext)
        keys = rothlab.enumeration._canonical_keys(ext).tolist()
        iu, ju = np.triu_indices(n, 1)
        for a, got_colors, got in zip(ext, colors.tolist(), keys):
            edges = _edges(a)
            adj = [np.flatnonzero(row).tolist() for row in a]
            assert got_colors == _ref_refine_colors(n, adj)
            # the stacked key puts pair rank k at bit k; the reference puts it at bit iu[k]*n + ju[k]
            as_ref = sum(1 << (int(iu[k]) * n + int(ju[k])) for k in range(len(iu)) if got >> k & 1)
            assert as_ref == _ref_canon_code(n, edges, adj)


def test_canonical_keys_at_the_top_orders():
    # at n = 10 and 11 a colour fills up to 4 bits of its slot in the packed cell-group key, and one
    # stack holds many cell groups; every graph leaves small cells (one cell at n = 11 has 11! orders)
    rng = np.random.default_rng(11)
    for n in (10, 11):
        path = [(v, v + 1) for v in range(n - 1)]
        base = [
            path,
            path[:-1] + [(1, n - 1)],  # two leaves on vertex 1
            path[:-1] + [(2, n - 1)],  # legs 1, 2 and n - 4 on vertex 2: asymmetric
            path + [(0, 2)],  # a triangle with a tail
        ]
        while len(base) < 24:  # random recursive trees, every other one with an extra edge
            edges = [(int(rng.integers(v)), v) for v in range(1, n)]
            u, v = sorted(rng.choice(n, 2, replace=False).tolist())
            if len(base) % 2 and (u, v) not in edges:
                edges.append((u, v))
            adj = [[w for e in edges if x in e for w in e if w != x] for x in range(n)]
            orders = np.prod([math.factorial(c) for c in Counter(_ref_refine_colors(n, adj)).values()])
            if orders <= 48:
                base.append(edges)
        stack = np.zeros((2 * len(base), n, n), dtype=bool)
        for i, edges in enumerate(base):
            u, v = np.array(edges).T
            stack[i, u, v] = stack[i, v, u] = True
            p = rng.permutation(n)
            stack[len(base) + i] = stack[i][np.ix_(p, p)]
        keys = rothlab.enumeration._canonical_keys(stack).tolist()
        assert keys[len(base):] == keys[:len(base)]
        graphs = [nx.from_edgelist(edges) for edges in base]
        for (i, g), (j, h) in itertools.combinations(enumerate(graphs), 2):
            assert (keys[i] == keys[j]) == nx.is_isomorphic(g, h)
        iu, ju = np.triu_indices(n, 1)
        for a, got in zip(stack, keys):
            adj = [np.flatnonzero(row).tolist() for row in a]
            as_ref = sum(1 << (int(iu[k]) * n + int(ju[k])) for k in range(len(iu)) if got >> k & 1)
            assert as_ref == _ref_canon_code(n, _edges(a), adj)


def test_canonical_keys_on_the_largest_frontiers():
    # graphs that colour refinement leaves as one cell: twin-free ones, whose key search keeps many partial
    # orders, and ones whose cell holds several twin classes that automorphisms swap; each under 5 relabellings
    k3, union = nx.complete_graph(3), nx.disjoint_union_all
    graphs = [nx.cycle_graph(n) for n in range(6, 12)] + [
        nx.circular_ladder_graph(3), union([k3] * 2),  # the prism C_3 x K_2, 2K_3
        nx.hypercube_graph(3), nx.complete_bipartite_graph(4, 4), union([nx.cycle_graph(4)] * 2),
        nx.cartesian_product(k3, k3), union([k3] * 3),
        nx.petersen_graph(), nx.circular_ladder_graph(5),
        nx.circulant_graph(10, [1, 5]), nx.circulant_graph(10, [1, 3]),
        nx.lexicographic_product(nx.cycle_graph(5), nx.empty_graph(2)), union([nx.complete_graph(2)] * 5),  # C_5[2K_1]
        nx.circulant_graph(11, [1, 2]), nx.circulant_graph(11, [1, 3]),
    ]
    rng = np.random.default_rng(2014)
    for n in sorted({len(g) for g in graphs}):
        base = [nx.to_numpy_array(g, nodelist=sorted(g), dtype=bool) for g in graphs if len(g) == n]
        perms = [rng.permutation(n) for _ in range(5 * len(base))]
        stack = np.array([base[k // 5][np.ix_(p, p)] for k, p in enumerate(perms)])
        keys = rothlab.enumeration._canonical_keys(stack).reshape(len(base), 5)
        assert (keys == keys[:, :1]).all(), n
        for i, j in itertools.combinations(range(len(base)), 2):
            assert (keys[i, 0] == keys[j, 0]) == nx.is_isomorphic(nx.from_numpy_array(base[i]),
                                                                  nx.from_numpy_array(base[j])), (n, i, j)
        iu, ju = np.triu_indices(n, 1)
        for a, got in zip(stack[::5], keys[:, 0].tolist()):
            adj = [np.flatnonzero(row).tolist() for row in a]
            if np.prod([math.factorial(c) for c in Counter(_ref_refine_colors(n, adj)).values()]) <= math.factorial(8):
                as_ref = sum(1 << (int(iu[k]) * n + int(ju[k])) for k in range(len(iu)) if got >> k & 1)
                assert as_ref == _ref_canon_code(n, _edges(a), adj), n


def test_all_graphs_refuses_orders_whose_keys_overflow(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("all_graphs enumerated before refusing the order")

    monkeypatch.setattr(rothlab.enumeration, "_extend", no_enumeration)
    for n in (12, 13, 40):
        with pytest.raises(ValueError, match="overflow"):
            all_graphs(n)
    for enumerate_order in (all_graphs, all_trees):
        with pytest.raises(ValueError, match="n >= 1"):
            enumerate_order(0)
