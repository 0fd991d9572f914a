"""Bipartite scaffold enumeration, small-graph and tree generators."""

import itertools

import numpy as np
import pytest

import rothlab.enumeration
from rothlab.enumeration import (
    all_graphs,
    all_trees,
    enumerate_connected_bipartite,
)
from rothlab.graphs import Graph, encode_graph6


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
    # explicit override allows oversized shapes; a thin one stays cheap
    mats = list(enumerate_connected_bipartite(41, 1, allow_long=True))
    assert len(mats) == 1 and mats[0].shape == (41, 1)


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


def test_enumeration_output_is_valid():
    for m in enumerate_connected_bipartite(3, 4):
        assert m.shape == (3, 4)
        assert set(np.unique(m)) <= {0, 1}
        assert (m.sum(axis=0) >= 1).all() and (m.sum(axis=1) >= 1).all()


def test_all_graphs_counts():
    expected = [1, 2, 4, 11, 34, 156, 1044]
    for n, cnt in zip(range(1, 8), expected):
        assert len(all_graphs(n)) == cnt


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
    for n in range(1, 8):
        keys = {frozenset(_edges(a)) for a in all_graphs(n)}
        seen = set()
        for t in all_trees(n):
            # not necessarily the same labeling; count by brute canonical form
            seen.add(_canon_small(t))
        assert len(seen) == len(all_trees(n))


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
    # inside the enumerators a graph is a bit code, outside an adjacency stack
    assert not any(value is Graph for value in vars(rothlab.enumeration).values())
