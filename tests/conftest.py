"""Shared fixtures: the four worked examples (s=7, t=4, G=K4), the t=6/s=4
join example with the exact integer eigenvalue, and random-instance helpers."""

import numpy as np
import pytest

from paper_tools import complete_bipartite
from rothlab.graphs import block_adjacency, complete_graph, compose, is_connected

# worked example 1: harmonic condition met with equality
EX1_K = np.array([
    [1, 1, 1, 1, 0, 0, 0],
    [1, 1, 1, 1, 0, 0, 0],
    [1, 1, 1, 1, 0, 0, 0],
    [1, 1, 1, 1, 1, 1, 1],
])
EX1_MU = 0.63226
EX1_QMU = np.array([
    [5.8123, -0.18774, -0.18774, -0.18774],
    [-0.18774, 5.8123, -0.18774, -0.18774],
    [-0.18774, -0.18774, 5.8123, -0.18774],
    [-0.18774, -0.18774, -0.18774, 0.65427],
])
EX1_X = np.array([0.008, 0.008, 0.008, 0.2057,
                  -0.0682, -0.0682, -0.0682, -0.0682,
                  -0.5594, -0.5594, -0.5594])

# worked example 2: M-matrix, harmonic condition fails at the pair (0,1)
EX2_K = np.array([
    [1, 1, 1, 1, 1, 0, 0],
    [1, 1, 1, 0, 0, 1, 1],
    [1, 1, 0, 1, 1, 1, 0],
    [1, 1, 1, 1, 0, 1, 0],
])
EX2_MU = 0.82028
EX2_QMU = np.array([
    [5.6058, -0.08776, -0.93542, -0.54653],
    [-0.08776, 0.88934, -0.08776, -0.54653],
    [-0.93542, -0.08776, 5.6058, -0.54653],
    [-0.54653, -0.54653, -0.54653, 5.9947],
])

# worked example 3: not a Z-matrix, inverse entrywise positive
EX3_K = np.array([
    [1, 1, 1, 0, 0, 0, 0],
    [1, 0, 0, 1, 1, 0, 0],
    [1, 0, 0, 0, 0, 1, 1],
    [1, 1, 1, 1, 1, 1, 1],
])
EX3_MU = 1.0922
EX3_QMU = np.array([
    [3.453, 0.6561, 0.6561, -1.547],
    [0.6561, 3.453, 0.6561, -1.547],
    [0.6561, 0.6561, 3.453, -1.547],
    [-1.547, -1.547, -1.547, 3.0468],
])
EX3_QMU_INV = np.array([
    [0.37674, 0.019201, 0.019201, 0.21078],
    [0.019201, 0.37674, 0.019201, 0.21078],
    [0.019201, 0.019201, 0.37674, 0.21078],
    [0.21078, 0.21078, 0.21078, 0.64927],
])

# worked example 4: inverse not positive, yet w > 0
EX4_K = np.array([
    [1, 1, 0, 0, 0, 0, 0],
    [0, 0, 1, 1, 0, 0, 0],
    [1, 0, 1, 0, 1, 0, 0],
    [1, 1, 1, 1, 1, 1, 1],
])
EX4_MU = 0.67234
EX4_QMU = np.array([
    [3.8172, 1.0, 0.57038, -0.18282],
    [1.0, 3.8172, 0.57038, -0.18282],
    [0.57038, 0.57038, 4.3876, -0.61244],
    [-0.18282, -0.18282, -0.61244, 0.77727],
])
EX4_W = np.array([0.0047565, 0.0047565, 0.033593, 0.21264])

# boundary example: t=6, s=4, G=K_{4,2}; mu = t-s = 2 exactly, eigenvector
# zero on the 2-side of G
EX88_QMU = np.array([
    [5, -1, -1, -1, 0, 0],
    [-1, 5, -1, -1, 0, 0],
    [-1, -1, 5, -1, 0, 0],
    [-1, -1, -1, 5, 0, 0],
    [0, 0, 0, 0, 7, -1],
    [0, 0, 0, 0, -1, 7],
])
EX88_X = np.array([1, 1, 1, 1, 0, 0, -1, -1, -1, -1], dtype=float)


def example_instance(k):
    return compose(7, complete_graph(4), k)


@pytest.fixture(scope="session")
def ex1():
    return example_instance(EX1_K)


@pytest.fixture(scope="session")
def ex2():
    return example_instance(EX2_K)


@pytest.fixture(scope="session")
def ex3():
    return example_instance(EX3_K)


@pytest.fixture(scope="session")
def ex4():
    return example_instance(EX4_K)


@pytest.fixture(scope="session")
def ex88():
    return compose(4, complete_bipartite(4, 2))


def adjacency(n, edges=()):
    """int64 adjacency matrix of the simple graph on 0..n-1 with the given (u, v) edges."""
    a = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        a[u, v] = a[v, u] = 1
    return a


def edge_list_text(a):
    """Edge-list text of adjacency matrix a: one "u v" line per edge, u < v, in sorted order."""
    return "".join(f"{u} {v}\n" for u, v in np.argwhere(np.triu(a)).tolist())


def random_connected_graph(rng, n, p=0.4):
    """Erdos-Renyi conditioned on connectivity (resampled), n >= 1."""
    while True:
        edges = frozenset(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        )
        g = adjacency(n, edges)
        if is_connected(g):
            return g


def random_scaffold(rng, t, s):
    """Random t x s 0/1 matrix with no zero column and connected union, resampled."""
    while True:
        k = (rng.random((t, s)) < 0.5).astype(np.int64)
        if (k.sum(axis=0) == 0).any():
            continue
        if is_connected(block_adjacency(0, k)):
            return k


def random_instance(rng, smin=3, smax=9, tmin=3, tmax=9, g_edge_p=0.5):
    """Random composite instance; G may be empty or disconnected."""
    t = int(rng.integers(tmin, tmax + 1))
    s = int(rng.integers(smin, smax + 1))
    k = random_scaffold(rng, t, s)
    edges = frozenset(
        (u, v) for u in range(t) for v in range(u + 1, t) if rng.random() < g_edge_p
    )
    return compose(s, adjacency(t, edges), k)
