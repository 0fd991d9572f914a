"""Tools of the paper's proofs and of the acceptance criteria that no program path of rothlab runs.

build_q_mu assembles the bare Schur complement Q_mu with rothlab.analysis._q_mu,
which reads it off the blocks of Q(H) as the package does for its Q_mu
classes, so a test of it pins the package.  harmonic_witness gives the exact
harmonic sum of a Decisions witness pair.  complete_bipartite, join and
complement build adjacency arrays, as the named constructors of
rothlab.graphs do.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from rothlab.analysis import _q_mu
from rothlab.graphs import CompositeInstance, block_adjacency, complete_graph, empty_graph
from rothlab.spectra import signless_laplacian


def build_q_mu(inst: CompositeInstance, mu: float) -> np.ndarray:
    """Schur complement Q_mu = Q(G) + D1 + K (mu I - D2)^{-1} K^T of order t.

    Read off Q(H) = signless_laplacian(block_adjacency(A_G, K)) =
    [[Q(G) + D1, K], [K^T, D2]], as decide_stack reads it off the Q(H) its
    eigensolve used.  Requires mu < min(D2) so the middle factor is negative
    definite; the off-diagonal (i,j) entry works out to [i ~G j] - sum over
    N_ij of 1/(d_B(k) - mu).  Its classes at the verdict's mu are the class
    fields of decide_instance(inst).
    """
    d2_min = inst.K.sum(axis=0).min()
    if mu >= d2_min:
        raise ValueError(f"mu={mu} is not below the smallest S-degree {d2_min}")
    return _q_mu(signless_laplacian(block_adjacency(inst.A, inst.K)), inst.t, mu)


def harmonic_witness(k, witness) -> tuple | None:
    """A Decisions witness pair (i, j) of T-vertices, as Python ints, and its exact harmonic sum in the scaffold k.

    The sum over N_ij of 1/d_B(k) is a Fraction (0 for an empty N_ij).  None
    for the pair (-1, -1): the harmonic condition holds.
    """
    i, j = map(int, witness)
    if i < 0:
        return None
    degrees = k.sum(axis=0)[(k[i] != 0) & (k[j] != 0)]
    return (i, j), sum((Fraction(1, int(d)) for d in degrees), Fraction(0))


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
