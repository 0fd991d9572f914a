"""Tools of the paper's proofs and of the acceptance criteria that no program path of rothlab runs.

build_q_mu assembles the bare Schur complement Q_mu with rothlab.analysis._q_mu,
which reads it off the blocks of Q(H) as the package does for its Q_mu
classes, so a test of it pins the package.  harmonic_witness gives the exact
harmonic sum of a Decisions witness pair.  build_r_mu forms the reduced
matrix R_mu = Q(G) + (s - mu) I of a complete scaffold, whose inverse row
sums decide S-Rothness there.  bai_golub_trace_bounds, cycle_block_bounds and
path_block_rowsums bound the inverses of the cycle and path blocks that the
proofs invert: Q(C_k) + lambda*I and its rank-one path modifications, where
lambda adds to the diagonal so everything is well conditioned and direct
inverses are accurate at these orders.  complete_bipartite, join and
complement build adjacency arrays, as the named constructors of
rothlab.graphs do.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from rothlab.analysis import INV_POS_TOL, _q_mu, is_complete_scaffold
from rothlab.graphs import CompositeInstance, block_adjacency, complete_graph, cycle_graph, empty_graph
from rothlab.spectra import full_spectrum, signless_laplacian


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


# the reduced matrix R_mu (complete scaffolds)


@dataclass(eq=False)
class ReducedMatrix:
    r_mu: np.ndarray  # Q(G) + (s-mu)I, complete scaffolds only
    positive_definite: bool
    rowsums: np.ndarray | None  # row sums of r_mu^{-1}, when PD
    s_roth: bool | None  # every row sum positive, when PD
    gamma: float | None  # sum of rowsums: all entries of r_mu^{-1}, when PD
    gamma_expected: float  # (t - mu)/s; equality is forced by the eigenvector equation


def build_r_mu(inst: CompositeInstance, mu: float) -> ReducedMatrix:
    """R_mu = Q(G) + (s - mu) I and the row sums of its inverse.  Singularity is recorded, not raised.

    When R_mu is positive definite, H is S-Roth iff every row sum of R_mu^{-1}
    is positive; s_roth is None otherwise.  gamma_expected = (t-mu)/s is the
    value of gamma implied by the S-block of the eigenvector equation (all
    S-entries equal, so summing the z formula over S pins gamma).
    """
    if not is_complete_scaffold(inst):
        raise ValueError("R_mu is defined for complete scaffolds only")
    r = inst.A + np.diag(inst.A.sum(axis=1) + (inst.s - mu))
    values = full_spectrum(r).values
    scale = 1.0 + np.abs(r).max(initial=0.0)
    pd = bool(values[0] > 1e-9 * scale)
    rowsums = s_roth = gamma = None
    if pd:
        rowsums = np.linalg.inv(r).sum(axis=1)
        # a row sum at floating-point zero means a zero eigenvector entry
        s_roth = bool(rowsums.min() > INV_POS_TOL * max(1.0, float(np.abs(rowsums).max())))
        gamma = float(rowsums.sum())
    return ReducedMatrix(r_mu=r, positive_definite=pd, rowsums=rowsums, s_roth=s_roth, gamma=gamma,
                         gamma_expected=(inst.t - mu) / inst.s)


# inverse bounds: trace brackets, cycle and path blocks


def bai_golub_trace_bounds(a_mat: np.ndarray, a: float, b: float) -> tuple:
    """Two-sided bracket on Tr(A^{-1}) from Tr(A), the Frobenius norm and [a, b].

    For symmetric positive definite A with spectrum inside [a, b], a > 0:

        [m1 n] [[m2, m1], [c^2, c]]^{-1} [n 1]^T

    evaluated at c = b gives a lower bound and at c = a an upper bound,
    with m1 = Tr(A) and m2 = ||A||_F^2.
    """
    a_mat = np.asarray(a_mat, dtype=float)
    n = a_mat.shape[0]
    if a <= 0:
        raise ValueError("need a > 0")
    values = np.linalg.eigvalsh(a_mat)
    tol = 1e-9 * (1.0 + abs(values[-1]))
    if values[0] < a - tol or values[-1] > b + tol:
        raise ValueError(
            f"eigenvalue bracket violated: spectrum in [{values[0]:g}, {values[-1]:g}], given [{a}, {b}]"
        )
    m1 = float(np.trace(a_mat))
    m2 = float((a_mat * a_mat).sum())

    def quad(c: float) -> float:
        sol = np.linalg.solve(np.array([[m2, m1], [c * c, c]]), np.array([n, 1.0]))
        return float(np.array([m1, n]) @ sol)

    return quad(b), quad(a)


@dataclass
class InverseBoundReport:
    k: int
    lam: float
    trace_lower: float
    trace_upper: float
    diag_bound: float  # bound on the common diagonal of the circulant inverse
    offdiag_ratio: float  # bound on |a~_ij| / a~_ii
    observed_trace: float
    observed_diag: float
    observed_offdiag_ratio: float


def cycle_block_bounds(k: int, lam: float) -> InverseBoundReport:
    """Bounds vs. observed values for (Q(C_k) + lambda I)^{-1}.

    The inverse is circulant, so its diagonal entries all equal Tr/k; the
    diagonal is at most (lambda+1)/(lambda(lambda+3)) and off-diagonal entries
    are at most 1/(lambda+1) of the diagonal.
    """
    if lam <= 0:
        raise ValueError("need lambda > 0")
    if k < 3:
        raise ValueError("need k >= 3")
    a = signless_laplacian(cycle_graph(k)) + lam * np.eye(k)
    inv = np.linalg.inv(a)
    # spectrum of Q(C_k) lies in [0, 4], so [lam, lam+4] brackets A
    lower, upper = bai_golub_trace_bounds(a, lam, lam + 4.0)
    d = float(np.diag(inv).mean())
    off = inv[~np.eye(k, dtype=bool)]
    return InverseBoundReport(
        k=k,
        lam=lam,
        trace_lower=lower,
        trace_upper=upper,
        diag_bound=(lam + 1.0) / (lam * (lam + 3.0)),
        offdiag_ratio=1.0 / (lam + 1.0),
        observed_trace=float(np.trace(inv)),
        observed_diag=d,
        observed_offdiag_ratio=float(np.abs(off).max() / d),
    )


def path_block_rowsums(k: int, s: int, mu: float) -> np.ndarray:
    """Row sums of B^{-1}, B = Q(C_k) + (s-mu)I - (e_1+e_k)(e_1+e_k)^T = Q(P_k) + (s-mu)I.

    Computed through the rank-one update of the circulant inverse: with
    A~ = (Q(C_k)+lambda I)^{-1}, d its common diagonal and a~_1k its corner,

        r_i = beta (1 + 2(d + a~_1k)/(1 - 2(d + a~_1k)))        for i in {1, k}
        r_i = beta (1 + 2(a~_i1 + a~_ik)/(1 - 2(d + a~_1k)))    otherwise

    where beta = 1/(4 + lambda) is the common row sum of A~.  The same row
    sums are recomputed by direct inversion; a disagreement above 1e-10 raises.
    """
    lam = s - mu
    if lam <= 0:
        raise ValueError("need s - mu > 0")
    if k < 3:
        raise ValueError("need k >= 3")
    a = signless_laplacian(cycle_graph(k)) + lam * np.eye(k)
    atil = np.linalg.inv(a)
    d = float(np.diag(atil).mean())
    a1k = float(atil[0, k - 1])
    den = 1.0 - 2.0 * (d + a1k)
    if abs(den) < 1e-13:
        raise ValueError("Sherman-Morrison denominator vanishes")
    beta = 1.0 / (4.0 + lam)
    rows = beta * (1.0 + 2.0 * (atil[:, 0] + atil[:, k - 1]) / den)
    rows[0] = rows[k - 1] = beta * (1.0 + 2.0 * (d + a1k) / den)

    e = np.zeros(k)
    e[0] = e[k - 1] = 1.0
    direct = np.linalg.solve(a - np.outer(e, e), np.ones(k))
    if np.abs(rows - direct).max() > 1e-10:
        raise RuntimeError("Sherman-Morrison row sums disagree with direct inversion")
    return rows


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
