"""Inverse-matrix bounds: trace brackets, cycle and path blocks.

The matrices here are Q(C_k) + lambda*I and their rank-one path modifications;
lambda adds to the diagonal so everything is well conditioned and direct
inverses are accurate at these orders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import cycle_graph
from .spectra import signless_laplacian


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
