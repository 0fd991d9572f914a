"""Signless and ordinary Laplacians, dense symmetric eigendecomposition, exact kernels.

Tolerance conventions used package-wide:

    EIG_TOL      relative residual allowed for the dense eigensolver
    CLUSTER_TOL  relative gap below which eigenvalues count as one cluster
    SIGN_TOL     relative threshold below which an eigenvector entry is "zero"
    INTEGER_TOL  distance to the nearest integer at which an eigenvalue becomes
                 a candidate for exact rational confirmation

Borderline integer eigenvalues (the mu = t-s cases) are never decided in
floating point alone: exact_kernel_dim settles them over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph

EIG_TOL = 1e-10
CLUSTER_TOL = 1e-7
SIGN_TOL = 1e-7
INTEGER_TOL = 1e-7


class EigensolverError(RuntimeError):
    """Raised when the dense eigensolver fails its residual or orthogonality contract."""


def signless_laplacian(g: Graph) -> np.ndarray:
    """Q(G) = D(G) + A(G)."""
    q = g.adjacency()
    q[np.diag_indices(g.n)] = g.degrees()
    return q


def laplacian(g: Graph) -> np.ndarray:
    """L(G) = D(G) - A(G)."""
    m = -g.adjacency()
    m[np.diag_indices(g.n)] = g.degrees()
    return m


@dataclass(frozen=True, eq=False)
class EigenSystem:
    values: np.ndarray  # nondecreasing
    vectors: np.ndarray  # orthonormal columns aligned with values
    residual_bound: float


@dataclass(frozen=True, eq=False)
class SmallestEigenpair:
    mu: float
    vector: np.ndarray  # unit norm
    multiplicity: int  # eigenvalues within CLUSTER_TOL*(1+|mu|) of mu
    w: np.ndarray | None = None  # restriction to T, when a t-split is given
    z: np.ndarray | None = None  # restriction to S


def _check_symmetric(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    scale = 1.0 + np.abs(m).max(initial=0.0)
    if np.abs(m - m.T).max(initial=0.0) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    return (m + m.T) / 2.0


def full_spectrum(m: np.ndarray) -> EigenSystem:
    """All eigenpairs of a dense symmetric matrix, sorted ascending.

    The residual and orthogonality contracts are verified after the solve and
    an EigensolverError is raised on violation rather than silently returning
    a bad decomposition.
    """
    m = _check_symmetric(m)
    values, vectors = np.linalg.eigh(m)
    residual = np.abs(m @ vectors - vectors * values).max(initial=0.0)
    norm_inf = np.abs(m).sum(axis=1).max(initial=0.0)
    if residual > EIG_TOL * (1.0 + norm_inf):
        raise EigensolverError(f"residual {residual:g} exceeds {EIG_TOL:g}*(1+|A|)")
    ortho = np.abs(vectors.T @ vectors - np.eye(m.shape[0])).max(initial=0.0)
    if ortho > EIG_TOL * (1.0 + m.shape[0]):
        raise EigensolverError(f"eigenvectors lost orthonormality ({ortho:g})")
    return EigenSystem(values=values, vectors=vectors, residual_bound=float(residual))


def cluster_multiplicity(values: np.ndarray, mu: float) -> int:
    return int(np.count_nonzero(values <= mu + CLUSTER_TOL * (1.0 + abs(mu))))


def smallest_eigenpair(m: np.ndarray, t_split: int | None = None) -> SmallestEigenpair:
    """(mu, eigenvector, numerical multiplicity) of the smallest eigenvalue.

    t_split, when given, is the size of the T-block of a composite Q(H); the
    returned pair then carries the restrictions w = x(T) and z = x(S).
    """
    es = full_spectrum(m)
    mu = float(es.values[0])
    x = es.vectors[:, 0]
    w = z = None
    if t_split is not None:
        w, z = x[:t_split].copy(), x[t_split:].copy()
    return SmallestEigenpair(
        mu=mu,
        vector=x,
        multiplicity=cluster_multiplicity(es.values, mu),
        w=w,
        z=z,
    )


def sign_normalize(x: np.ndarray, t_split: int) -> np.ndarray:
    """Flip the vector so the sum of its S-entries (index >= t_split) is >= 0."""
    return -x if x[t_split:].sum() < 0 else x.copy()


def integer_candidate(mu: float) -> int | None:
    """Nearest integer when mu sits within INTEGER_TOL of one, else None."""
    c = round(mu)
    return c if abs(mu - c) <= INTEGER_TOL else None


def _gauss_jordan(a: list) -> list:
    """Exact Gauss-Jordan over Fraction: a becomes its reduced row echelon form, in place.

    Returns the pivot positions [(row, col)] in column order.
    """
    n = len(a)
    pivots = []
    row = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((r for r in range(row, n) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = 1 / a[row][col]
        a[row] = [v * inv for v in a[row]]
        for r in range(n):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append((row, col))
        row += 1
        if row == n:
            break
    return pivots


def exact_kernel_dim(m: np.ndarray, c: int) -> tuple:
    """Nullity and a rational kernel basis of (m - c*I), for integer matrices.

    Gaussian elimination over Fraction: no floating point is involved, so the
    answer is exact.  Returns (nullity, basis) where basis is a list of kernel
    vectors with Fraction entries (free variable set to 1, the rest solved).
    """
    m = np.asarray(m)
    if not np.all(m == np.round(m)):
        raise ValueError("exact_kernel_dim needs an integer matrix")
    n = m.shape[0]
    a = [[Fraction(int(round(m[i, j]))) - (Fraction(c) if i == j else 0) for j in range(n)] for i in range(n)]
    pivots = _gauss_jordan(a)
    pivot_cols = {c_ for (_, c_) in pivots}
    free_cols = [j for j in range(n) if j not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for (r, pc) in pivots:
            v[pc] = -a[r][fc]
        basis.append(v)
    return len(free_cols), basis


def exact_inverse(m: list) -> list | None:
    """Inverse of a square matrix given as rows of Fractions; None when singular."""
    n = len(m)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    # [m | I] has rank n, so m is invertible iff no pivot lands in the I block
    return None if _gauss_jordan(a)[-1][1] >= n else [row[n:] for row in a]


def rayleigh_quotient_signless(g: Graph, x) -> float:
    """Sum over edges of (x_i + x_j)^2, divided by x.x; always >= mu(Q(g))."""
    x = np.asarray(x, dtype=float)
    nrm2 = float(x @ x)
    if nrm2 == 0.0:
        raise ValueError("zero vector")
    acc = 0.0
    for (u, v) in g.edges:
        acc += (x[u] + x[v]) ** 2
    return acc / nrm2


def mu_upper_bound_cut(inst) -> float:
    """4e/(s+t) with e = |E(G)|: the Rayleigh quotient of the +-1 cut vector."""
    return 4.0 * len(inst.G.edges) / (inst.s + inst.t)


def mu_lower_bound_degrees(g: Graph) -> float:
    """2*delta(G) - lambda_max(L(G)), a lower bound on mu(Q(G))."""
    if g.n == 0:
        raise ValueError("empty graph")
    lam_max = float(full_spectrum(laplacian(g)).values[-1])
    return 2.0 * min(g.degrees()) - lam_max
