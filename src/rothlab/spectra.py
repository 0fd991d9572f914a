"""Signless Laplacians, dense symmetric eigendecomposition, exact kernels, bounds on mu.

Tolerance conventions used package-wide:

    EIG_TOL      relative residual allowed for the dense eigensolver
    CLUSTER_TOL  relative gap below which eigenvalues count as one cluster
    SIGN_TOL     relative threshold below which an eigenvector entry is "zero"
    INTEGER_TOL  distance to the nearest integer at which an eigenvalue becomes
                 a candidate for exact rational confirmation

Borderline integer eigenvalues (the mu = t-s cases) are never decided in
floating point alone: exact_kernel_dim settles them over the rationals, by
fraction-free elimination on Python ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

EIG_TOL = 1e-10
CLUSTER_TOL = 1e-7
SIGN_TOL = 1e-7
INTEGER_TOL = 1e-7


class EigensolverError(RuntimeError):
    """Raised when the dense eigensolver fails its residual or orthogonality contract."""


def signless_laplacian(a) -> np.ndarray:
    """Q = D + A of a symmetric 0/1 adjacency matrix a, D its diagonal of degrees; each of a stack (..., n, n)."""
    q = np.array(a, dtype=float)
    i = np.arange(q.shape[-1])
    q[..., i, i] += q.sum(axis=-1)
    return q


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


def _check_symmetric(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("expected a square matrix or a stack of them")
    mt = np.swapaxes(m, -1, -2)
    scale = 1.0 + np.abs(m).max(axis=(-2, -1), initial=0.0)
    if np.any(np.abs(m - mt).max(axis=(-2, -1), initial=0.0) > 1e-12 * scale):
        raise ValueError("matrix is not symmetric")
    return (m + mt) / 2.0


def full_spectrum(m: np.ndarray) -> EigenSystem:
    """All eigenpairs of a dense symmetric matrix, sorted ascending.

    m may be a stack (..., n, n); values and vectors then carry the same
    leading axes, one eigensolve per matrix.  The residual and orthogonality
    contracts are verified for every matrix after the solve and an
    EigensolverError is raised on a violation rather than silently returning
    a bad decomposition.  residual_bound is the largest residual of the stack.
    """
    m = _check_symmetric(m)
    n = m.shape[-1]
    values, vectors = np.linalg.eigh(m)
    residual = np.abs(m @ vectors - vectors * values[..., None, :]).max(axis=(-2, -1), initial=0.0)
    norm_inf = np.abs(m).sum(axis=-1).max(axis=-1, initial=0.0)
    if np.any(residual > EIG_TOL * (1.0 + norm_inf)):
        raise EigensolverError(f"residual {residual.max():g} exceeds {EIG_TOL:g}*(1+|A|)")
    ortho = np.abs(np.swapaxes(vectors, -1, -2) @ vectors - np.eye(n)).max(initial=0.0)
    if ortho > EIG_TOL * (1.0 + n):
        raise EigensolverError(f"eigenvectors lost orthonormality ({ortho:g})")
    return EigenSystem(values=values, vectors=vectors, residual_bound=float(residual.max(initial=0.0)))


def smallest_eigenpair(m: np.ndarray) -> SmallestEigenpair:
    """(mu, eigenvector, numerical multiplicity) of the smallest eigenvalue.

    For a stack (..., n, n), mu and multiplicity are arrays over the leading
    axes and the vectors gain them too.
    """
    es = full_spectrum(m)
    mu = es.values[..., 0]
    multiplicity = np.count_nonzero(es.values <= (mu + CLUSTER_TOL * (1.0 + np.abs(mu)))[..., None], axis=-1)
    if mu.ndim == 0:
        mu, multiplicity = float(mu), int(multiplicity)
    return SmallestEigenpair(mu=mu, vector=es.vectors[..., :, 0], multiplicity=multiplicity)


def sign_normalize(x: np.ndarray, t_split: int) -> np.ndarray:
    """Flip the vector so the sum of its S-entries (index >= t_split) is >= 0; each row of a stack."""
    return np.where((x[..., t_split:].sum(axis=-1) < 0)[..., None], -x, x)


def integer_candidate(mu: float) -> int | None:
    """Nearest integer when mu sits within INTEGER_TOL of one, else None."""
    c = round(mu)
    return c if abs(mu - c) <= INTEGER_TOL else None


def _gauss_jordan(a: list) -> tuple:
    """Fraction-free Gauss-Jordan (Bareiss 1968) on rows of ints or Fractions, in place.

    Each row is first scaled to integers; scaling a row leaves the reduced row
    echelon form unchanged.  Every update (p*x - f*y) // prev divides exactly
    (Sylvester's identity), so the entries stay integers: minors of the
    scaled input.  On return every pivot entry equals d, and a / d is the
    reduced row echelon form.  Returns (pivot positions [(row, col)] in column
    order, d).
    """
    for r, row in enumerate(a):
        den = math.lcm(*(v.denominator for v in row))
        a[r] = [int(v * den) for v in row]
    n = len(a)
    pivots = []
    prev = 1
    row = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((r for r in range(row, n) if a[r][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        top = a[row]
        p = top[col]
        for r in range(n):
            f = a[r][col]
            if r != row and (f or p != prev):
                a[r] = [(p * x - f * y) // prev for x, y in zip(a[r], top)]
        prev = p
        pivots.append((row, col))
        row += 1
        if row == n:
            break
    return pivots, prev


def exact_kernel_dim(m: np.ndarray, c: int) -> tuple:
    """Nullity and a rational kernel basis of (m - c*I), for integer matrices.

    Fraction-free elimination over the integers: no floating point is
    involved, so the answer is exact.  Returns (nullity, basis) where basis is
    a list of kernel vectors with Fraction entries (free variable set to 1,
    the rest solved).
    """
    m = np.asarray(m)
    if not np.all(m == np.round(m)):
        raise ValueError("exact_kernel_dim needs an integer matrix")
    n = m.shape[0]
    a = (np.rint(m).astype(np.int64) - int(c) * np.eye(n, dtype=np.int64)).tolist()
    pivots, d = _gauss_jordan(a)
    pivot_cols = {c_ for (_, c_) in pivots}
    free_cols = [j for j in range(n) if j not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for (r, pc) in pivots:
            v[pc] = Fraction(-a[r][fc], d)
        basis.append(v)
    return len(free_cols), basis


def exact_inverse(m: list) -> list | None:
    """Inverse of a square matrix given as rows of ints or Fractions; None when singular."""
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    # [m | I] has rank n, so m is invertible iff no pivot lands in the I block
    pivots, d = _gauss_jordan(a)
    return None if pivots[-1][1] >= n else [[Fraction(v, d) for v in row[n:]] for row in a]


def mu_upper_bound_cut(inst) -> float:
    """4e/(s+t) with e = |E(G)|: the Rayleigh quotient of the +-1 cut vector."""
    return 2.0 * int(inst.A.sum()) / (inst.s + inst.t)


def mu_lower_bound_degrees(a) -> float:
    """2*delta - lambda_max(L) of adjacency matrix a, L = D - A its Laplacian: a lower bound on mu(Q)."""
    a = np.asarray(a, dtype=float)
    ell = np.diag(a.sum(axis=1)) - a
    if len(ell) == 0:
        raise ValueError("empty graph")
    return 2.0 * float(ell.diagonal().min()) - float(np.linalg.eigvalsh(ell)[-1])
