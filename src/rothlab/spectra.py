"""Signless Laplacians, dense symmetric eigendecomposition, exact kernels, bounds on mu.

Tolerance conventions used package-wide:

    EIG_TOL      the one eigensolve tolerance: full_spectrum's relative residual,
                 against the matrix as given, and loss of orthogonality
    CLUSTER_TOL  relative gap below which eigenvalues count as one cluster
    SIGN_TOL     relative threshold below which an eigenvector entry is "zero"
    INTEGER_TOL  distance to the nearest integer at which an eigenvalue becomes
                 a candidate for exact rational confirmation

Borderline integer eigenvalues (the mu = t-s cases) are never decided in
floating point alone: exact_kernel_dim settles them over the rationals.  Its
engine, _rational_kernel, eliminates modulo 31-bit primes, lifts by rational
reconstruction and checks the result over the integers; has_positive_inverse
proves inverse signs by a residual bound and leaves the rest to that engine.
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


def full_spectrum(m: np.ndarray) -> EigenSystem:
    """All eigenpairs of a dense symmetric matrix, sorted ascending.

    m may be a stack (..., n, n); values and vectors then carry the same leading axes, one
    eigensolve per matrix.  The solver reads the lower triangle; the residual m V - V diag(values)
    and V^T V - I are measured against each matrix as given and fail closed, on a NaN or an
    infinity too.  A failing stack raises ValueError if a matrix differs from its transpose and
    EigensolverError otherwise.  residual_bound is the largest residual of the stack.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("expected a square matrix or a stack of them")
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError:  # LAPACK stops on some NaN or infinity; the contract below fails on NaN
        values, vectors = np.full(m.shape[:-1], np.nan), np.full(m.shape, np.nan)
    with np.errstate(all="ignore"):  # a NaN or an infinity fails the comparisons below
        # both measures in one buffer: a census decides block after block, and fresh temporaries of a
        # few hundred kB each would be mapped and faulted in again for every block
        r = m @ vectors
        r -= vectors * values[..., None, :]
        residual = np.abs(r, out=r).max(axis=(-2, -1), initial=0.0)
        norm_inf = np.abs(m).sum(axis=-1).max(axis=-1, initial=0.0)
        np.matmul(np.swapaxes(vectors, -1, -2), vectors, out=r)
        r -= np.eye(m.shape[-1])
        ortho = np.abs(r, out=r).max(initial=0.0)
    fits = np.all(residual <= EIG_TOL * (1.0 + norm_inf))
    if not (fits and ortho <= EIG_TOL * (1.0 + m.shape[-1])):
        if not np.array_equal(m, np.swapaxes(m, -1, -2), equal_nan=True):
            raise ValueError("matrix is not symmetric")
        if not fits:
            raise EigensolverError(f"residual {residual.max():g} exceeds {EIG_TOL:g}*(1+|A|)")
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


def integer_candidate(mu) -> np.ndarray:
    """The nearest integer of each mu that sits within INTEGER_TOL of one, as a float; NaN elsewhere."""
    c = np.rint(mu)
    return np.where(np.abs(mu - c) <= INTEGER_TOL, c, np.nan)


def _primes():
    """The primes between 2^30 and 2^31, descending, by Miller-Rabin to the bases 2, 3, 5 and 7 (exact below 3.2e9)."""
    for p in range(2**31 - 1, 2**30, -2):
        r = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^r with d odd
        if all(x == 1 or p - 1 in (pow(x, 1 << i, p) for i in range(r))
               for x in (pow(b, (p - 1) >> r, p) for b in (2, 3, 5, 7))):
            yield p


def _rref_mod(a: np.ndarray, p: int) -> tuple:
    """(pivot columns, reduced row echelon form) of an integer matrix modulo a prime p < 2^31, in int64."""
    a = (a % p).astype(np.int64)
    pivots = []
    for col in range(a.shape[1]):
        r = len(pivots)
        nz = a[r:, col].nonzero()[0]
        if not len(nz):
            continue
        if nz[0]:
            a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        row = a[r, col:] * pow(int(a[r, col]), -1, p) % p  # a product of two residues stays below 2^62
        a[:, col:] = (a[:, col:] - a[:, col, None] * row) % p  # clears row r too, which then takes the scaled row
        a[r, col:] = row
        pivots.append(col)
    return pivots, a


def _lift(x: int, m: int) -> Fraction:
    """Wang's (1981) rational reconstruction: u/v = x mod m with |u|, v <= sqrt(m/2) if it exists, else a wrong u/v."""
    bound = math.isqrt(m // 2)
    r0, r1, t0, t1 = m, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return Fraction(r1, t1)


def _rational_kernel(a: np.ndarray) -> tuple:
    """(free columns, kernel basis) of an integer matrix a, from its reduced row echelon form over Q.

    The vector of the free column f has 1 at f, 0 at the other free columns and minus column f of the
    reduced form at the pivots, as Fractions.  Gauss-Jordan runs modulo 31-bit primes; a prime whose pivots
    trail another's is unlucky and dropped, and while aW != 0 for the lifted basis W scaled to integers,
    more primes join by CRT.  Exact: the rank over Q is at least the rank mod p, so the checked,
    independent vectors span the kernel; each ends at its free column, which is then free over Q.  The
    Hadamard bound on the minors caps the primes needed.
    """
    best = None
    for p in _primes():
        pivots, red = _rref_mod(a, p)
        free = sorted(set(range(a.shape[1])) - set(pivots))
        if not free:
            return [], []
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best, modulus, image, count = key, 1, 0, 0
        elif key > best:
            continue
        image = image + modulus * ((red[:len(pivots)][:, free].astype(object) - image) * pow(modulus, -1, p) % p)
        modulus, count = modulus * p, count + 1
        if count & (count - 1):  # lift and check at 1, 2, 4, ... primes: linear, not quadratic, in their number
            continue
        lifted = [[_lift(-x % modulus, modulus) for x in col] for col in image.T]
        basis = np.full((len(free), a.shape[1]), Fraction(0), dtype=object)
        basis[range(len(free)), free] = Fraction(1)
        basis[:, pivots] = np.array(lifted, dtype=object).reshape(len(free), len(pivots))
        dens = [math.lcm(*(e.denominator for e in col)) for col in lifted]
        w = np.array([[e.numerator * (d // e.denominator) for e in v] for v, d in zip(basis, dens)], dtype=object)
        dtype = object if int(np.abs(a).max(initial=0)) * int(np.abs(w).max()) * a.shape[1] >= 2**63 else np.int64
        if not np.any(a.astype(dtype) @ w.T.astype(dtype)):
            return free, basis.tolist()


def exact_kernel_dim(m: np.ndarray, c: int) -> tuple:
    """(nullity, basis) of ker(m - c*I) for an integer matrix m, exactly: the Fraction vectors of _rational_kernel."""
    m = np.asarray(m)
    if not np.all(m == np.round(m)):
        raise ValueError("exact_kernel_dim needs an integer matrix")
    free, basis = _rational_kernel(np.rint(m).astype(np.int64) - int(c) * np.eye(m.shape[0], dtype=np.int64))
    return len(free), basis


def has_positive_inverse(m: np.ndarray) -> bool:
    """Whether the square integer matrix m is invertible with every entry of its inverse positive, exactly.

    A sign of the float inverse X counts once a rigorous bound separates it from zero (Higham 2002, ch. 3
    and 14): rho bounds ||I - mX||_inf by the computed residual plus 2(t+3)u|m||X| >= gamma_{t+3}|m||X|, u = 2^-53,
    for the rounding of m, of the product and of the difference, doubled for the rounding of rho.  If rho < 1,
    no entry of m^{-1} is further than ||X||_inf rho/(1 - rho) from X's.  The kernel of [m | I] settles a
    sign left open: m is invertible iff no pivot lands in I, and column t + j gives (-m^{-1} e_j, e_j).
    """
    t = len(m)
    mf = m.astype(float)
    try:
        x = np.linalg.inv(mf)
    except np.linalg.LinAlgError:  # singular in floating point: rho below is NaN
        x = np.full((t, t), np.nan)
    with np.errstate(all="ignore"):  # an infinite or NaN rho decides nothing
        rho = 2 * (np.abs(np.eye(t) - mf @ x) + (t + 3) * 2.0**-52 * (np.abs(mf) @ np.abs(x))).sum(axis=1).max()
        delta = 2 * np.abs(x).sum(axis=1).max() * rho / (1 - rho)
    if rho < 1 and (np.any(x < -delta) or np.all(x > delta)):
        return bool(np.all(x > delta))
    free, basis = _rational_kernel(np.hstack([m, np.eye(t, dtype=np.int64)]))
    return free == list(range(t, 2 * t)) and all(v < 0 for vec in basis for v in vec[:t])


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
