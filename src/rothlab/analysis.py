"""The S-Roth oracle and every certificate built around it.

H (connected, with independent set S) is S-Roth when every eigenvector of the
smallest signless-Laplacian eigenvalue mu(H) is strictly positive on S and
strictly negative on T, up to a global sign.  The oracle decides this from the
spectrum; the remaining operations are certificates: the Schur complement
Q_mu and its matrix classes, harmonic-sum conditions on the scaffold, join
decomposition criteria at the mu = t-s boundary, and the reduced matrix R_mu
whose inverse row sums characterize S-Rothness for complete scaffolds.

The oracle, the Q_mu classes and the scaffold certificates run on stacks of
same-shape instances given as arrays (A_G, K): oracle_stack and decide_stack.
s_roth_oracle and decide_instance are their one-instance case, and an
InstanceDecision is the one record of every fact decided about an instance.

Verdicts at eigenvalues sitting on an integer are re-derived in exact rational
arithmetic; floating point alone never decides a boundary case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import CompositeInstance, block_adjacency, join_decomposition
from .spectra import (
    SIGN_TOL,
    exact_inverse,
    exact_kernel_dim,
    full_spectrum,
    integer_candidate,
    sign_normalize,
    signless_laplacian,
    smallest_eigenpair,
)

TOL_Z = 1e-10  # off-diagonal entries above this break the Z-pattern
INV_POS_TOL = 1e-12  # strict positivity threshold for inverse entries, relative to the largest

REASON_SIGNED = "SignedEigenvector"
REASON_ZERO = "ZeroEntry"
REASON_MIXED = "MixedSigns"
REASON_MULTIPLE = "MultipleEigenvalue"


@dataclass(eq=False)
class RothVerdict:
    is_s_roth: bool
    reason: str
    mu: float
    multiplicity: int
    eigenvector: np.ndarray
    kernel: list | None  # rational basis of ker(Q(H) - mu I) on the exact path, else None


@dataclass(eq=False)
class ReducedMatrix:
    r_mu: np.ndarray  # Q(G) + (s-mu)I, complete scaffolds only
    positive_definite: bool
    rowsums: np.ndarray | None  # row sums of r_mu^{-1}, when PD
    s_roth: bool | None  # every row sum positive, when PD
    gamma: float | None  # sum of rowsums: all entries of r_mu^{-1}, when PD
    gamma_expected: float  # (t - mu)/s; equality is forced by the eigenvector equation
    s: int
    t: int
    mu: float


@dataclass
class MatrixClassReport:
    z_matrix: bool
    m_matrix: bool
    inverse_positive: bool
    minpositive: bool


def _exact_sign_verdict(vec, t: int):
    """Classify an exact kernel vector: (is_s_roth, reason), after exact sign flip."""
    if sum(vec[t:]) < 0:
        vec = [-v for v in vec]
    if any(v == 0 for v in vec):
        return False, REASON_ZERO
    if all(v > 0 for v in vec[t:]) and all(v < 0 for v in vec[:t]):
        return True, REASON_SIGNED
    return False, REASON_MIXED


def _stacks(a_g, ks) -> tuple:
    """A_G and K broadcast against each other: (A_G as (N, t, t), K as (N, t, s), leading shape)."""
    a_g, ks = np.asarray(a_g), np.asarray(ks)
    t, s = ks.shape[-2:]
    lead = np.broadcast_shapes(a_g.shape[:-2], ks.shape[:-2])
    return (np.broadcast_to(a_g, lead + (t, t)).reshape(-1, t, t),
            np.broadcast_to(ks, lead + (t, s)).reshape(-1, t, s), lead)


def _exact_verdict(q: np.ndarray, c: int, t: int, vector: np.ndarray) -> RothVerdict | None:
    """The verdict from the rational kernel of Q(H) - cI; None when that kernel is trivial."""
    nullity, basis = exact_kernel_dim(q, c)
    if nullity > 1:
        return RothVerdict(False, REASON_MULTIPLE, float(c), nullity, vector, basis)
    if nullity == 0:
        return None
    ok, reason = _exact_sign_verdict(basis[0], t)
    x = np.array([float(v) for v in basis[0]])
    return RothVerdict(ok, reason, float(c), 1, sign_normalize(x / np.linalg.norm(x), t), basis)


def oracle_stack(a_g, ks) -> list:
    """The S-Roth oracle for every (A_G, K) pair of a stack, in order.

    a_g is the t x t adjacency matrix of G or a stack (N, t, t) of them; ks is
    one t x s scaffold or a stack (N, t, s); each broadcasts against the
    other.  Every Q(H) = [[A_G + diag(deg_G + D1), K], [K^T, diag(D2)]] is
    the signless Laplacian of H's block adjacency, and all are solved by one
    stacked eigensolve, with full_spectrum's contract checks on every matrix.

    A verdict is True iff mu(H) is simple and, after flipping the eigenvector
    so its S-sum is nonnegative, every S-entry exceeds SIGN_TOL and every
    T-entry falls below -SIGN_TOL (both sides are checked; the failing side is
    recorded in the reason).  Eigenvalues within INTEGER_TOL of an integer c
    where Q(H) - cI is singular are settled by its rational kernel instead of
    float sign tests, one instance at a time; the verdict then has mu = c and
    keeps that kernel for the Q_mu classes.  On the float path kernel is None.
    """
    a, k, lead = _stacks(a_g, ks)
    t = k.shape[-2]
    q = signless_laplacian(block_adjacency(a, k))
    n = q.shape[-1]
    pair = smallest_eigenpair(q.reshape(lead + (n, n)))
    mu = np.reshape(pair.mu, -1).tolist()
    multiplicity = np.reshape(pair.multiplicity, -1).tolist()
    raw = pair.vector.reshape(-1, n)
    x = sign_normalize(raw, t)
    tol = SIGN_TOL * np.abs(x).max(axis=1, initial=0.0)[:, None]
    zero = np.any(np.abs(x) <= tol, axis=1).tolist()
    signed = (np.all(x[:, t:] > tol, axis=1) & np.all(x[:, :t] < -tol, axis=1)).tolist()
    verdicts = []
    for i, m in enumerate(mu):
        c = integer_candidate(m)
        v = None if c is None else _exact_verdict(q[i], c, t, raw[i])
        if v is None:
            if multiplicity[i] > 1:
                v = RothVerdict(False, REASON_MULTIPLE, m, multiplicity[i], raw[i], None)
            elif zero[i]:
                v = RothVerdict(False, REASON_ZERO, m, 1, x[i], None)
            elif signed[i]:
                v = RothVerdict(True, REASON_SIGNED, m, 1, x[i], None)
            else:
                v = RothVerdict(False, REASON_MIXED, m, 1, x[i], None)
        verdicts.append(v)
    return verdicts


def s_roth_oracle(inst: CompositeInstance) -> RothVerdict:
    """Decide S-Rothness from the smallest eigenpair of Q(H): oracle_stack for one instance."""
    return oracle_stack(inst.A, inst.K)[0]


def is_complete_scaffold(inst: CompositeInstance) -> bool:
    return bool(np.all(inst.K == 1))


def _q_mu(a: np.ndarray, k: np.ndarray, mu) -> np.ndarray:
    """Q_mu = Q(G) + D1 + K (mu I - D2)^{-1} K^T for each (A_G, K, mu) of a stack."""
    t = k.shape[-2]
    kf = k.astype(float)
    base = a.astype(float)
    i = np.arange(t)
    base[..., i, i] = a.sum(axis=-1) + kf.sum(axis=-1)
    weights = 1.0 / (np.asarray(mu, dtype=float)[..., None] - kf.sum(axis=-2))
    return base + (kf * weights[..., None, :]) @ np.swapaxes(kf, -1, -2)


def build_q_mu(inst: CompositeInstance, mu: float) -> np.ndarray:
    """Schur complement Q_mu = Q(G) + D1 + K (mu I - D2)^{-1} K^T of order t.

    Requires mu < min(D2) so the middle factor is negative definite; the
    off-diagonal (i,j) entry works out to [i ~G j] - sum over N_ij of
    1/(d_B(k) - mu).  Its classes at the verdict's mu are
    decide_instance(inst).classes.
    """
    d2_min = inst.K.sum(axis=0).min()
    if mu >= d2_min:
        raise ValueError(f"mu={mu} is not below the smallest S-degree {d2_min}")
    return _q_mu(inst.A, inst.K, mu)


def _exact_q_mu(a: np.ndarray, k: np.ndarray, c: int) -> np.ndarray:
    """The integer L*Q_mu = L*(Q(G) + D1) - K diag(L/(d_B(k) - c)) K^T at mu = c < min(D2).

    L = lcm(d_B(k) - c) > 0.  int64, or Python ints when L*(largest entry of Q(G) + D1, plus s) passes int64.
    """
    qg = np.rint(a).astype(np.int64) + np.diag(np.rint(a.sum(axis=1)).astype(np.int64) + k.sum(axis=1))
    gaps = k.sum(axis=0).astype(np.int64) - c
    lcm = math.lcm(*np.unique(gaps).tolist())
    big = lcm * (int(qg.max()) + k.shape[1]) > np.iinfo(np.int64).max
    qg, k, gaps = (x.astype(object if big else np.int64) for x in (qg, k, gaps))
    return lcm * qg - (k * (lcm // gaps)) @ k.T


def _exact_classes(a: np.ndarray, k: np.ndarray, c: int, basis: list, inverse_positive: bool) -> MatrixClassReport:
    """Q_mu classes at mu = c from the integer L*Q_mu and the verdict's kernel.

    L > 0, so L*Q_mu has the off-diagonal signs of Q_mu, and (L*Q_mu)^{-1} = Q_mu^{-1}/L those of Q_mu^{-1}.
    """
    t = k.shape[0]
    mq = _exact_q_mu(a, k, c)
    z_matrix = bool(np.all(mq[~np.eye(t, dtype=bool)] <= 0))
    if t <= 16:
        minv = exact_inverse(mq.tolist())
        inverse_positive = minv is not None and all(v > 0 for row in minv for v in row)
    # lambda_1(Q_mu) = c with eigenspace = T-parts of the kernel of Q(H)-cI
    minpositive = False
    if len(basis) == 1:
        w = basis[0][:t]
        if sum(w) < 0:
            w = [-v for v in w]
        minpositive = all(v > 0 for v in w)
    # an M-matrix exactly when Z: Q_mu is PD since lambda_1(Q_mu) = c > 0
    return MatrixClassReport(z_matrix=z_matrix, m_matrix=z_matrix,
                             inverse_positive=inverse_positive, minpositive=minpositive)


def _classify(q_mu: np.ndarray, a: np.ndarray, k: np.ndarray, verdicts: list) -> list:
    """Classes of a stack of Q_mu, each built at its verdict's mu; None where Q_mu is singular.

    No eigensolve: for mu < min(D2), Haynsworth inertia makes mu the smallest
    eigenvalue of Q_mu, with the verdict's multiplicity and eigenvectors the
    T-parts of those of Q(H).  One stacked inverse serves the whole stack.  A
    verdict decided from a rational kernel (mu on an integer c: the t-s
    boundary of complete scaffolds and its relatives) has its flags computed
    from the integer L*Q_mu and that kernel, so borderline zero entries are
    decided exactly.
    """
    t = q_mu.shape[-1]
    mu = np.array([v.mu for v in verdicts])
    scale = 1.0 + np.abs(q_mu).max(axis=(1, 2), initial=0.0)
    regular = np.abs(mu) > 1e-12 * scale
    z_matrix = q_mu[:, ~np.eye(t, dtype=bool)].max(axis=1, initial=0.0) <= TOL_Z
    m_matrix = z_matrix & (mu > 0.0)
    inv = np.linalg.inv(q_mu[regular])
    inverse_positive = np.zeros(len(q_mu), dtype=bool)
    inverse_positive[regular] = inv.min(axis=(1, 2)) > INV_POS_TOL * np.abs(inv).max(axis=(1, 2))
    simple = np.array([v.multiplicity == 1 for v in verdicts])
    x = sign_normalize(np.array([v.eigenvector[:t] for v in verdicts]), 0)
    minpositive = simple & np.all(x > SIGN_TOL * np.abs(x).max(axis=1)[:, None], axis=1)
    reports = []
    for i, (verdict, reg, z, m, ip, mp) in enumerate(zip(
            verdicts, regular.tolist(), z_matrix.tolist(), m_matrix.tolist(),
            inverse_positive.tolist(), minpositive.tolist())):
        c = int(verdict.mu)  # the exact path sets mu to the integer c
        if not reg:
            reports.append(None)
        elif verdict.kernel is not None and 0 < c < k[i].sum(axis=0).min():
            reports.append(_exact_classes(a[i], k[i], c, verdict.kernel, ip))
        else:
            reports.append(MatrixClassReport(z_matrix=z, m_matrix=m, inverse_positive=ip, minpositive=mp))
    return reports


# harmonic-sum certificates on the scaffold


@dataclass
class HarmonicCondition:
    holds: bool
    witness: tuple | None  # failing pair of T-vertices, when holds is False
    witness_sum: Fraction | None  # harmonic sum at the witness (0 for an empty N_ij)


def _certificates(a: np.ndarray, k: np.ndarray) -> tuple:
    """Harmonic condition and gc for a stack (N, t, t), (N, t, s): (HarmonicConditions, gc flags).

    Harmonic sums are exact integers: each S-vertex weighs L / d_B(k), with L
    the lcm of the S-degrees present (a divisor of lcm(1..t)), so a sum is at
    least 1 iff its integer is at least L.  Python ints take over when L is
    too large for int64; the sums are then formed on G-edge pairs only.
    """
    t, s = k.shape[-2:]
    k = k.astype(np.int64)
    kt = np.swapaxes(k, -1, -2)
    d2 = k.sum(axis=1)
    iu, ju = np.triu_indices(t, 1)  # vertex pairs in sorted order
    edge = a[:, iu, ju] != 0
    common = (k @ kt)[:, iu, ju]  # |N_ij|
    lcm = math.lcm(*np.unique(d2[d2 > 0]).tolist())
    if lcm * s <= np.iinfo(np.int64).max:
        harm = ((k * (lcm // np.maximum(d2, 1))[:, None, :]) @ kt)[:, iu, ju]
    else:
        on = np.flatnonzero(edge.any(axis=0))
        harm = np.zeros(edge.shape, dtype=object)
        weights = lcm // np.maximum(d2, 1).astype(object)
        harm[:, on] = ((k[:, iu[on]] & k[:, ju[on]]) * weights[:, None, :]).sum(axis=-1)
    low = edge & (harm < lcm)  # G-edges with harmonic sum below 1
    empty = ~edge & (common == 0)  # non-adjacent pairs without a common S-neighbour
    gc = ~np.any((edge & (common < d2.max(axis=1)[:, None])) | empty, axis=1)
    conditions = []
    for i, (any_low, first_low, any_empty, first_empty) in enumerate(zip(
            low.any(axis=1).tolist(), low.argmax(axis=1).tolist(),
            empty.any(axis=1).tolist(), empty.argmax(axis=1).tolist())):
        if not (any_low or any_empty):
            conditions.append(HarmonicCondition(True, None, None))
            continue
        j = first_low if any_low else first_empty
        total = Fraction(int(harm[i, j]), lcm) if any_low else Fraction(0)
        conditions.append(HarmonicCondition(False, (int(iu[j]), int(ju[j])), total))
    return conditions, gc


def alpha_of(inst: CompositeInstance, mu: float) -> float:
    """alpha = s/(t - mu) for complete scaffolds; alpha > 1 iff mu > t-s."""
    if not is_complete_scaffold(inst):
        raise ValueError("alpha is defined for complete scaffolds only")
    if mu >= inst.t:
        raise ValueError(f"mu={mu} >= t={inst.t}")
    return inst.s / (inst.t - mu)


def gdeg_check(inst: CompositeInstance) -> str:
    """Degree criteria for complete scaffolds with t > s: 'A', 'B' or 'none'.

    A: delta(G) > t-s.  B: delta(G) = t-s and the complement of G is connected.
    Either case implies S-Roth.
    """
    if not is_complete_scaffold(inst) or inst.t <= inst.s:
        return "none"
    delta = inst.A.sum(axis=1).min()
    gap = inst.t - inst.s
    if delta > gap:
        return "A"
    if delta == gap and len(join_decomposition(inst.A)) == 1:
        return "B"
    return "none"


@dataclass
class BoundaryCharacterization:
    applicable: bool
    s_roth: bool | None  # exact (necessary and sufficient) when applicable
    witness: tuple | None  # a joinee whose G-degrees are all t-s


def boundary_characterization(inst: CompositeInstance) -> BoundaryCharacterization:
    """Exact S-Rothness test at the boundary delta(G) = t-s with G a join.

    Applies to complete scaffolds with t > s, delta(G) = t-s and disconnected
    complement(G).  H is then S-Roth iff every joinee of the maximal join
    decomposition of G contains a vertex of G-degree strictly above t-s.
    """
    gap = inst.t - inst.s
    deg = inst.A.sum(axis=1)
    if not is_complete_scaffold(inst) or inst.t <= inst.s or deg.min() != gap:
        return BoundaryCharacterization(False, None, None)
    joinees = join_decomposition(inst.A)
    if len(joinees) == 1:
        return BoundaryCharacterization(False, None, None)
    for part in joinees:
        if all(deg[v] <= gap for v in part):
            return BoundaryCharacterization(True, False, tuple(part))
    return BoundaryCharacterization(True, True, None)


# the reduced matrix R_mu (complete scaffolds)


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
    return ReducedMatrix(
        r_mu=r,
        positive_definite=pd,
        rowsums=rowsums,
        s_roth=s_roth,
        gamma=gamma,
        gamma_expected=(inst.t - mu) / inst.s,
        s=inst.s,
        t=inst.t,
        mu=float(mu),
    )


def deg2_predicate(inst: CompositeInstance) -> bool:
    """Hypothesis of the max-degree-2 theorem: complete scaffold, t > s >= 6, Delta(G) <= 2."""
    if not is_complete_scaffold(inst) or not (inst.t > inst.s >= 6):
        return False
    return bool(inst.A.sum(axis=1).max() <= 2)


@dataclass(eq=False)
class InstanceDecision:
    """The verdict, the Q_mu classes at its mu and the scaffold certificates of one instance.

    Each certificate, when it holds, implies that H is S-Roth.  N_ij is the
    set of S-vertices adjacent to both T-vertices i and j, and d_B(k) the
    scaffold degree of the S-vertex k.
    """

    verdict: RothVerdict
    classes: MatrixClassReport | None  # None when Q_mu is singular or cannot be formed
    # every G-edge ij has sum over N_ij of 1/d_B(k) >= 1, in exact arithmetic, and every
    # non-adjacent pair of T-vertices has N_ij nonempty; the witness is the first failing
    # G-edge in sorted order, else the first failing non-adjacent pair
    harmcond: HarmonicCondition
    gc: bool  # the cruder global form: |N_ij| >= max S-degree on every G-edge, N_ij nonempty elsewhere
    bdeg: bool  # every T-vertex has scaffold degree at least (t+s)/2; implies harmcond
    st: bool  # complete scaffold with s >= t; N_ij is then all of S and the sums are s/t >= 1


def decide_stack(a_g, ks) -> list:
    """The oracle, the Q_mu classes at each verdict's mu and the scaffold certificates.

    Takes A_G and K as oracle_stack does and returns one InstanceDecision per
    instance, in order.  These are the steps the census and the CLI report
    share; each runs once per stack: one stacked eigensolve for the verdicts,
    one stacked Q_mu and inverse for the classes, integer array operations
    for the certificates, and the Q_mu classes reuse each verdict's exact
    kernel.
    """
    verdicts = oracle_stack(a_g, ks)
    a, k, _ = _stacks(a_g, ks)
    mu = np.array([v.mu for v in verdicts])
    # Q_mu exists for mu < min(D2); it is singular when H is bipartite
    formed = np.flatnonzero(mu < k.sum(axis=1).min(axis=1))
    classes = [None] * len(verdicts)
    if formed.size:
        sub = _classify(_q_mu(a[formed], k[formed], mu[formed]), a[formed], k[formed],
                        [verdicts[i] for i in formed])
        for i, report in zip(formed.tolist(), sub):
            classes[i] = report
    harm, gc = _certificates(a, k)
    t, s = k.shape[-2:]
    bdeg = np.all(2 * k.sum(axis=-1) >= t + s, axis=-1).tolist()
    st = (np.all(k == 1, axis=(-2, -1)) & (s >= t)).tolist()
    return [InstanceDecision(v, c, h, g, b, x)
            for v, c, h, g, b, x in zip(verdicts, classes, harm, gc.tolist(), bdeg, st)]


def decide_instance(inst: CompositeInstance) -> InstanceDecision:
    """decide_stack for one instance."""
    return decide_stack(inst.A, inst.K)[0]

