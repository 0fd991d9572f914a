"""The S-Roth oracle and every certificate built around it.

H (connected, with independent set S) is S-Roth when every eigenvector of the
smallest signless-Laplacian eigenvalue mu(H) is strictly positive on S and
strictly negative on T, up to a global sign.  The oracle decides this from the
spectrum; the remaining operations are certificates: the Schur complement
Q_mu and its matrix classes, harmonic-sum conditions on the scaffold, join
decomposition criteria at the mu = t-s boundary, and the reduced matrix R_mu
whose inverse row sums characterize S-Rothness for complete scaffolds.

Verdicts at eigenvalues sitting on an integer are re-derived in exact rational
arithmetic; floating point alone never decides a boundary case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import CompositeInstance, common_neighbors, complement, connected_components, join_decomposition
from .spectra import (
    CLUSTER_TOL,
    SIGN_TOL,
    cluster_multiplicity,
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
class SchurMatrix:
    q_mu: np.ndarray  # order t
    mu: float
    alpha: float | None  # s/(t-mu), populated only for complete scaffolds


@dataclass(eq=False)
class ReducedMatrix:
    r_mu: np.ndarray  # Q(G) + (s-mu)I, complete scaffolds only
    positive_definite: bool
    gamma: float | None  # sum of all entries of r_mu^{-1}, when PD
    beta: float  # (4+s-mu)^{-1}, the common row sum of a cycle block inverse
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


def s_roth_oracle(inst: CompositeInstance) -> RothVerdict:
    """Decide S-Rothness from the smallest eigenpair of Q(H).

    True iff mu(H) is simple and, after flipping the eigenvector so its S-sum
    is nonnegative, every S-entry exceeds SIGN_TOL and every T-entry falls
    below -SIGN_TOL (both sides are checked; the failing side is recorded in
    the reason).  Eigenvalues within INTEGER_TOL of an integer c where
    Q(H) - cI is singular are settled by its rational kernel instead of float
    sign tests; the verdict then has mu = c and keeps that kernel for
    classify_q_mu.  On the float path kernel is None.
    """
    t = inst.t
    q = signless_laplacian(inst.H)
    pair = smallest_eigenpair(q, t_split=t)
    c = integer_candidate(pair.mu)
    if c is not None:
        nullity, basis = exact_kernel_dim(q, c)
        if nullity > 1:
            return RothVerdict(False, REASON_MULTIPLE, float(c), nullity, pair.vector, basis)
        if nullity == 1:
            vec = basis[0]
            ok, reason = _exact_sign_verdict(vec, t)
            x = np.array([float(v) for v in vec])
            x = sign_normalize(x / np.linalg.norm(x), t)
            return RothVerdict(ok, reason, float(c), 1, x, basis)
    if pair.multiplicity > 1:
        return RothVerdict(False, REASON_MULTIPLE, pair.mu, pair.multiplicity, pair.vector, None)
    x = sign_normalize(pair.vector, t)
    tol = SIGN_TOL * np.abs(x).max()
    if np.any(np.abs(x) <= tol):
        return RothVerdict(False, REASON_ZERO, pair.mu, 1, x, None)
    if np.all(x[t:] > tol) and np.all(x[:t] < -tol):
        return RothVerdict(True, REASON_SIGNED, pair.mu, 1, x, None)
    return RothVerdict(False, REASON_MIXED, pair.mu, 1, x, None)


def is_complete_scaffold(inst: CompositeInstance) -> bool:
    return bool(np.all(inst.K == 1))


def build_q_mu(inst: CompositeInstance, mu: float) -> SchurMatrix:
    """Schur complement Q_mu = Q(G) + D1 + K (mu I - D2)^{-1} K^T of order t.

    Requires mu < min(D2) so the middle factor is negative definite; the
    off-diagonal (i,j) entry works out to [i ~G j] - sum over N_ij of
    1/(d_B(k) - mu).  alpha = s/(t-mu) is attached for complete scaffolds.
    """
    if mu >= inst.D2.min():
        raise ValueError(f"mu={mu} is not below the smallest S-degree {inst.D2.min()}")
    qg = signless_laplacian(inst.G)
    weights = 1.0 / (mu - inst.D2.astype(float))
    q_mu = qg + np.diag(inst.D1.astype(float)) + (inst.K * weights) @ inst.K.T
    alpha = None
    if is_complete_scaffold(inst):
        alpha = inst.s / (inst.t - mu)
    return SchurMatrix(q_mu=q_mu, mu=float(mu), alpha=alpha)


def _exact_q_mu(inst: CompositeInstance, c: int):
    """Q_mu over the rationals, valid when mu = c exactly and c < min(D2)."""
    t, s = inst.t, inst.s
    qg = np.asarray(np.rint(signless_laplacian(inst.G)), dtype=np.int64)
    k = inst.K
    d2 = inst.D2
    m = [[Fraction(int(qg[i, j])) for j in range(t)] for i in range(t)]
    for i in range(t):
        m[i][i] += int(inst.D1[i])
        for j in range(i, t):
            acc = Fraction(0)
            for kk in range(s):
                if k[i, kk] and k[j, kk]:
                    acc += Fraction(1, int(c) - int(d2[kk]))
            m[i][j] += acc
            if j != i:
                m[j][i] += acc
    return m


def classify_q_mu(sm: SchurMatrix, inst: CompositeInstance, verdict: RothVerdict) -> MatrixClassReport:
    """Z / M / inverse-positive / minpositive flags of Q_mu built at the verdict's mu.

    When the verdict was decided from a rational kernel (mu on an integer c:
    the t-s boundary of complete scaffolds and its relatives), the flags are
    computed from the rational Q_mu and that kernel, so borderline zero
    entries are decided exactly.  Raises ValueError when sm was built at
    another mu, or when Q_mu is singular.
    """
    if sm.mu != verdict.mu:
        raise ValueError(f"Q_mu was built at mu={sm.mu}, the verdict has mu={verdict.mu}")
    q = sm.q_mu
    n = q.shape[0]
    es = full_spectrum(q)
    lam1 = float(es.values[0])
    scale = 1.0 + np.abs(q).max(initial=0.0)
    if abs(lam1) <= 1e-12 * scale:
        raise ValueError("Q_mu is singular (H is bipartite)")
    off = q[~np.eye(n, dtype=bool)]
    z_matrix = bool(off.max(initial=0.0) <= TOL_Z)
    pd = lam1 > 0.0
    m_matrix = z_matrix and pd
    inv = np.linalg.inv(q)
    inverse_positive = bool(inv.min() > INV_POS_TOL * np.abs(inv).max())
    simple = cluster_multiplicity(es.values, lam1) == 1
    x = sign_normalize(es.vectors[:, 0], 0)
    minpositive = bool(simple and np.all(x > SIGN_TOL * np.abs(x).max()))

    basis = verdict.kernel
    if basis is not None:
        c = int(verdict.mu)  # the exact path sets mu to the integer c
        if 0 < c < int(inst.D2.min()):
            mq = _exact_q_mu(inst, c)
            t = inst.t
            z_matrix = all(mq[i][j] <= 0 for i in range(t) for j in range(t) if i != j)
            m_matrix = z_matrix  # PD since lambda_1(Q_mu) = c > 0
            if t <= 16:
                minv = exact_inverse(mq)
                inverse_positive = minv is not None and all(
                    v > 0 for row in minv for v in row
                )
            # lambda_1(Q_mu) = c with eigenspace = T-parts of the kernel of Q(H)-cI
            if len(basis) > 1:
                minpositive = False
            else:
                w = basis[0][:t]
                if sum(w) < 0:
                    w = [-v for v in w]
                minpositive = all(v > 0 for v in w)
    return MatrixClassReport(
        z_matrix=z_matrix,
        m_matrix=m_matrix,
        inverse_positive=inverse_positive,
        minpositive=minpositive,
    )


# harmonic-sum certificates on the scaffold


@dataclass
class HarmonicCondition:
    holds: bool
    witness: tuple | None  # failing pair of T-vertices, when holds is False
    witness_sum: Fraction | None  # harmonic sum at the witness (0 for an empty N_ij)


def harmcond_check(inst: CompositeInstance) -> HarmonicCondition:
    """Sufficient condition: every G-edge ij has sum_{k in N_ij} 1/d_B(k) >= 1
    and every non-adjacent pair of T-vertices has N_ij nonempty.

    Sums are exact rationals.  holds implies H is S-Roth.
    """
    t = inst.t
    d2 = inst.D2
    for (i, j) in sorted(inst.G.edges):
        acc = Fraction(0)
        for v in common_neighbors(inst, i, j):
            acc += Fraction(1, int(d2[v - t]))
        if acc < 1:
            return HarmonicCondition(False, (i, j), acc)
    for i, j in itertools.combinations(range(t), 2):
        if not inst.G.has_edge(i, j) and not common_neighbors(inst, i, j):
            return HarmonicCondition(False, (i, j), Fraction(0))
    return HarmonicCondition(True, None, None)


def gc_check(inst: CompositeInstance) -> bool:
    """Cruder global form: |N_ij| >= max S-degree on every G-edge, N_ij nonempty elsewhere."""
    cb = int(inst.D2.max())
    t = inst.t
    for (i, j) in inst.G.edges:
        if len(common_neighbors(inst, i, j)) < cb:
            return False
    for i, j in itertools.combinations(range(t), 2):
        if not inst.G.has_edge(i, j) and not common_neighbors(inst, i, j):
            return False
    return True


def bdeg_check(inst: CompositeInstance) -> bool:
    """Every T-vertex has scaffold degree at least (t+s)/2; implies the harmonic condition."""
    return bool(np.all(2 * inst.D1 >= inst.t + inst.s))


def st_check(inst: CompositeInstance) -> bool:
    """Complete scaffold with s >= t; N_ij is then all of S and the sums are s/t >= 1."""
    return is_complete_scaffold(inst) and inst.s >= inst.t


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
    if inst.G.n == 0:
        return "none"
    delta = min(inst.G.degrees())
    gap = inst.t - inst.s
    if delta > gap:
        return "A"
    if delta == gap and len(connected_components(complement(inst.G))) == 1:
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
    if (
        not is_complete_scaffold(inst)
        or inst.t <= inst.s
        or inst.G.n == 0
        or min(inst.G.degrees()) != gap
    ):
        return BoundaryCharacterization(False, None, None)
    joinees = join_decomposition(inst.G)
    if len(joinees) == 1:
        return BoundaryCharacterization(False, None, None)
    deg = inst.G.degrees()
    for part in joinees:
        if all(deg[v] <= gap for v in part):
            return BoundaryCharacterization(True, False, tuple(part))
    return BoundaryCharacterization(True, True, None)


# the reduced matrix R_mu (complete scaffolds)


def build_r_mu(inst: CompositeInstance, mu: float) -> ReducedMatrix:
    """R_mu = Q(G) + (s - mu) I.  Singularity is recorded, not raised."""
    if not is_complete_scaffold(inst):
        raise ValueError("R_mu is defined for complete scaffolds only")
    r = signless_laplacian(inst.G) + (inst.s - mu) * np.eye(inst.t)
    values = full_spectrum(r).values
    scale = 1.0 + np.abs(r).max(initial=0.0)
    pd = bool(values[0] > 1e-9 * scale)
    gamma = float(np.linalg.inv(r).sum()) if pd else None
    return ReducedMatrix(
        r_mu=r,
        positive_definite=pd,
        gamma=gamma,
        beta=1.0 / (4.0 + inst.s - mu),
        s=inst.s,
        t=inst.t,
        mu=float(mu),
    )


@dataclass(eq=False)
class RowSumCheck:
    s_roth: bool
    rowsums: np.ndarray
    gamma: float
    gamma_expected: float  # (t - mu)/s; equality is forced by the eigenvector equation


def r_mu_rowsum_check(rm: ReducedMatrix) -> RowSumCheck:
    """S-Roth iff all row sums of R_mu^{-1} are positive (R_mu positive definite).

    Also reports the consistency value gamma = (t-mu)/s implied by the S-block
    of the eigenvector equation (all S-entries equal, so summing the z formula
    over S pins gamma).
    """
    if not rm.positive_definite:
        raise ValueError("R_mu is not positive definite")
    rowsums = np.linalg.inv(rm.r_mu).sum(axis=1)
    # a row sum at floating-point zero means a zero eigenvector entry
    floor = INV_POS_TOL * max(1.0, float(np.abs(rowsums).max(initial=0.0)))
    return RowSumCheck(
        s_roth=bool(rowsums.min() > floor),
        rowsums=rowsums,
        gamma=float(rm.gamma),
        gamma_expected=(rm.t - rm.mu) / rm.s,
    )


def gavrilov_check(m: np.ndarray, order: int) -> bool:
    """True iff every principal submatrix of the given order has nonnegative inverse.

    For a positive definite matrix this forces monotonicity of the whole
    matrix (Gavrilov); at order 2 it reduces to the Z-matrix sign pattern.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if not (2 <= order < n):
        raise ValueError("order must satisfy 2 <= order < n")
    if full_spectrum(m).values[0] <= 0:
        raise ValueError("matrix is not positive definite")
    for rows in itertools.combinations(range(n), order):
        sub = m[np.ix_(rows, rows)]
        inv = np.linalg.inv(sub)
        if inv.min() < -1e-12 * (1.0 + np.abs(inv).max()):
            return False
    return True


def deg2_predicate(inst: CompositeInstance) -> bool:
    """Hypothesis of the max-degree-2 theorem: complete scaffold, t > s >= 6, Delta(G) <= 2."""
    if not is_complete_scaffold(inst) or not (inst.t > inst.s >= 6):
        return False
    degs = inst.G.degrees()
    return max(degs, default=0) <= 2


@dataclass(eq=False)
class InstanceDecision:
    verdict: RothVerdict
    classes: MatrixClassReport | None  # None when Q_mu is singular or cannot be formed
    harmcond: HarmonicCondition
    gc: bool
    bdeg: bool
    st: bool


def decide_instance(inst: CompositeInstance) -> InstanceDecision:
    """The oracle, the Q_mu classes at the verdict's mu and the scaffold certificates.

    These are the steps the census record and the CLI report share; each runs
    once, and the Q_mu classes reuse the verdict's exact kernel.
    """
    verdict = s_roth_oracle(inst)
    try:
        classes = classify_q_mu(build_q_mu(inst, verdict.mu), inst, verdict)
    except ValueError:  # mu not below min(D2), or singular Q_mu (bipartite H)
        classes = None
    return InstanceDecision(verdict, classes, harmcond_check(inst), gc_check(inst),
                            bdeg_check(inst), st_check(inst))


def classification_record(inst: CompositeInstance) -> dict:
    """Flat census record of decide_instance: one oracle call, at most one exact kernel.

    Schema: {graph6, s, t, mu, multiplicity, s_roth, reason, harmcond, gc, bdeg,
     st, z, m_matrix, inv_positive, minpositive, s_maximal}; graph6 encodes the
    scaffold B.  `rothlab analyze` formats the same decision as its report.
    """
    from .graphs import emit_graph6

    d = decide_instance(inst)
    verdict, classes = d.verdict, d.classes
    return {
        "graph6": emit_graph6(inst.B),
        "s": inst.s,
        "t": inst.t,
        "mu": verdict.mu,
        "multiplicity": verdict.multiplicity,
        "s_roth": verdict.is_s_roth,
        "reason": verdict.reason,
        "harmcond": d.harmcond.holds,
        "gc": d.gc,
        "bdeg": d.bdeg,
        "st": d.st,
        "z": None if classes is None else classes.z_matrix,
        "m_matrix": None if classes is None else classes.m_matrix,
        "inv_positive": None if classes is None else classes.inverse_positive,
        "minpositive": None if classes is None else classes.minpositive,
        "s_maximal": inst.s_maximal,
    }
