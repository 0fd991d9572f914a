"""The S-Roth oracle and every certificate built around it.

H (connected, with independent set S) is S-Roth when every eigenvector of the
smallest signless-Laplacian eigenvalue mu(H) is strictly positive on S and
strictly negative on T, up to a global sign.  The oracle decides this from the
spectrum; the remaining operations are certificates: the Schur complement
Q_mu and its matrix classes, harmonic-sum conditions on the scaffold, join
decomposition criteria at the mu = t-s boundary, and the reduced matrix R_mu
whose inverse row sums characterize S-Rothness for complete scaffolds.  Q_mu
is formed only to read its classes, from the blocks of the Q(H) stack whose
eigensolve gave the verdicts: the bare array and the exact harmonic sum of a
witness pair are proof tools, kept with the tests in tests/paper_tools.py.

The oracle, the Q_mu classes and the scaffold certificates run on stacks of
same-shape instances given as arrays (A_G, K): oracle_stack and decide_stack
return one Decisions record with an (N,) array per fact.  s_roth_oracle and
decide_instance are their one-instance case, row [0] of the same record.

Exact and floating-point decisions: when mu lies within INTEGER_TOL of an
integer c and Q(H) - cI is singular, the verdict and the Q_mu classes at it
are re-derived exactly, at every t, from the rational kernel and the integer
L*Q_mu read off the integer Q(H) (see _exact_classes).  Every other verdict
is a floating-point decision: a ZeroEntry or MultipleEigenvalue at an
irrational mu is settled by SIGN_TOL and CLUSTER_TOL, not proved.  So is
every row that the sweeps and the probe clear on the twin quotient B of
their scaffold (see _twin_screen): an S-Roth verdict read off B with
tenfold those margins, which never clears an integer-candidate mu; every
other row goes to the oracle on the full Q(H).  The
certificates are integer arithmetic on A_G and K, so exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .graphs import CompositeInstance, block_adjacency, is_connected, join_decomposition
from .spectra import (
    CLUSTER_TOL,
    SIGN_TOL,
    exact_kernel_dim,
    full_spectrum,
    has_positive_inverse,
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
class Decisions:
    """Everything decided about a stack of N instances, one (N,) array per fact; row [i] is instance i.

    A row is the same record with Python scalars (bool, int, float, str), a
    1-D eigenvector, a witness pair of two ints, a kernel that is a list or
    None and a boundary that is a tuple or None; an index array selects a
    smaller stack.  oracle_stack fills the verdict; the Q_mu classes and the
    scaffold certificates are decide_stack's, and None otherwise.  z_matrix
    is also the M-matrix class, which the census and analyze report as
    m_matrix.  N_ij is the set of S-vertices adjacent to both T-vertices i
    and j, and d_B(k) the scaffold degree of the S-vertex k.  Each
    certificate reads A_G and K only, never the verdict, and when it holds
    implies that H is S-Roth.
    """

    mu: np.ndarray  # float; the integer c where a rational kernel settled the verdict
    multiplicity: np.ndarray  # int
    reason: np.ndarray  # str: one of the REASON_* codes
    is_s_roth: np.ndarray  # bool: reason == REASON_SIGNED
    eigenvector: np.ndarray  # (N, n); unit norm, signed so its S-sum is nonnegative unless mu is multiple
    kernel: np.ndarray  # object: rational basis of ker(Q(H) - mu I) on the exact path (all classes exact), else None
    # the Q_mu classes at mu, all False where classes is False
    classes: np.ndarray | None = None  # bool: 0 < mu < min(D2), so Q_mu is formed and positive definite
    z_matrix: np.ndarray | None = None  # and so an M-matrix: Q_mu is positive definite wherever classes holds
    inverse_positive: np.ndarray | None = None
    minpositive: np.ndarray | None = None
    # every G-edge ij has sum over N_ij of 1/d_B(k) >= 1, in exact arithmetic, and every
    # non-adjacent pair of T-vertices has N_ij nonempty
    harmcond: np.ndarray | None = None
    # (N, 2) int: the T-vertex pair i < j of the first failing G-edge in sorted order, else of the first
    # failing non-adjacent pair; (-1, -1) where harmcond holds (analyze reports it as harmcond_witness)
    witness: np.ndarray | None = None
    gc: np.ndarray | None = None  # the cruder global form: |N_ij| >= max S-degree on every G-edge, N_ij nonempty elsewhere
    bdeg: np.ndarray | None = None  # every T-vertex has scaffold degree at least (t+s)/2; implies harmcond
    st: np.ndarray | None = None  # complete scaffold with s >= t; N_ij is then all of S and the sums are s/t >= 1
    # the degree theorems, for complete scaffolds with t > s only ('none', False and None elsewhere)
    gdeg: np.ndarray | None = None  # str: 'A' if delta(G) > t-s, 'B' if delta(G) = t-s and complement(G) is connected
    deg2: np.ndarray | None = None  # bool: s >= 6 and Delta(G) <= 2
    # object: at delta(G) = t-s with G a join, the first joinee whose G-degrees are all t-s, as a tuple, else ()
    boundary: np.ndarray | None = None  # H is S-Roth exactly where it is ()

    def __len__(self) -> int:
        return len(self.mu)

    def __getitem__(self, i) -> Decisions:
        return Decisions(**{f.name: _row(getattr(self, f.name), i) for f in fields(self)})


def _row(column, i):
    """column[i], with a numpy scalar as a Python one; None for an absent column."""
    if column is None:
        return None
    v = column[i]
    return v.item() if isinstance(v, np.generic) else v


@dataclass(eq=False)
class ReducedMatrix:
    r_mu: np.ndarray  # Q(G) + (s-mu)I, complete scaffolds only
    positive_definite: bool
    rowsums: np.ndarray | None  # row sums of r_mu^{-1}, when PD
    s_roth: bool | None  # every row sum positive, when PD
    gamma: float | None  # sum of rowsums: all entries of r_mu^{-1}, when PD
    gamma_expected: float  # (t - mu)/s; equality is forced by the eigenvector equation


def _stacks(a_g, ks) -> tuple:
    """A_G and K broadcast against each other: (A_G as (N, t, t), K as (N, t, s), leading shape)."""
    a_g, ks = np.asarray(a_g), np.asarray(ks)
    t, s = ks.shape[-2:]
    lead = np.broadcast_shapes(a_g.shape[:-2], ks.shape[:-2])
    return (np.broadcast_to(a_g, lead + (t, t)).reshape(-1, t, t),
            np.broadcast_to(ks, lead + (t, s)).reshape(-1, t, s), lead)


def _oracle(a: np.ndarray, k: np.ndarray, lead: tuple) -> tuple:
    """(the verdicts, the float Q(H) stack (N, n, n) that later steps read off) of the stacks (N, t, t), (N, t, s).

    Q(H) keeps the leading shape lead in its eigensolve."""
    t = k.shape[-2]
    q = signless_laplacian(block_adjacency(a, k))
    n = q.shape[-1]
    pair = smallest_eigenpair(q.reshape(lead + (n, n)))
    mu = np.reshape(pair.mu, -1).astype(float)
    multiplicity = np.reshape(pair.multiplicity, -1).astype(np.int64)
    raw = pair.vector.reshape(-1, n)
    x = sign_normalize(raw, t)
    tol = SIGN_TOL * np.abs(x).max(axis=1, initial=0.0)
    kernel = np.full(len(mu), None, dtype=object)
    c = integer_candidate(mu)
    for i in np.flatnonzero(np.isfinite(c)):
        ci = int(c[i])  # an int, so that a mu rounded up from below 0 is 0.0, not -0.0
        nullity, basis = exact_kernel_dim(q[i], ci)
        if nullity == 0:
            continue
        # the float of an exact entry keeps its sign and a zero stays zero: the signs are read at tolerance 0
        kernel[i], mu[i], multiplicity[i], tol[i] = basis, ci, nullity, 0.0
        if nullity == 1:
            v = np.array([float(e) for e in basis[0]])
            x[i] = sign_normalize(v / np.linalg.norm(v), t)
    multiple = multiplicity > 1
    tol = tol[:, None]
    zero = np.any(np.abs(x) <= tol, axis=1)
    signed = np.all(x[:, t:] > tol, axis=1) & np.all(x[:, :t] < -tol, axis=1)
    reason = np.where(multiple, REASON_MULTIPLE, np.where(
        zero, REASON_ZERO, np.where(signed, REASON_SIGNED, REASON_MIXED)))
    eigenvector = np.where(multiple[:, None], raw, x)
    return Decisions(mu, multiplicity, reason, reason == REASON_SIGNED, eigenvector, kernel), q


def _twin_screen(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Bool (N,): the rows of a stack (N, t, t) of A_G that the twin quotient of the one t x s scaffold k clears as
    S-Roth; none when k has no repeated column, as the quotient would then be Q(H) itself.

    S-vertices with equal columns of k are twins.  With one row and column per distinct column c (multiplicity m,
    degree d), Q(H) has the spectrum of B = [[Q(G) + diag(D1), C diag(sqrt m)], [diag(sqrt m) C^T, diag(d)]] plus
    d_c with multiplicity m_c - 1 (Godsil & Royle 2001, 9.3), and the eigenvector lifts as x_T = y_T,
    x_S = y_c / sqrt(m_c).  The unit vector on c has Rayleigh quotient d_c, so mu(H) = mu(B).  One eigensolve
    serves the stack.  A row is cleared only with tenfold the oracle's margins: mu(B) is no integer candidate,
    B's second eigenvalue and every twin d_c lie above the cluster band of mu, and every lifted entry is signed
    beyond SIGN_TOL.  A row that is not cleared is left to the oracle on the full Q(H).
    """
    t = len(k)
    cols, m = np.unique(k.T, axis=0, return_counts=True)
    if len(m) == k.shape[1]:
        return np.zeros(len(a), dtype=bool)
    root, d = np.sqrt(m), cols.sum(axis=1)
    n = t + len(m)
    b = np.zeros((len(a), n, n))
    b[:, :t, :t] = signless_laplacian(a)
    b[:, range(t), range(t)] += k.sum(axis=1)
    b[:, :t, t:] = cols.T * root
    b[:, t:, :t] = cols * root[:, None]
    b[:, range(t, n), range(t, n)] = d
    es = full_spectrum(b)
    mu = es.values[:, 0]
    band = mu + 10 * CLUSTER_TOL * (1.0 + np.abs(mu))
    simple = (es.values[:, 1] > band) & np.all(d[m > 1] > band[:, None], axis=1)
    # each class's entry once, not m_c times: sign_normalize flips it as it would the whole lift wherever every
    # S-entry has one sign, which a cleared row needs
    x = sign_normalize(np.concatenate([es.vectors[:, :t, 0], es.vectors[:, t:, 0] / root], axis=1), t)
    tol = 10 * SIGN_TOL * np.abs(x).max(axis=1, keepdims=True)
    signed = np.all(x[:, t:] > tol, axis=1) & np.all(x[:, :t] < -tol, axis=1)
    return ~np.isfinite(integer_candidate(mu)) & simple & signed


def oracle_stack(a_g, ks) -> Decisions:
    """The S-Roth oracle for every (A_G, K) pair of a stack: a Decisions record of the verdicts, in order.

    a_g is the t x t adjacency matrix of G or a stack (N, t, t) of them; ks is
    one t x s scaffold or a stack (N, t, s); each broadcasts against the
    other.  Every Q(H) = [[A_G + diag(deg_G + D1), K], [K^T, diag(D2)]] is
    the signless Laplacian of H's block adjacency, and all are solved by one
    stacked eigensolve under full_spectrum's contract: an asymmetric 0/1 A_G
    fails its residual and raises ValueError.

    A verdict is True iff mu(H) is simple and, after flipping the eigenvector
    so its S-sum is nonnegative, every S-entry exceeds SIGN_TOL and every
    T-entry falls below -SIGN_TOL (both sides are checked; the failing side is
    recorded in the reason).  Eigenvalues within INTEGER_TOL of an integer c
    where Q(H) - cI is singular are settled by its rational kernel: its
    nullity is the multiplicity, and the signs of a simple kernel vector are
    read with no tolerance; only those rows are solved one at a time.  Their mu is
    then c and their kernel is kept for the Q_mu classes; elsewhere kernel is None.
    """
    return _oracle(*_stacks(a_g, ks))[0]


def s_roth_oracle(inst: CompositeInstance) -> Decisions:
    """Decide S-Rothness from the smallest eigenpair of Q(H): row [0] of oracle_stack for one instance."""
    return oracle_stack(inst.A, inst.K)[0]


def is_complete_scaffold(inst: CompositeInstance) -> bool:
    return bool(np.all(inst.K == 1))


def _q_mu(q: np.ndarray, t: int, mu) -> np.ndarray:
    """Q_mu = Q[:t, :t] + K (mu I - D2)^{-1} K^T for each Q(H) = [[Q(G) + D1, K], [K^T, D2]] and mu of a stack."""
    k = q[..., :t, t:]
    weights = 1.0 / (np.asarray(mu, dtype=float)[..., None] - np.diagonal(q[..., t:, t:], axis1=-2, axis2=-1))
    return q[..., :t, :t] + (k * weights[..., None, :]) @ np.swapaxes(k, -1, -2)


def _exact_q_mu(q: np.ndarray, t: int, c: int) -> np.ndarray:
    """The integer L*Q_mu = L*Q[:t, :t] - K diag(L/(D2 - c)) K^T of an integer Q(H) at mu = c < min(D2).

    L = lcm(d_B(k) - c) > 0.  int64, or Python ints when L*(largest entry of Q(G) + D1, plus s) passes int64.
    """
    qg, k = q[:t, :t], q[:t, t:]
    gaps = np.diagonal(q)[t:] - c
    lcm = math.lcm(*set(gaps.tolist()))  # not np.unique, as in _certificates
    big = lcm * (int(qg.max()) + k.shape[1]) > np.iinfo(np.int64).max
    qg, k, gaps = (x.astype(object if big else np.int64) for x in (qg, k, gaps))
    return lcm * qg - (k * (lcm // gaps)) @ k.T


def _exact_classes(q: np.ndarray, t: int, c: int) -> tuple:
    """(z_matrix, inverse_positive) of Q_mu at mu = c, exactly at every t, from the integer L*Q_mu of an integer Q(H).

    L > 0, so L*Q_mu has the off-diagonal signs of Q_mu, and (L*Q_mu)^{-1} = Q_mu^{-1}/L those of Q_mu^{-1}.
    """
    mq = _exact_q_mu(q, t, c)
    off = (mq != 0) & ~np.eye(t, dtype=bool)
    # a disconnected off-diagonal pattern makes L*Q_mu block diagonal, and so its inverse, with exact zeros
    return bool(np.all(mq[off] < 0)), is_connected(off) and has_positive_inverse(mq)


def _classify(q: np.ndarray, t: int, d: Decisions) -> np.ndarray:
    """(z_matrix, inverse_positive, minpositive) of Q_mu off a Q(H) stack, each at its verdict's mu, 0 < mu < min(D2).

    A (3, N) bool array.  No eigensolve: for mu < min(D2), Haynsworth inertia
    makes mu the smallest eigenvalue of Q_mu, with the verdict's multiplicity
    and eigenvectors the T-parts of those of Q(H); so with mu > 0 Q_mu is
    positive definite, and a Z-matrix is an M-matrix.  One stacked inverse
    serves the whole stack.  A verdict decided from a rational kernel (mu on
    an integer c: the t-s boundary of complete scaffolds and its relatives)
    has its flags computed from the integer L*Q_mu and the signs of that
    kernel, so borderline zero entries and signs are decided exactly at
    every t (see _exact_classes); only those rows are classified one at a time.
    """
    q_mu = _q_mu(q, t, d.mu)
    z_matrix = q_mu[:, ~np.eye(t, dtype=bool)].max(axis=1, initial=0.0) <= TOL_Z
    inv = np.linalg.inv(q_mu)
    inverse_positive = inv.min(axis=(1, 2)) > INV_POS_TOL * np.abs(inv).max(axis=(1, 2))
    x = sign_normalize(d.eigenvector[:, :t], 0)
    exact = np.not_equal(d.kernel, None)
    # as in the verdict, the float of an exact kernel vector is read at tolerance 0
    tol = np.where(exact, 0.0, SIGN_TOL * np.abs(x).max(axis=1))
    minpositive = (d.multiplicity == 1) & np.all(x > tol[:, None], axis=1)
    flags = np.array([z_matrix, inverse_positive, minpositive])
    # the exact path sets mu to the integer c
    for i in np.flatnonzero(exact):
        flags[:2, i] = _exact_classes(q[i].astype(np.int64), t, int(d.mu[i]))
    return flags


# harmonic-sum certificates on the scaffold


def _certificates(a: np.ndarray, k: np.ndarray) -> tuple:
    """Harmonic condition, its witness T-pair ((-1, -1) where it holds) and gc for a stack (N, t, t), (N, t, s).

    Harmonic sums are exact integers: each S-vertex weighs L / d_B(k), with L
    the lcm of the S-degrees present (a divisor of lcm(1..t)), so a sum is at
    least 1 iff its integer is at least L.  Python ints take over when L is
    too large for int64; the sums are then formed on G-edge pairs only.
    """
    t, s = k.shape[-2:]
    if t == 1:  # no pair of T-vertices, so every pair condition holds
        return np.ones(len(k), dtype=bool), np.full((len(k), 2), -1), np.ones(len(k), dtype=bool)
    k = k.astype(np.int64)
    kt = np.swapaxes(k, -1, -2)
    d2 = k.sum(axis=1)
    iu, ju = np.triu_indices(t, 1)  # vertex pairs in sorted order
    edge = a[:, iu, ju] != 0
    common = (k @ kt)[:, iu, ju]  # |N_ij|
    lcm = math.lcm(*set(d2[d2 > 0].tolist()))  # not np.unique, whose first call imports numpy.ma (10-15 ms)
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
    first = np.where(low.any(axis=1), low.argmax(axis=1), np.where(empty.any(axis=1), empty.argmax(axis=1), -1))
    witness = np.where((first < 0)[:, None], -1, np.stack([iu[first], ju[first]], axis=1))
    return first < 0, witness, gc


def alpha_of(inst: CompositeInstance, mu: float) -> float:
    """alpha = s/(t - mu) for complete scaffolds; alpha > 1 iff mu > t-s."""
    if not is_complete_scaffold(inst):
        raise ValueError("alpha is defined for complete scaffolds only")
    if mu >= inst.t:
        raise ValueError(f"mu={mu} >= t={inst.t}")
    return inst.s / (inst.t - mu)


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
    return ReducedMatrix(r_mu=r, positive_definite=pd, rowsums=rowsums, s_roth=s_roth, gamma=gamma,
                         gamma_expected=(inst.t - mu) / inst.s)


def decide_stack(a_g, ks) -> Decisions:
    """The oracle, the Q_mu classes at each verdict's mu and the scaffold certificates: one Decisions record.

    Takes A_G and K as oracle_stack does.  These are the steps the census and
    the CLI report share; each runs once per stack: one stacked eigensolve
    for the verdicts, one stacked Q_mu and inverse for the classes on the
    rows 0 < mu < min(D2), integer array operations for the certificates,
    and the Q_mu classes reuse each verdict's exact kernel and read Q_mu off
    the verdicts' Q(H).  join_decomposition runs only on rows at the
    boundary delta(G) = t-s of a complete scaffold with t > s.
    """
    a, k, lead = _stacks(a_g, ks)
    d, q = _oracle(a, k, lead)
    t, s = k.shape[-2:]
    # Q_mu exists for mu < min(D2) and is singular at mu = 0, which the exact path sets exactly where H is bipartite
    d.classes = (d.mu > 0) & (d.mu < np.diagonal(q[:, t:, t:], axis1=1, axis2=2).min(axis=1))
    flags = np.zeros((3, len(d)), dtype=bool)
    flags[:, d.classes] = _classify(q[d.classes], t, d[d.classes])
    d.z_matrix, d.inverse_positive, d.minpositive = flags
    d.harmcond, d.witness, d.gc = _certificates(a, k)
    d.bdeg = np.all(2 * k.sum(axis=-1) >= t + s, axis=-1)
    complete = np.all(k == 1, axis=(-2, -1))
    d.st = complete & (s >= t)
    deg = a.sum(axis=-1)
    margin = deg.min(axis=-1) - (t - s)
    beyond = complete & (t > s)
    d.deg2 = beyond & (s >= 6) & (deg.max(axis=-1) <= 2)
    d.boundary = np.full(len(d), None, dtype=object)
    for i in np.flatnonzero(beyond & (margin == 0)):
        joinees = join_decomposition(a[i])
        if len(joinees) > 1:
            d.boundary[i] = next((tuple(p) for p in joinees if np.all(deg[i, p] == t - s)), ())
    d.gdeg = np.where(beyond & (margin > 0), "A",
                      np.where(beyond & (margin == 0) & np.equal(d.boundary, None), "B", "none"))
    return d


def decide_instance(inst: CompositeInstance) -> Decisions:
    """decide_stack for one instance: row [0] of its record."""
    return decide_stack(inst.A, inst.K)[0]
