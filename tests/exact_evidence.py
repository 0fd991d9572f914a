"""Row-by-row proof of census verdicts, in integer and Fraction arithmetic.

A census row's s_roth, m_matrix and inv_positive flags rest on three facts
about Q = Q(H): the multiplicity of its smallest eigenvalue mu, the signs of
the mu-eigenvector x, and the matrix classes of the Schur complement Q_mu.
Floating point settles a fact only when the quantity it rests on is many
orders of magnitude farther from the decision line than the a-posteriori
error of the eigensolve.  Every other row is settled exactly here:

- phi(Q) = det(lambda I - Q) is real-rooted, and so is every divisor of it,
  so Descartes' rule of signs applied to p(r - y) counts the roots of p below
  a rational r exactly.  mu has multiplicity k when phi has k roots below r
  and its squarefree part has one.
- For a simple mu, x_v = 0 iff mu is also an eigenvalue of Q - v (row and
  column v deleted; Cauchy interlacing), i.e. iff gcd(phi(Q), phi(Q - v)) has
  a root below r.
- At an integer mu = c, Q_mu = Q_TT - Q_TS (Q_SS - cI)^{-1} Q_ST is rational;
  its Z pattern, positive definiteness (leading minors) and inverse are
  computed in Fractions.

Nothing here calls the oracle or the matrix-class code under test: the
package is used only to load and compose scaffolds, build Q(H) and compute
an exact kernel dimension.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from rothlab.census import load_scaffolds
from rothlab.graphs import block_adjacency, compose, encode_graph6
from rothlab.spectra import exact_kernel_dim, signless_laplacian

SEP = 1e-6  # float gaps and Q_mu class margins below this are decided exactly


def charpoly(q) -> list:
    """Integer coefficients of det(lambda I - q), leading first (Faddeev-LeVerrier)."""
    q = np.asarray(q)
    if not np.array_equal(q, np.rint(q)):
        raise ValueError("charpoly needs an integer matrix")
    a = np.rint(q).astype(np.int64).astype(object)
    n = a.shape[0]
    ident = np.identity(n, dtype=np.int64).astype(object)
    coeffs = [1]
    m = np.zeros((n, n), dtype=np.int64).astype(object)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * ident
        c = -int(np.trace(a @ m))
        assert c % k == 0
        coeffs.append(c // k)
    return coeffs


def _trim(p: list) -> list:
    i = 0
    while i < len(p) - 1 and p[i] == 0:
        i += 1
    return p[i:]


def _divmod(a: list, b: list) -> tuple:
    a = [Fraction(v) for v in _trim(a)]
    b = [Fraction(v) for v in _trim(b)]
    if len(a) < len(b):
        return [Fraction(0)], a
    quot = []
    for i in range(len(a) - len(b) + 1):
        f = a[i] / b[0]
        quot.append(f)
        for j, bj in enumerate(b):
            a[i + j] -= f * bj
    return quot, _trim(a[len(a) - len(b) + 1:] or [Fraction(0)])


def poly_gcd(a: list, b: list) -> list:
    """Monic gcd over the rationals, leading coefficient first."""
    a, b = _trim(list(a)), _trim(list(b))
    while b != [0]:
        a, b = b, _divmod(a, b)[1]
    return [Fraction(v) / a[0] for v in a]


def squarefree(p: list) -> list:
    """p divided by gcd(p, p'): the same roots, each simple."""
    d = len(p) - 1
    deriv = [c * (d - i) for i, c in enumerate(p[:-1])]
    quot, rem = _divmod(p, poly_gcd(p, deriv))
    assert rem == [0]
    return quot


def roots_below(p: list, r: Fraction) -> int:
    """Roots of a real-rooted p strictly below r, with multiplicity.

    The roots below r are the positive roots of p(r - y), which Descartes'
    rule of signs counts exactly when every root is real.
    """
    c = [Fraction(v) for v in _trim(p)]
    n = len(c)
    for i in range(n - 1):  # Taylor shift: c becomes p(r + z)
        for j in range(1, n - i):
            c[j] += r * c[j - 1]
    d = n - 1
    signs = [(-1) ** (d - i) * (1 if v > 0 else -1) for i, v in enumerate(c) if v != 0]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def exact_q_mu(q: np.ndarray, t: int, c: int) -> list:
    """Q_TT - Q_TS (Q_SS - cI)^{-1} Q_ST over Fraction; Q_SS is diagonal (S independent)."""
    q = np.rint(q).astype(np.int64)
    n = q.shape[0]
    d = [Fraction(1, int(q[k, k]) - c) for k in range(t, n)]
    return [[int(q[i, j]) - sum(int(q[i, k]) * d[k - t] * int(q[k, j]) for k in range(t, n))
             for j in range(t)] for i in range(t)]


def fraction_gauss_jordan(a: list) -> list:
    """Reference Gauss-Jordan over Fraction: a becomes its reduced row echelon form, in place.

    Returns the pivot positions [(row, col)] in column order.  The package's
    modular engine (spectra._rational_kernel) is checked against this.
    """
    a[:] = [[Fraction(v) for v in row] for row in a]
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


def _fraction_inverse(m: list) -> list | None:
    """Gauss-Jordan inverse over Fraction; None when m is singular."""
    n = len(m)
    a = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        a[col] = [v / a[col][col] for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def leading_minors(m: list) -> list:
    """Determinants of the leading principal submatrices, by elimination over Fraction."""
    minors = []
    for k in range(1, len(m) + 1):
        a = [list(row[:k]) for row in m[:k]]
        det = Fraction(1)
        for col in range(k):
            piv = next((r for r in range(col, k) if a[r][col] != 0), None)
            if piv is None:
                det = Fraction(0)
                break
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                det = -det
            det *= a[col][col]
            for r in range(col + 1, k):
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        minors.append(det)
    return minors


@dataclass
class RowProof:
    graph6: str
    multiplicity: int
    s_roth: bool
    m_matrix: bool
    inv_positive: bool
    exact_spectrum: bool  # multiplicity or a sign settled in exact arithmetic
    exact_q_mu: bool  # matrix classes settled from the rational Q_mu


def _exact_classes(q: np.ndarray, t: int, mu: float) -> tuple:
    c = round(mu)
    assert abs(mu - c) <= 1e-9 and exact_kernel_dim(q, c)[0] >= 1, (
        f"Q_mu at mu={mu!r} is near a class boundary and mu is not an integer")
    mq = exact_q_mu(q, t, c)
    z = all(mq[i][j] <= 0 for i in range(t) for j in range(t) if i != j)
    pd = all(v > 0 for v in leading_minors(mq))
    inv = _fraction_inverse(mq)
    inv_pos = inv is not None and all(v > 0 for row in inv for v in row)
    return z and pd, inv_pos


def prove_row(inst) -> RowProof:
    """Multiplicity, S-Roth, M-matrix and inverse-positive flags of one instance, proved."""
    t = inst.t
    b6 = encode_graph6(block_adjacency(0, inst.K[None]))[0]
    q = signless_laplacian(block_adjacency(inst.A, inst.K))
    vals, vecs = np.linalg.eigh(q)
    res = float(np.linalg.norm(q @ vecs - vecs * vals))
    assert res < 1e-3 * SEP
    mu = float(vals[0])
    k = int(np.count_nonzero(vals - mu <= SEP))
    r = Fraction((float(vals[k - 1]) + float(vals[k])) / 2)
    phi = None
    exact_spectrum = False

    if k > 1:
        phi = charpoly(q)
        assert roots_below(squarefree(phi), r) == 1 and roots_below(phi, r) == k
        s_roth = False
        exact_spectrum = True
    else:
        # Davis-Kahan: the computed unit eigenvector is within sqrt(2)*res/gap
        # of x, so the sign of a larger entry is exact; the rest must be zeros
        x = vecs[:, 0] if vecs[t:, 0].sum() > 0 else -vecs[:, 0]
        zero = np.abs(x) <= 1e3 * res / (vals[1] - mu)
        for v in np.flatnonzero(zero):
            phi = phi or charpoly(q)
            keep = [i for i in range(q.shape[0]) if i != v]
            common = poly_gcd(phi, charpoly(q[np.ix_(keep, keep)]))
            assert roots_below(common, r) == 1, (
                f"entry {v} of {b6} is {x[v]:.1e} but not exactly zero")
            exact_spectrum = True
        s_roth = not zero.any() and bool((x[t:] > 0).all() and (x[:t] < 0).all())

    qs = np.diag(q)[t:]
    q_mu = q[:t, :t] - (q[:t, t:] / (qs - mu)) @ q[t:, :t]
    off = q_mu[~np.eye(t, dtype=bool)].max()
    inv = np.linalg.inv(q_mu)
    inv_min = inv.min() / np.abs(inv).max()
    lam1 = np.linalg.eigvalsh(q_mu)[0]
    exact_q = min(abs(off), abs(inv_min), lam1) < SEP
    if exact_q:
        m_matrix, inv_positive = _exact_classes(q, t, mu)
    else:  # lam1 >= SEP: Q_mu is positive definite, so an M-matrix iff a Z-matrix
        m_matrix, inv_positive = bool(off < 0), bool(inv_min > 0)
    return RowProof(b6, k, s_roth, m_matrix, inv_positive,
                    exact_spectrum, exact_q)


@dataclass
class CensusProof:
    total: int = 0
    s_roth: int = 0
    m_matrix: int = 0
    inv_positive: int = 0
    multiple: dict = field(default_factory=dict)  # graph6 -> multiplicity > 1
    exact_spectrum: int = 0  # rows whose verdict needed exact arithmetic
    exact_q_mu: list = field(default_factory=list)  # graph6 of rows with exact Q_mu classes
    disagreements: list = field(default_factory=list)  # (graph6, flag, census, proved)
    rows: dict = field(default_factory=dict)  # graph6 -> the census detail row


def prove_census(t: int, s: int, g, out_dir: str) -> CensusProof:
    """Prove every row of the detail CSV that run_census wrote to out_dir.

    Rows are matched to the cached scaffolds in order and by graph6.  Each
    census flag is compared with the proved value; differences are listed.
    """
    with open(os.path.join(out_dir, f"classify_t{t}_s{s}.csv")) as fh:
        rows = list(csv.DictReader(fh))
    scaffolds = load_scaffolds(t, s, out_dir)
    assert len(rows) == len(scaffolds)
    proof = CensusProof()
    for k, row in zip(scaffolds, rows):
        p = prove_row(compose(s, g, k))
        assert p.graph6 == row["graph6"]
        proof.rows[p.graph6] = row
        proof.total += 1
        proof.s_roth += p.s_roth
        proof.m_matrix += p.m_matrix
        proof.inv_positive += p.inv_positive
        proof.exact_spectrum += p.exact_spectrum
        if p.multiplicity > 1:
            proof.multiple[p.graph6] = p.multiplicity
        if p.exact_q_mu:
            proof.exact_q_mu.append(p.graph6)
        proved = {"multiplicity": str(p.multiplicity), "s_roth": str(int(p.s_roth)),
                  "m_matrix": str(int(p.m_matrix)), "inv_positive": str(int(p.inv_positive))}
        proof.disagreements += [(p.graph6, key, row[key], val)
                                for key, val in proved.items() if row[key] != val]
    return proof
