"""The fraction-free kernel of spectra against the Fraction reference in exact_evidence.

Reduced row echelon form is unique, so the integer elimination must give
exactly the pivots, reduced rows, kernel bases and inverses of the Fraction
Gauss-Jordan it replaced.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_evidence import _fraction_inverse, fraction_gauss_jordan
from rothlab.graphs import block_adjacency, compose, cycle_graph
from rothlab.spectra import _gauss_jordan, exact_inverse, exact_kernel_dim, signless_laplacian

SETTINGS = settings(max_examples=150, deadline=None, database=None, derandomize=True)
SMALL = st.integers(-3, 3)


def _matrix(draw, rows: int, cols: int, entries=SMALL) -> list:
    return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))


@st.composite
def of_rank(draw):
    """(square integer matrix of exactly the drawn rank, that rank), rows and columns shuffled."""
    n = draw(st.integers(1, 6))
    rank = draw(st.integers(0, n))
    u = np.vstack([np.eye(rank, dtype=np.int64), np.array(_matrix(draw, n - rank, rank), dtype=np.int64).reshape(n - rank, rank)])
    v = np.hstack([np.eye(rank, dtype=np.int64), np.array(_matrix(draw, rank, n - rank), dtype=np.int64).reshape(rank, n - rank)])
    m = (u @ v)[draw(st.permutations(range(n)))][:, draw(st.permutations(range(n)))]
    return m.tolist(), rank


def _reference_kernel(m: list, c: int) -> tuple:
    """(nullity, basis) of m - cI from the Fraction reduced row echelon form."""
    n = len(m)
    a = [[m[i][j] - (c if i == j else 0) for j in range(n)] for i in range(n)]
    pivots = fraction_gauss_jordan(a)
    pivot_cols = {pc for _, pc in pivots}
    basis = []
    for fc in (j for j in range(n) if j not in pivot_cols):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in pivots:
            v[pc] = -a[r][fc]
        basis.append(v)
    return len(basis), basis


def _same_reduction(rows: list) -> bool:
    """Pivots and reduced row echelon form equal the Fraction reference's."""
    ref = [list(r) for r in rows]
    ref_pivots = fraction_gauss_jordan(ref)
    got = [list(r) for r in rows]
    pivots, d = _gauss_jordan(got)
    return pivots == ref_pivots and [[Fraction(v, d) for v in r] for r in got] == ref


@SETTINGS
@given(of_rank(), st.integers(-2, 2))
def test_integer_kernel_matches_fraction_reference(case, c):
    m, rank = case
    n = len(m)
    assert _same_reduction(m)
    assert len(_gauss_jordan([list(r) for r in m])[0]) == rank
    shifted = np.array(m, dtype=np.int64) + c * np.eye(n, dtype=np.int64)
    nullity, basis = exact_kernel_dim(shifted, c)
    assert (nullity, basis) == _reference_kernel(m, 0) and nullity == n - rank
    assert all(isinstance(v, Fraction) for vec in basis for v in vec)
    assert exact_inverse(m) == _fraction_inverse(m)
    assert (exact_inverse(m) is None) == (rank < n)


@SETTINGS
@given(st.integers(1, 6), st.integers(0, 2), st.data())
def test_wide_inputs_match_fraction_reference(n, extra, data):
    m = _matrix(data.draw, n, n + extra)
    # [M | I], the shape exact_inverse reduces
    assert _same_reduction([row + [int(i == j) for j in range(n)] for i, row in enumerate(m)])


@SETTINGS
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)),
                                min_size=n, max_size=n), min_size=n, max_size=n)))
def test_fraction_rows_match_fraction_reference(m):
    assert _same_reduction(m)
    assert exact_inverse(m) == _fraction_inverse(m)


def test_analyze_exact_slot_c36():
    # the analyze batch's largest exact-path slot: 3 vs C_36, order 39, mu = 3
    inst = compose(3, cycle_graph(36))
    q = signless_laplacian(block_adjacency(inst.A, inst.K))
    assert abs(np.linalg.eigvalsh(q)[0] - 3.0) < 1e-9
    nullity, basis = exact_kernel_dim(q, 3)
    assert nullity >= 1
    assert (nullity, basis) == _reference_kernel(np.rint(q).astype(np.int64).tolist(), 3)
