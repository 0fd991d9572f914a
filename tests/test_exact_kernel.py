"""The modular exact engine of spectra against the Fraction references in exact_evidence.

Reduced row echelon form is unique, so the engine must give exactly the
kernel bases of the Fraction Gauss-Jordan, and the inverses read from the
kernel of [M | I] must be those of the Fraction inverse.  The last cases
force the engine's rare branches: an unlucky first prime, entries too large
for one prime, nullity of at least 2, a singular [M | I] and an inverse
sign that the float bound cannot separate from zero.
"""

import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import rothlab.spectra as spectra
from exact_evidence import _fraction_inverse, fraction_gauss_jordan
from rothlab.graphs import block_adjacency, compose, cycle_graph
from rothlab.spectra import _primes, _rational_kernel, exact_kernel_dim, has_positive_inverse, signless_laplacian

SETTINGS = settings(max_examples=150, deadline=None, database=None, derandomize=True)
SMALL = st.integers(-3, 3)
P0 = next(_primes())  # the engine's first prime


def _matrix(draw, rows: int, cols: int, entries=SMALL) -> list:
    return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))


@st.composite
def of_rank(draw, n=st.integers(1, 6), deficiency=0):
    """(square integer matrix of exactly the drawn rank, that rank), rows and columns shuffled."""
    n = draw(n)
    rank = draw(st.integers(0, n - deficiency))
    u = np.vstack([np.eye(rank, dtype=np.int64), np.array(_matrix(draw, n - rank, rank), dtype=np.int64).reshape(n - rank, rank)])
    v = np.hstack([np.eye(rank, dtype=np.int64), np.array(_matrix(draw, rank, n - rank), dtype=np.int64).reshape(rank, n - rank)])
    m = (u @ v)[draw(st.permutations(range(n)))][:, draw(st.permutations(range(n)))]
    return m.tolist(), rank


def _reference_kernel(m: list, c: int = 0) -> tuple:
    """(nullity, basis) of m - cI, m any rows, from the Fraction reduced row echelon form."""
    cols = len(m[0])
    a = [[m[i][j] - (c if i == j else 0) for j in range(cols)] for i in range(len(m))]
    pivots = fraction_gauss_jordan(a)
    pivot_cols = {pc for _, pc in pivots}
    basis = []
    for fc in (j for j in range(cols) if j not in pivot_cols):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in pivots:
            v[pc] = -a[r][fc]
        basis.append(v)
    return len(basis), basis


def _engine_kernel(m) -> tuple:
    free, basis = _rational_kernel(np.array(m, dtype=np.int64))
    assert all(isinstance(v, Fraction) for vec in basis for v in vec)
    return len(free), basis


def _engine_inverse(m: list) -> list | None:
    """The inverse of m read from the engine's kernel of [m | I]; None when a pivot lands in the I block."""
    n = len(m)
    free, basis = _rational_kernel(np.hstack([np.array(m, dtype=np.int64), np.eye(n, dtype=np.int64)]))
    if free != list(range(n, 2 * n)):
        return None
    return [[-basis[j][i] for j in range(n)] for i in range(n)]


def _positive(inverse) -> bool:
    return inverse is not None and all(v > 0 for row in inverse for v in row)


def _counting(name: str):
    """Patch spectra.name with a wrapper that counts its calls."""
    return mock.patch.object(spectra, name, wraps=getattr(spectra, name))


@SETTINGS
@given(of_rank(), st.integers(-2, 2))
def test_integer_kernel_matches_fraction_reference(case, c):
    m, rank = case
    n = len(m)
    shifted = np.array(m, dtype=np.int64) + c * np.eye(n, dtype=np.int64)
    nullity, basis = exact_kernel_dim(shifted, c)
    assert (nullity, basis) == _reference_kernel(m) and nullity == n - rank
    assert all(isinstance(v, Fraction) for vec in basis for v in vec)
    assert _engine_inverse(m) == _fraction_inverse(m)
    assert (_engine_inverse(m) is None) == (rank < n)
    assert has_positive_inverse(np.array(m, dtype=np.int64)) == _positive(_fraction_inverse(m))


@SETTINGS
@given(st.integers(1, 6), st.integers(0, 2), st.data())
def test_wide_inputs_match_fraction_reference(n, extra, data):
    m = _matrix(data.draw, n, n + extra)
    assert _engine_kernel(m) == _reference_kernel(m)
    # [M | I], the shape whose kernel gives the inverse
    wide = [row + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    assert _engine_kernel(wide) == _reference_kernel(wide)


@SETTINGS
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)),
                                min_size=n, max_size=n), min_size=n, max_size=n)))
def test_fraction_rows_match_fraction_reference(m):
    # a row scaled to integers by a positive factor keeps the reduced form, and the inverse's signs
    scaled = [[int(v * math.lcm(*(e.denominator for e in row))) for v in row] for row in m]
    assert _engine_kernel(scaled) == _reference_kernel(m)
    assert has_positive_inverse(np.array(scaled, dtype=np.int64)) == _positive(_fraction_inverse(m))


def test_analyze_exact_slot_c36():
    # the analyze batch's largest exact-path slot: 3 vs C_36, order 39, mu = 3
    inst = compose(3, cycle_graph(36))
    q = signless_laplacian(block_adjacency(inst.A, inst.K))
    assert abs(np.linalg.eigvalsh(q)[0] - 3.0) < 1e-9
    nullity, basis = exact_kernel_dim(q, 3)
    assert nullity >= 1
    assert (nullity, basis) == _reference_kernel(np.rint(q).astype(np.int64).tolist(), 3)


@SETTINGS
@given(of_rank(st.integers(1, 5), deficiency=1), st.data())
def test_unlucky_first_prime(case, data):
    # m = b + P0 e reduces to b modulo the first prime, and has a larger rank over Q
    b, rank = case
    n = len(b)
    e = np.array(_matrix(data.draw, n, n, st.integers(-2, 2)), dtype=np.int64).reshape(n, n)
    m = (np.array(b, dtype=np.int64) + P0 * e).tolist()
    ref = _reference_kernel(m)
    assume(ref[0] < n - rank)
    with _counting("_rref_mod") as rref:
        assert exact_kernel_dim(np.array(m, dtype=np.int64), 0) == ref
    assert rref.call_count >= 2
    assert _engine_inverse(m) == _fraction_inverse(m)


@SETTINGS
@given(st.integers(2, 4), st.data())
def test_entries_that_need_crt(n, data):
    # m x = 0 for x = (x_1, ..., x_{n-1}, 1), a chain m_i x_i = d_i x_{i+1}: the kernel entries are
    # products of ratios of the drawn sizes, too large for rational reconstruction modulo one prime
    sizes = data.draw(st.lists(st.integers(2**16, 2**40), min_size=2 * n - 2, max_size=2 * n - 2))
    m = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        m[i][i], m[i][i + 1] = sizes[i], -sizes[n - 1 + i]
    ref = _reference_kernel(m)
    assume(any(max(abs(v.numerator), v.denominator) > math.isqrt(P0 // 2) for v in ref[1][0]))
    with _counting("_rref_mod") as rref:
        assert exact_kernel_dim(np.array(m, dtype=np.int64), 0) == ref
    assert rref.call_count >= 2


@SETTINGS
@given(of_rank(st.integers(2, 6), deficiency=2), st.integers(-2, 2))
def test_nullity_two_or_more(case, c):
    m, rank = case
    n = len(m)
    nullity, basis = exact_kernel_dim(np.array(m, dtype=np.int64) + c * np.eye(n, dtype=np.int64), c)
    assert nullity >= 2 and (nullity, basis) == _reference_kernel(m)


@SETTINGS
@given(of_rank(deficiency=1))
def test_singular_m_with_identity(case):
    # no sign bound holds for a singular m, so the kernel of [m | I] decides: a pivot lands in the I block
    m, _ = case
    assert _engine_inverse(m) is None and _fraction_inverse(m) is None
    with _counting("_rational_kernel") as kernel:
        assert not has_positive_inverse(np.array(m, dtype=np.int64))
    assert kernel.call_count == 1


def _det(x: list) -> int:
    """Leibniz's determinant of a small integer matrix."""
    n = len(x)
    total = 0
    for p in itertools.permutations(range(n)):
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(x[i][p[i]] for i in range(n))
    return total


@SETTINGS
@given(st.integers(2, 5).flatmap(lambda n: st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                                                    min_size=n, max_size=n)))
def test_inverse_sign_the_bound_cannot_separate(x):
    # m = |det x| x^{-1} is an integer matrix whose inverse x / |det x| is nonnegative with exact zeros
    # where x has them: the float bound proves no sign negative and cannot separate a zero, so the engine decides
    det = _det(x)
    assume(det != 0 and any(0 in row for row in x))
    m = [[int(abs(det) * v) for v in row] for row in _fraction_inverse(x)]
    with _counting("_rational_kernel") as kernel:
        assert not has_positive_inverse(np.array(m, dtype=np.int64))
    assert kernel.call_count == 1
    assert _engine_inverse(m) == _fraction_inverse(m) == [[Fraction(v, abs(det)) for v in row] for row in x]
