"""Trace brackets, circulant and path block inverses."""

import numpy as np
import pytest

from rothlab.bounds import (
    bai_golub_trace_bounds,
    cycle_block_bounds,
    path_block_rowsums,
)
from rothlab.graphs import cycle_graph, path_graph
from rothlab.spectra import signless_laplacian


def test_bai_golub_identity_is_tight():
    for n in (1, 3, 10):
        lo, hi = bai_golub_trace_bounds(np.eye(n), 0.5, 2.0)
        assert lo == pytest.approx(n)
        assert hi == pytest.approx(n)


def test_bai_golub_two_point_spectrum():
    # two distinct eigenvalues: the quadrature is exact at either endpoint
    a = np.diag([1.0, 2.0])
    lo, hi = bai_golub_trace_bounds(a, 1.0, 2.0)
    assert lo == pytest.approx(1.5)
    assert hi == pytest.approx(1.5)


def test_bai_golub_circulant_exact_trace():
    q = signless_laplacian(cycle_graph(6)) + 3.0 * np.eye(6)
    lo, hi = bai_golub_trace_bounds(q, 3.0, 7.0)
    truth = float(np.trace(np.linalg.inv(q)))
    assert lo <= truth + 1e-12
    assert truth <= hi + 1e-12


def test_bai_golub_errors():
    with pytest.raises(ValueError):
        bai_golub_trace_bounds(np.eye(2), 0.0, 1.0)
    with pytest.raises(ValueError):
        bai_golub_trace_bounds(np.diag([1.0, 5.0]), 1.0, 2.0)


def test_bai_golub_random_pd():
    rng = np.random.default_rng(30)
    for _ in range(500):
        n = int(rng.integers(2, 12))
        m = rng.normal(size=(n, n))
        a_mat = m @ m.T + 0.5 * np.eye(n)
        vals = np.linalg.eigvalsh(a_mat)
        a, b = float(vals[0]), float(vals[-1])
        lo, hi = bai_golub_trace_bounds(a_mat, a, b)
        truth = float(np.trace(np.linalg.inv(a_mat)))
        assert lo <= truth + 1e-8 * abs(truth)
        assert truth <= hi + 1e-8 * abs(truth)


def test_cycle_block_reference_values():
    rep = cycle_block_bounds(3, 1.0)
    assert rep.diag_bound == pytest.approx(0.5)
    rep = cycle_block_bounds(12, 100.0)
    assert rep.observed_diag == pytest.approx(1.0 / 102.0, rel=1e-3)


def test_cycle_block_regime_of_interest():
    # lambda > 2 keeps the diagonal below 0.3 and the ratio below 1/3
    for lam in (2.05, 2.5, 4.0):
        rep = cycle_block_bounds(9, lam)
        assert rep.diag_bound < 0.3
        assert rep.offdiag_ratio < 1.0 / 3.0


def test_cycle_block_invariants_grid():
    ks = [3, 4, 5, 8, 9, 13, 16, 21, 25, 34, 55, 89, 144, 200]
    lams = [0.05, 0.3, 0.5, 1.0, 2.1, 3.0, 3.7, 9.0, 30.0, 100.0]
    for k in ks:
        for lam in lams:
            rep = cycle_block_bounds(k, lam)
            assert rep.trace_lower <= rep.observed_trace + 1e-8
            assert rep.observed_trace <= rep.trace_upper + 1e-8
            assert rep.observed_diag <= rep.diag_bound + 1e-10
            assert rep.observed_offdiag_ratio <= rep.offdiag_ratio + 1e-10


def test_cycle_block_inverse_is_circulant():
    q = signless_laplacian(cycle_graph(11)) + 2.3 * np.eye(11)
    inv = np.linalg.inv(q)
    assert np.abs(np.diag(inv) - inv[0, 0]).max() < 1e-12


def test_cycle_block_errors():
    with pytest.raises(ValueError):
        cycle_block_bounds(2, 1.0)
    with pytest.raises(ValueError):
        cycle_block_bounds(5, 0.0)


def test_path_rowsums_match_direct():
    for k in (3, 7, 20, 41, 60):
        for lam in (2.01, 3.0, 5.5, 10.0):
            rows = path_block_rowsums(k, 6, 6.0 - lam)
            b = signless_laplacian(path_graph(k)) + lam * np.eye(k)
            direct = np.linalg.solve(b, np.ones(k))
            assert np.abs(rows - direct).max() < 1e-10


def test_path_rowsums_positive_for_s6():
    # s = 6 against long paths: all row sums stay positive, at mu = 3.9 near
    # the bound mu < 4 that holds for s = 6 against any path, and at mu = 0.5
    for k in range(3, 61):
        for mu in (3.9, 0.5):
            rows = path_block_rowsums(k, 6, mu)
            assert rows.min() > 0


def test_path_corner_entry_negative():
    # the corner of the circulant inverse goes negative as lambda grows,
    # which is what drives the end-row sums up rather than down
    for k in range(3, 21):
        for lam in (2.1, 3.0, 5.0):
            q = signless_laplacian(cycle_graph(k)) + lam * np.eye(k)
            inv = np.linalg.inv(q)
            if k >= 4:
                assert inv[0, k - 1] < inv[0, 0]


def test_path_rowsums_failure_case():
    # s = 4 against P_60 sits past the threshold: at the composite smallest
    # eigenvalue some row sum goes nonpositive, matching the failed property
    from rothlab.analysis import s_roth_oracle
    from rothlab.graphs import compose

    inst = compose(4, path_graph(60))
    v = s_roth_oracle(inst)
    assert not v.is_s_roth
    assert 4.0 - v.mu > 0
    rows = path_block_rowsums(60, 4, v.mu)
    assert rows.min() <= 1e-10


def test_path_rowsums_errors():
    with pytest.raises(ValueError):
        path_block_rowsums(2, 6, 1.0)
    with pytest.raises(ValueError):
        path_block_rowsums(10, 4, 4.0)
