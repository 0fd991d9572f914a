"""Signless Laplacians, eigensolver contracts, exact kernel, spectral bounds."""

from fractions import Fraction

import numpy as np
import pytest

import rothlab
import rothlab.analysis
import rothlab.bounds
import rothlab.census
import rothlab.cli
import rothlab.enumeration
import rothlab.spectra
from conftest import adjacency, random_connected_graph, random_instance
from paper_tools import complete_bipartite, join
from rothlab.graphs import (
    Graph,
    block_adjacency,
    complete_graph,
    compose,
    cycle_graph,
    empty_graph,
    path_graph,
)
from rothlab.spectra import (
    EIG_TOL,
    EigensolverError,
    exact_kernel_dim,
    full_spectrum,
    integer_candidate,
    mu_lower_bound_degrees,
    mu_upper_bound_cut,
    sign_normalize,
    signless_laplacian,
    smallest_eigenpair,
)


def test_spectral_layer_binds_no_graph():
    # the program sees adjacency arrays only; Graph is left in rothlab.graphs for parse_graph6
    for module in (rothlab, rothlab.spectra, rothlab.analysis, rothlab.bounds, rothlab.census, rothlab.cli,
                   rothlab.enumeration):
        assert not any(value is Graph for value in vars(module).values()), module.__name__


def test_signless_laplacian_entries():
    q = signless_laplacian(complete_graph(2))
    assert np.array_equal(q, [[1, 1], [1, 1]])
    q3 = signless_laplacian(cycle_graph(3))
    vals = np.linalg.eigvalsh(q3)
    assert np.allclose(vals, [1, 1, 4], atol=1e-12)


def test_bipartite_kernel_counts_components():
    # kernel dimension of Q = number of bipartite components
    g = complete_bipartite(2, 3)
    vals = np.linalg.eigvalsh(signless_laplacian(g))
    assert (np.abs(vals) < 1e-9).sum() == 1
    two = adjacency(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    vals = np.linalg.eigvalsh(signless_laplacian(two))
    assert (np.abs(vals) < 1e-9).sum() == 4


def test_full_spectrum_contracts():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        m = rng.normal(size=(n, n))
        m = (m + m.T) / 2
        es = full_spectrum(m)
        assert (np.diff(es.values) >= -1e-12).all()
        scale = 1.0 + np.abs(m).sum(axis=1).max()
        assert es.residual_bound <= EIG_TOL * scale
    with pytest.raises(ValueError):
        full_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_full_spectrum_fails_closed(bad):
    # a comparison with NaN is False, so every contract check is written as not (x <= bound)
    m = np.array([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(EigensolverError):
        full_spectrum(m)
    stack = np.stack([np.eye(3), signless_laplacian(cycle_graph(3)), np.eye(3)])
    stack[1, 2, 2] = bad
    with pytest.raises(EigensolverError):
        full_spectrum(stack)
    with pytest.raises(EigensolverError):
        smallest_eigenpair(m)
    with pytest.raises(ValueError, match="square"):  # a 1-D input is refused before the solve
        full_spectrum(m[0])


def test_asymmetric_input_is_refused_by_every_entry():
    # eigh reads the lower triangle; the residual against the matrix as given refuses the rest
    a = complete_graph(4)
    a[0, 1] = 0
    k = np.ones((4, 3), dtype=np.int64)
    stack = np.repeat(complete_graph(4)[None], 8, axis=0)
    stack[5] = a
    for entry in (rothlab.analysis.oracle_stack, rothlab.analysis.decide_stack):
        for g in (a, stack):
            with pytest.raises(ValueError, match="not symmetric"):
                entry(g, k)
    qs = signless_laplacian(block_adjacency(stack, np.broadcast_to(k, (8, 4, 3))))
    with pytest.raises(ValueError, match="not symmetric"):
        full_spectrum(qs)


def test_full_spectrum_is_eigh_on_a_symmetric_stack():
    m = np.random.default_rng(7).normal(size=(6, 9, 9))
    m = m + np.swapaxes(m, -1, -2)
    es = full_spectrum(m)
    values, vectors = np.linalg.eigh(m)
    assert np.array_equal(es.values, values) and np.array_equal(es.vectors, vectors)


def test_residual_bound_is_the_plain_residual():
    # the contract measures in a reused buffer; the arithmetic, and so every bit of the bound, is the plain one
    m = np.random.default_rng(33).normal(size=(40, 11, 11))
    m = m + np.swapaxes(m, -1, -2)
    for a in (m, m[3]):
        es = full_spectrum(a)
        expected = np.abs(a @ es.vectors - es.vectors * es.values[..., None, :]).max()
        assert es.residual_bound == expected and es.residual_bound > 0


def test_smallest_eigenpair_k2():
    pair = smallest_eigenpair(signless_laplacian(complete_graph(2)))
    assert abs(pair.mu) < 1e-12
    assert pair.multiplicity == 1
    x = pair.vector
    assert abs(abs(x[0]) - abs(x[1])) < 1e-12 and x[0] * x[1] < 0


def test_smallest_eigenpair_split(ex88):
    q = signless_laplacian(block_adjacency(ex88.A, ex88.K))
    pair = smallest_eigenpair(q)
    assert abs(pair.mu - 2.0) < 1e-9


def test_join_k2bar_k3_mu_above_gap():
    # two isolated vertices joined with a triangle: t - s = 1, strict inequality
    inst = compose(2, complete_graph(3))
    pair = smallest_eigenpair(signless_laplacian(block_adjacency(inst.A, inst.K)))
    assert pair.mu > 1.0 + 1e-6


def test_sign_normalize():
    x = np.array([1.0, 1.0, -2.0, -2.0])
    y = sign_normalize(x, 2)
    assert y[2] > 0 and y[0] < 0
    assert np.array_equal(sign_normalize(-x, 2), y)


def test_integer_candidate():
    c = integer_candidate(np.array([2.0, 2.0 + 5e-8, 2.001, 0.63226]))
    assert c[:2].tolist() == [2, 2]
    assert np.isnan(c[2:]).all()


def test_exact_kernel_known_cases(ex88):
    nullity, basis = exact_kernel_dim(signless_laplacian(complete_graph(2)), 0)
    assert nullity == 1
    v = basis[0]
    assert v[0] == -v[1] != 0
    nullity, _ = exact_kernel_dim(signless_laplacian(cycle_graph(3)), 1)
    assert nullity == 2
    nullity, basis = exact_kernel_dim(signless_laplacian(block_adjacency(ex88.A, ex88.K)), 2)
    assert nullity == 1
    v = np.array([float(c) for c in basis[0]])
    v /= np.abs(v).max()
    # zeros exactly on the two-side of K_{4,2}
    assert basis[0][4] == basis[0][5] == Fraction(0)
    assert np.allclose(np.abs(v[:4]), 1.0) and np.allclose(np.abs(v[6:]), 1.0)


def test_exact_kernel_rejects_non_integer():
    with pytest.raises(ValueError):
        exact_kernel_dim(np.array([[0.5, 0.0], [0.0, 0.5]]), 0)


def test_exact_kernel_agrees_with_float_multiplicity():
    # whenever the spectrum separates cleanly from c, exact and float agree
    rng = np.random.default_rng(2)
    for _ in range(40):
        g = random_connected_graph(rng, int(rng.integers(2, 9)))
        q = signless_laplacian(g)
        vals = np.linalg.eigvalsh(q)
        for c in range(0, int(np.ceil(vals[-1])) + 1):
            d = np.abs(vals - c)
            if not ((d < 1e-9) | (d > 1e-6)).all():
                continue
            nullity, _ = exact_kernel_dim(q, c)
            assert nullity == (d < 1e-9).sum()


def test_rayleigh_quotient():
    g = complete_graph(2)
    x = np.ones(2)
    assert x @ signless_laplacian(g) @ x / (x @ x) == pytest.approx(2.0)
    # signed-by-parts vector on a bipartite graph gives zero
    kb = complete_bipartite(2, 3)
    x = np.array([1.0, 1.0, -1.0, -1.0, -1.0])
    assert x @ signless_laplacian(kb) @ x / (x @ x) == pytest.approx(0.0, abs=1e-14)


def test_rayleigh_never_below_mu():
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 8)
    q = signless_laplacian(g)
    mu = float(np.linalg.eigvalsh(q)[0])
    for _ in range(200):
        x = rng.normal(size=8)
        assert x @ q @ x / (x @ x) >= mu - 1e-10


def test_cut_bound_value(ex88):
    # the +-1 vector signed by (S, T) realizes 4e/(s+t)
    assert mu_upper_bound_cut(ex88) == pytest.approx(4 * 8 / 10)
    x = np.concatenate([np.ones(6), -np.ones(4)])
    assert x @ signless_laplacian(block_adjacency(ex88.A, ex88.K)) @ x / (x @ x) == pytest.approx(3.2)
    inst0 = compose(3, empty_graph(4))  # edgeless G: bipartite H
    assert mu_upper_bound_cut(inst0) == 0.0


def test_degree_bound_values():
    assert mu_lower_bound_degrees(complete_graph(2)) == pytest.approx(0.0)
    assert mu_lower_bound_degrees(cycle_graph(3)) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="empty graph"):
        mu_lower_bound_degrees(empty_graph(0))


def test_mu_sandwich_on_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(60):
        inst = random_instance(rng)
        mu = float(np.linalg.eigvalsh(signless_laplacian(block_adjacency(inst.A, inst.K)))[0])
        assert mu_lower_bound_degrees(block_adjacency(inst.A, inst.K)) <= mu + 1e-9
        assert mu <= mu_upper_bound_cut(inst) + 1e-9


def test_mu_strictly_below_min_degree():
    # connected with at least one edge: mu < delta, strict
    rng = np.random.default_rng(5)
    for _ in range(60):
        g = random_connected_graph(rng, int(rng.integers(2, 11)))
        mu = float(np.linalg.eigvalsh(signless_laplacian(g))[0])
        assert mu < g.sum(axis=1).min()


def test_span_monotonicity_chains():
    rng = np.random.default_rng(6)
    for _ in range(15):
        n = int(rng.integers(3, 10))
        g = empty_graph(n)
        mu_prev = 0.0
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(non_edges)
        for (u, v) in non_edges:
            g = g.copy()
            g[u, v] = g[v, u] = 1
            mu = float(np.linalg.eigvalsh(signless_laplacian(g))[0])
            assert mu >= mu_prev - 1e-10
            mu_prev = mu


def test_join_laplacian_top_eigenvalue():
    rng = np.random.default_rng(7)
    for _ in range(15):
        a = random_connected_graph(rng, int(rng.integers(1, 6)))
        b = random_connected_graph(rng, int(rng.integers(1, 6)))
        h = join(a, b)
        vals = np.linalg.eigvalsh(np.diag(h.sum(axis=1)) - h)
        assert vals[-1] == pytest.approx(len(h), abs=1e-9)


def test_bipartite_smallest_vector_constant_by_parts():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a, b = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        k = complete_bipartite(a, b)
        pair = smallest_eigenpair(signless_laplacian(k))
        x = sign_normalize(pair.vector, a)
        assert np.allclose(x[:a], x[0]) and x[0] < 0
        assert np.allclose(x[a:], x[a]) and x[a] > 0
