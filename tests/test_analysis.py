"""Oracle, Schur complement, certificates, reduced matrix, matrix classes, the README example."""

import dataclasses
import itertools
import json
import math
import os
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import block_diag

import rothlab.analysis

from conftest import (
    EX1_MU,
    EX1_QMU,
    EX2_MU,
    EX2_QMU,
    EX3_MU,
    EX3_QMU,
    EX3_QMU_INV,
    EX4_MU,
    EX4_QMU,
    EX88_QMU,
    adjacency,
    edge_list_text,
    random_instance,
)
from exact_evidence import _fraction_inverse
from paper_tools import build_q_mu, build_r_mu, complete_bipartite, harmonic_witness
from rothlab.analysis import (
    REASON_MIXED,
    REASON_MULTIPLE,
    REASON_SIGNED,
    REASON_ZERO,
    _exact_classes,
    _exact_q_mu,
    _q_mu,
    _sign_reasons,
    alpha_of,
    decide_instance,
    decide_stack,
    is_complete_scaffold,
    s_roth_oracle,
)
from rothlab.graphs import (
    block_adjacency,
    complete_graph,
    compose,
    cycle_graph,
    empty_graph,
    instance_from_graph,
    path_graph,
)
from rothlab.census import CENSUS_BLOCK, load_scaffolds
from rothlab.cli import main
from rothlab.enumeration import all_graphs, all_trees, enumerate_connected_bipartite
from rothlab.spectra import (
    CLUSTER_TOL,
    SIGN_TOL,
    exact_kernel_dim,
    full_spectrum,
    signless_laplacian,
)


# ---------------------------------------------------------------- oracle


def test_oracle_bipartite_instance_is_s_roth():
    # edgeless G: H = K_{s,t}, classic one-signed smallest eigenvector
    inst = compose(3, empty_graph(5))
    v = s_roth_oracle(inst)
    assert v.is_s_roth and v.reason == REASON_SIGNED
    assert v.multiplicity == 1
    assert abs(v.mu - 0.0) < 1e-10


def test_oracle_zero_entry(ex88):
    v = s_roth_oracle(ex88)
    assert not v.is_s_roth
    assert v.reason == REASON_ZERO
    assert abs(v.mu - 2.0) < 1e-9


def test_oracle_long_path_failure():
    inst = compose(4, path_graph(60))
    v = s_roth_oracle(inst)
    assert not v.is_s_roth


def test_oracle_examples(ex1, ex2, ex3, ex4):
    for inst, mu in ((ex1, EX1_MU), (ex2, EX2_MU), (ex3, EX3_MU), (ex4, EX4_MU)):
        v = s_roth_oracle(inst)
        assert v.is_s_roth and v.reason == REASON_SIGNED
        assert v.mu == pytest.approx(mu, abs=5e-5)


def test_oracle_multiple_eigenvalue():
    # two disjoint edges in G at the complete-scaffold boundary: the star
    # pattern K_{1,s} with s = t-1 pins mu = 1 with a kernel vector, while a
    # disconnected-complement boundary case keeps multiplicity honest
    g = adjacency(7, {(0, k) for k in range(1, 7)})
    inst = compose(6, g)
    v = s_roth_oracle(inst)
    assert not v.is_s_roth
    assert v.reason in (REASON_ZERO, REASON_MULTIPLE)
    assert abs(v.mu - 1.0) < 1e-9


# rows are T-entries first; scale 1 is the oracle's float rows, 0 its exact-kernel rows, 10 the twin screen
@pytest.mark.parametrize("row, t, multiple, scale, reason", [
    ([-1.0, -0.5, 5 * SIGN_TOL, 1.0], 2, False, 1, REASON_SIGNED),
    ([-1.0, -0.5, 5 * SIGN_TOL, 1.0], 2, False, 10, REASON_ZERO),
    ([-1.0, -0.5, -5 * SIGN_TOL, 1.0], 2, False, 1, REASON_MIXED),
    ([-1.0, 0.5, 0.5, 1.0], 2, False, 1, REASON_MIXED),
    ([-1.0, 1e-300, 1.0], 1, False, 0, REASON_SIGNED),
    ([-1.0, 1e-300, 1.0], 1, False, 1, REASON_ZERO),
    ([-1.0, 0.0, 1.0], 1, False, 0, REASON_ZERO),
    ([-1.0, -0.5, 0.5, 1.0], 2, True, 1, REASON_MULTIPLE),
    ([-1.0, 0.5, 0.0, 1.0], 2, True, 0, REASON_MULTIPLE),
])
def test_sign_rule_reasons(row, t, multiple, scale, reason):
    x = np.array([row])
    assert _sign_reasons(x, t, np.array([multiple]), scale).tolist() == [reason]
    # the same row in a stack with a per-row scale, beside a signed row
    stack = np.array([row, [-1.0] * t + [1.0] * (len(row) - t)])
    got = _sign_reasons(stack, t, np.array([multiple, False]), np.array([scale, 1]))
    assert got.tolist() == [reason, REASON_SIGNED]


def test_oracle_eigenvector_convention(ex1):
    v = s_roth_oracle(ex1)
    x = v.eigenvector
    assert (x[: ex1.t] < 0).all() and (x[ex1.t :] > 0).all()


# --------------------------------------------------- Schur complement Q_mu


def test_q_mu_matches_printed_values(ex1, ex2, ex3, ex4):
    for inst, mu, ref in (
        (ex1, EX1_MU, EX1_QMU),
        (ex2, EX2_MU, EX2_QMU),
        (ex3, EX3_MU, EX3_QMU),
        (ex4, EX4_MU, EX4_QMU),
    ):
        v = s_roth_oracle(inst)
        q = build_q_mu(inst, v.mu)
        assert np.abs(q - np.array(ref)).max() < 5e-4
        assert v.mu == pytest.approx(mu, abs=5e-5)


def test_q_mu_exact_block_structure(ex88):
    q = build_q_mu(ex88, 2.0)
    assert np.abs(q - np.array(EX88_QMU)).max() < 1e-9


def test_q_mu_smallest_eigenvalue_is_mu():
    rng = np.random.default_rng(10)
    for _ in range(40):
        inst = random_instance(rng)
        v = s_roth_oracle(inst)
        vals = np.linalg.eigvalsh(build_q_mu(inst, v.mu))
        scale = 1.0 + abs(vals[-1])
        assert abs(vals[0] - v.mu) < 1e-7 * scale


def test_q_mu_eigenvector_is_t_block():
    rng = np.random.default_rng(11)
    for _ in range(20):
        inst = random_instance(rng)
        v = s_roth_oracle(inst)
        q = build_q_mu(inst, v.mu)
        w = v.eigenvector[: inst.t]
        resid = q @ w - v.mu * w
        assert np.abs(resid).max() < 1e-7 * (1.0 + np.abs(q).max())


def test_q_mu_complete_scaffold_closed_form():
    # complete scaffold: Q_mu = Q(G) + sI - alpha J
    rng = np.random.default_rng(12)
    for _ in range(20):
        s = int(rng.integers(3, 8))
        t = int(rng.integers(3, 8))
        g_edges = set()
        for u in range(t):
            for w in range(u + 1, t):
                if rng.random() < 0.5:
                    g_edges.add((u, w))
        g = adjacency(t, g_edges)
        inst = compose(s, g)
        mu = s_roth_oracle(inst).mu
        q = build_q_mu(inst, mu)
        alpha = s / (t - mu)
        ref = signless_laplacian(g) + s * np.eye(t) - alpha * np.ones((t, t))
        assert np.abs(q - ref).max() < 1e-8
        assert alpha_of(inst, mu) == pytest.approx(alpha)


def test_q_mu_offdiagonal_formula():
    # entry (i,j), i != j: [i ~ j] - sum over common scaffold neighbors k of
    # 1/(d_B(k) - mu); checked against the assembled Schur complement
    rng = np.random.default_rng(13)
    for _ in range(20):
        inst = random_instance(rng)
        mu = s_roth_oracle(inst).mu
        q = build_q_mu(inst, mu)
        d2 = inst.K.sum(axis=0)
        for i in range(inst.t):
            for j in range(i + 1, inst.t):
                ks = np.flatnonzero(inst.K[i] * inst.K[j])
                val = float(inst.A[i, j]) - sum(
                    1.0 / (d2[k] - mu) for k in ks
                )
                assert abs(q[i, j] - val) < 1e-10


def test_q_mu_rejects_mu_at_pole(ex88):
    # all scaffold degrees are 6 here; mu at or above the smallest pole fails
    with pytest.raises(ValueError):
        build_q_mu(ex88, 6.0)
    with pytest.raises(ValueError):
        build_q_mu(ex88, 7.5)


def test_q_mu_inverse_printed(ex3):
    inv = np.linalg.inv(build_q_mu(ex3, s_roth_oracle(ex3).mu))
    assert np.abs(inv - np.array(EX3_QMU_INV)).max() < 5e-4


# -------------------------------------------------------- matrix classes


def test_classify_example2(ex2):
    rep = decide_instance(ex2)
    assert rep.classes
    assert rep.z_matrix
    assert rep.inverse_positive and rep.minpositive


def test_classify_example3(ex3):
    rep = decide_instance(ex3)
    assert rep.classes
    assert not rep.z_matrix
    assert rep.inverse_positive and rep.minpositive


def test_classify_example4(ex4):
    rep = decide_instance(ex4)
    assert rep.classes
    assert not rep.z_matrix
    assert not rep.inverse_positive
    assert rep.minpositive


def test_classify_singular_is_none():
    d = decide_instance(compose(3, empty_graph(5)))  # bipartite H, mu = 0, Q_mu singular
    assert d.mu == 0.0
    assert not d.classes
    assert not (d.z_matrix or d.inverse_positive or d.minpositive)


def test_class_hierarchy_random():
    # M => inverse-positive => minpositive on irreducible Q_mu; minpositive
    # must agree with the oracle by construction
    rng = np.random.default_rng(14)
    checked = 0
    for _ in range(120):
        rep = decide_instance(random_instance(rng))
        if not rep.classes:
            continue
        checked += 1
        if rep.z_matrix:
            assert rep.inverse_positive
        if rep.inverse_positive:
            assert rep.minpositive
        assert rep.minpositive == rep.is_s_roth
    assert checked > 80


# ---------------------------------------------------------- certificates


def test_harmcond_example1(ex1):
    d = decide_instance(ex1)
    assert d.harmcond and d.witness.tolist() == [-1, -1]
    assert harmonic_witness(ex1.K, d.witness) is None


def test_harmcond_example2_witness(ex2):
    d = decide_instance(ex2)
    assert not d.harmcond
    assert harmonic_witness(ex2.K, d.witness) == ((0, 1), Fraction(5, 6))


def test_harmcond_nonadjacent_needs_common_neighbor():
    # G with an isolated-from-each-other pair sharing no scaffold neighbor
    k = [[1, 0], [0, 1], [1, 1]]
    inst = compose(2, empty_graph(3), scaffold=k)
    assert not decide_instance(inst).harmcond


def test_harmcond_complete_bipartite_minus_edge():
    # drop one cross edge from K_{s,t}, then G-edge sums are (s-1)/t or
    # (s-1)/t + 1/(t-1): the condition holds for any G once s >= t+1
    rng = np.random.default_rng(15)
    for (s, t) in ((5, 4), (7, 3), (6, 5)):
        k = np.ones((t, s), dtype=int)
        k[0, 0] = 0
        for _ in range(5):
            edges = set()
            for u in range(t):
                for w in range(u + 1, t):
                    if rng.random() < 0.5:
                        edges.add((u, w))
            g = adjacency(t, edges)
            d = decide_instance(compose(s, g, scaffold=k.tolist()))
            assert d.harmcond
            assert d.is_s_roth


def test_gc_yeast_shape():
    # 5 target vertices, 17 scaffold vertices: one hub column covering all of
    # T, 7 columns on {0,1}, 9 columns on {0,2}; G-edges (0,1), (0,2).
    cols = [[1, 1, 1, 1, 1]] + [[1, 1, 0, 0, 0]] * 7 + [[1, 0, 1, 0, 0]] * 9
    k = [list(row) for row in zip(*cols)]
    g = adjacency(5, {(0, 1), (0, 2)})
    d = decide_instance(compose(17, g, scaffold=k))
    assert d.gc
    assert d.is_s_roth


def test_gc_fails_on_sparse_overlap(ex4):
    # disjoint scaffold supports: a G-edge pair with no common neighbor
    assert not decide_instance(ex4).gc


def test_bdeg_threshold():
    # all scaffold degrees >= (t+s)/2
    d = decide_instance(compose(4, complete_graph(4)))  # complete scaffold: d_B = 4 = (4+4)/2
    assert d.bdeg
    assert d.is_s_roth
    k = [[1, 0], [1, 0], [0, 1], [1, 1]]
    sparse = compose(2, path_graph(4), scaffold=k)
    assert not decide_instance(sparse).bdeg


def test_st_check():
    assert decide_instance(compose(5, cycle_graph(4))).st
    assert decide_instance(compose(4, cycle_graph(4))).st
    assert not decide_instance(compose(3, cycle_graph(4))).st
    k = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    assert not decide_instance(compose(3, cycle_graph(3), scaffold=k)).st


def test_st_implies_s_roth():
    rng = np.random.default_rng(16)
    for _ in range(40):
        t = int(rng.integers(2, 7))
        s = int(rng.integers(t, 9))
        edges = set()
        for u in range(t):
            for w in range(u + 1, t):
                if rng.random() < 0.5:
                    edges.add((u, w))
        d = decide_instance(compose(s, adjacency(t, edges)))
        assert d.st
        assert d.is_s_roth


# ------------------------------------------------------------- alpha, gdeg


def test_alpha_values(ex88):
    assert alpha_of(ex88, 2.0) == pytest.approx(1.0)
    inst = compose(2, complete_graph(3))
    mu = s_roth_oracle(inst).mu
    assert alpha_of(inst, mu) > 1.0
    k_inst = compose(3, empty_graph(5))
    assert alpha_of(k_inst, 0.0) == pytest.approx(3 / 5)
    with pytest.raises(ValueError):
        alpha_of(ex88, 6.0)
    k = [[1, 0], [0, 1], [1, 1]]
    with pytest.raises(ValueError):
        alpha_of(compose(2, empty_graph(3), scaffold=k), 0.5)


def test_gdeg_variants(ex88):
    # strict minimum-degree margin picks route A
    assert decide_instance(compose(2, complete_graph(3))).gdeg == "A"
    # ex88's scaffold is complete, but delta(G) = t - s and the complement
    # of K_{4,2} is disconnected: no verdict from this route
    assert decide_instance(ex88).gdeg == "none"
    # delta = t - s with connected complement picks route B
    g = cycle_graph(5)
    inst = compose(3, g)  # delta = 2 = 5 - 3, complement of C_5 is C_5
    assert decide_instance(inst).gdeg == "B"
    assert s_roth_oracle(inst).is_s_roth
    # boundary with disconnected complement gets no verdict from this route
    star = adjacency(7, {(0, k) for k in range(1, 7)})
    assert decide_instance(compose(6, star)).gdeg == "none"


def test_gdeg_implies_s_roth():
    # complete scaffolds only; dense G keeps the minimum degree high
    rng = np.random.default_rng(17)
    hits = 0
    for _ in range(150):
        t = int(rng.integers(3, 8))
        s = int(rng.integers(1, t))
        edges = set()
        for u in range(t):
            for w in range(u + 1, t):
                if rng.random() < 0.8:
                    edges.add((u, w))
        g = adjacency(t, edges)
        inst = compose(s, g)
        route = decide_instance(inst).gdeg
        if route in ("A", "B"):
            hits += 1
            assert s_roth_oracle(inst).is_s_roth
    assert hits > 10


# ------------------------------------------------- boundary characterization


def test_boundary_star_not_s_roth():
    # star K_{1,s} at t = s+1 sits exactly on the boundary; its sole joinee
    # of the complement has max degree s = t-1 > t-s at the hub only, and the
    # leaf-only joinee members kill the property
    star = adjacency(7, {(0, k) for k in range(1, 7)})
    inst = compose(6, star)
    boundary = decide_instance(inst).boundary
    assert boundary is not None  # applicable
    assert boundary != ()  # not S-Roth, with this joinee as witness
    assert not s_roth_oracle(inst).is_s_roth


def test_boundary_example88(ex88):
    boundary = decide_instance(ex88).boundary
    assert boundary is not None
    assert boundary != ()
    assert not s_roth_oracle(ex88).is_s_roth


def test_boundary_agreement_random():
    rng = np.random.default_rng(18)
    seen = 0
    for _ in range(300):
        t = int(rng.integers(3, 8))
        s = int(rng.integers(2, t))
        edges = set()
        for u in range(t):
            for w in range(u + 1, t):
                if rng.random() < 0.4:
                    edges.add((u, w))
        g = adjacency(t, edges)
        inst = compose(s, g)
        boundary = decide_instance(inst).boundary
        if boundary is None:
            continue
        seen += 1
        assert (boundary == ()) == s_roth_oracle(inst).is_s_roth
    assert seen > 20


def test_boundary_inapplicable_when_margin_strict():
    inst = compose(2, complete_graph(3))  # delta = 2 > t - s = 1
    assert decide_instance(inst).boundary is None


# ----------------------------------------------------------- reduced matrix


def test_r_mu_cycle_three_parts_singular():
    # long even-girth structure: 3 scaffold vertices against C_14, mu = s
    inst = compose(3, cycle_graph(14))
    v = s_roth_oracle(inst)
    rm = build_r_mu(inst, v.mu)
    assert not rm.positive_definite
    assert abs(v.mu - 3.0) < 1e-9
    assert not v.is_s_roth


def test_r_mu_complete_bipartite_case():
    inst = compose(4, empty_graph(6))
    rm = build_r_mu(inst, 0.0)
    assert rm.positive_definite
    assert np.abs(rm.r_mu - 4 * np.eye(6)).max() < 1e-12
    assert rm.s_roth
    assert rm.gamma == pytest.approx(6 / 4)
    assert rm.gamma_expected == pytest.approx(6 / 4)


def test_r_mu_rejects_partial_scaffold(ex1):
    with pytest.raises(ValueError):
        build_r_mu(ex1, 0.6)


def test_rowsum_check_path_cases():
    good = compose(6, path_graph(60))
    v = s_roth_oracle(good)
    rm = build_r_mu(good, v.mu)
    assert rm.s_roth and v.is_s_roth
    assert rm.gamma == pytest.approx(rm.gamma_expected, rel=1e-8)

    bad = compose(4, path_graph(60))
    vb = s_roth_oracle(bad)
    rm = build_r_mu(bad, vb.mu)
    if rm.positive_definite:
        assert not rm.s_roth
    assert not vb.is_s_roth


def test_rowsum_check_requires_pd():
    c14 = compose(3, cycle_graph(14))
    # R_mu = A(K6) + I is singular at mu = 5: recorded, not raised
    for inst, mu in ((c14, s_roth_oracle(c14).mu), (compose(1, complete_graph(6)), 5.0)):
        rm = build_r_mu(inst, mu)
        # without positive definiteness the row-sum test does not apply
        assert not rm.positive_definite
        assert rm.s_roth is None and rm.rowsums is None and rm.gamma is None


def test_rowsum_oracle_agreement_random():
    rng = np.random.default_rng(19)
    seen = 0
    for _ in range(120):
        t = int(rng.integers(2, 8))
        s = int(rng.integers(1, 9))
        edges = set()
        for u in range(t):
            for w in range(u + 1, t):
                if rng.random() < 0.5:
                    edges.add((u, w))
        inst = compose(s, adjacency(t, edges))
        v = s_roth_oracle(inst)
        rm = build_r_mu(inst, v.mu)
        if not rm.positive_definite:
            continue
        seen += 1
        assert rm.s_roth == v.is_s_roth
        assert rm.gamma == pytest.approx(rm.gamma_expected, rel=1e-6)
    assert seen > 60


def test_w_reconstruction_from_rowsums():
    # T-block of the eigenvector is proportional to the row sums of R_mu^{-1}
    rng = np.random.default_rng(20)
    for _ in range(40):
        t = int(rng.integers(2, 8))
        s = int(rng.integers(1, 9))
        edges = set()
        for u in range(t):
            for w_ in range(u + 1, t):
                if rng.random() < 0.5:
                    edges.add((u, w_))
        inst = compose(s, adjacency(t, edges))
        v = s_roth_oracle(inst)
        rm = build_r_mu(inst, v.mu)
        if not rm.positive_definite or v.multiplicity != 1:
            continue
        w = v.eigenvector[: inst.t]
        z0 = v.eigenvector[inst.t]
        ref = -inst.s * z0 * rm.rowsums  # T-rows give R_mu w = -s z0 1
        assert np.abs(w - ref).max() < 1e-8 * (1 + np.abs(w).max())


# --------------------------------------------------------------- deg2, misc


def test_deg2_cycle():
    inst = compose(7, cycle_graph(6))  # t=6 < s... swap: need t > s >= 6
    assert not decide_instance(inst).deg2
    assert not decide_instance(compose(5, cycle_graph(7))).deg2  # s < 6
    inst2 = compose(6, cycle_graph(7))
    assert decide_instance(inst2).deg2
    assert s_roth_oracle(inst2).is_s_roth


def test_deg2_rejects_large_degree():
    assert not decide_instance(compose(6, adjacency(7, {(0, 1), (0, 2), (0, 3)}))).deg2


def test_deg2_union_case():
    # G = triangle plus isolated vertices still has max degree 2
    g = block_diag(cycle_graph(3), empty_graph(7))
    inst = compose(6, g)
    assert decide_instance(inst).deg2
    assert s_roth_oracle(inst).is_s_roth


def test_deg2_instances_are_s_roth():
    rng = np.random.default_rng(22)
    for t, s in ((7, 6), (8, 6), (9, 7), (10, 6)):
        for _ in range(5):
            # random disjoint unions of paths and cycles on t vertices
            left = t
            parts = []
            while left > 0:
                size = int(rng.integers(1, left + 1))
                if size >= 3 and rng.random() < 0.5:
                    parts.append(cycle_graph(size))
                else:
                    parts.append(path_graph(size))
                left -= size
            g = block_diag(*parts)
            inst = compose(s, g)
            assert decide_instance(inst).deg2
            assert s_roth_oracle(inst).is_s_roth


def test_is_complete_scaffold(ex1, ex88):
    assert is_complete_scaffold(compose(3, cycle_graph(4)))
    assert not is_complete_scaffold(ex1)
    # ex88 is a join of an independent set with K_{4,2}: scaffold is complete
    assert is_complete_scaffold(ex88)


def test_classification_record_schema(ex2):
    # the instance's one record, row [0] of decide_stack's: its verdict, Q_mu classes and certificates
    d = decide_instance(ex2)
    assert [f.name for f in dataclasses.fields(d)] == [
        "mu", "multiplicity", "reason", "is_s_roth", "eigenvector", "kernel",
        "classes", "z_matrix", "inverse_positive", "minpositive",
        "harmcond", "witness", "gc", "bdeg", "st", "gdeg", "deg2", "boundary"]
    assert ex2.s == 7 and ex2.t == 4
    assert d.is_s_roth is True
    assert d.z_matrix is True and d.harmcond is False
    assert (type(d.mu), type(d.multiplicity), type(d.reason)) == (float, int, str)
    assert d.witness.tolist() == [0, 1]  # the T-pair of the first G-edge with harmonic sum below 1
    assert (d.gdeg, d.deg2, d.boundary) == ("none", False, None)  # t < s
    assert d.eigenvector.shape == (11,) and d.kernel is None
    # the oracle alone fills the verdict fields of the same record type
    v = s_roth_oracle(ex2)
    assert type(v) is type(d) and v.reason == d.reason and v.classes is None and v.harmcond is None


@pytest.mark.parametrize(
    "s, g, mu, nullity",
    [(3, cycle_graph(12), 3, 2), (6, complete_bipartite(1, 6), 1, 1)],
    ids=["3_vs_C12", "6_vs_K1_6"],
)
def test_exact_kernel_solved_once_per_instance(s, g, mu, nullity, tmp_path, capsys, monkeypatch):
    # the instance decision and the CLI report both decide an exact-path
    # instance from a single rational kernel
    calls = []

    def counting_kernel(m, c):
        calls.append(c)
        return exact_kernel_dim(m, c)

    monkeypatch.setattr(rothlab.analysis, "exact_kernel_dim", counting_kernel)
    v = decide_instance(compose(s, g))
    assert (v.mu, v.multiplicity) == (mu, nullity)
    assert calls == [mu]

    calls.clear()
    path = tmp_path / "g.edges"
    path.write_text(edge_list_text(g))
    main(["analyze", str(path), "--complete-scaffold", str(s)])
    rep = json.loads(capsys.readouterr().out)
    assert (rep["mu"], rep["multiplicity"]) == (mu, nullity)
    assert calls == [mu]


def test_classification_record_singular():
    d = decide_instance(compose(3, empty_graph(4)))
    assert d.is_s_roth is True
    assert d.classes is False  # no z_matrix, inverse_positive or minpositive flag
    assert not (d.z_matrix or d.inverse_positive or d.minpositive)


def test_instance_from_graph_path():
    # S = alternate vertices of P_5 is independent and maximal
    g = path_graph(5)
    inst = instance_from_graph(g, [0, 2, 4])
    v = s_roth_oracle(inst)
    assert v.multiplicity == 1


def _same_decision(a, b) -> bool:
    """Rows a and b agree in every field: mu to the last bit, the eigenvector, witness and kernel exactly."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name in ("eigenvector", "witness"):
            same = np.array_equal(x, y)
        elif f.name == "mu":
            same = x.hex() == y.hex()
        else:
            same = type(x) is type(y) and x == y
        if not same:
            return False
    return True


def _mixed_picks(out_dir) -> list:
    """(G, K) with s = 5, t = 4: one of every verdict kind, the exact path and a bipartite H."""
    ks = np.array(load_scaffolds(4, 5, out_dir))
    picks = {}
    for g in (adjacency(4, [(0, 1), (2, 3)]), complete_graph(4), empty_graph(4)):
        d = decide_stack(g, ks)
        for i, k in enumerate(ks):
            v = d[i]
            kinds = [v.reason, "exact" if v.kernel is not None and v.classes else None,
                     "bipartite" if not v.classes else None]
            for kind in kinds:
                picks.setdefault(kind, (g, k))
    assert {REASON_SIGNED, REASON_ZERO, REASON_MIXED, REASON_MULTIPLE, "exact", "bipartite"} <= set(picks)
    return [picks[kind] for kind in picks if kind]


def test_stacked_decision_equals_single_decisions(tmp_path):
    # one stack mixing every verdict kind, the exact path, a bipartite H and
    # mu >= min(D2) must decide each instance exactly as a stack of one does
    # mu >= min(D2) needs an S-vertex without T-neighbours, which compose
    # rejects, so that instance enters the stack as bare arrays
    isolated = np.ones((4, 5), dtype=np.int64)
    isolated[:, 4] = 0
    chosen = _mixed_picks(str(tmp_path))
    cases = [(g, k) for g, k in chosen] + [(complete_graph(4), isolated)]
    record = decide_stack(np.array([a for a, _ in cases]), np.array([k for _, k in cases]))
    n = len(cases)
    for f in dataclasses.fields(record):
        column = getattr(record, f.name)
        assert column.shape == {"eigenvector": (n, 9), "witness": (n, 2)}.get(f.name, (n,)), f.name
    stacked = [record[i] for i in range(n)]
    singles = [decide_stack(a, k)[0] for a, k in cases]
    assert all(_same_decision(x, y) for x, y in zip(stacked, singles))
    assert stacked[-1].mu >= 0 and not stacked[-1].classes
    assert sum(d.kernel is not None and d.classes for d in stacked) >= 1
    for (g, k), d in zip(chosen, stacked):
        assert _same_decision(d, decide_instance(compose(5, g, k)))


def test_degree_theorem_columns_stack_like_single():
    # complete scaffolds with t > s, each G decided in a stack with every
    # graph (or tree) of its order: every row equals its one-instance row
    paw = adjacency(4, {(0, 2), (0, 3), (2, 3), (1, 3)})  # vertex 3 joined to the edge 02 and the vertex 1
    star = adjacency(7, {(0, k) for k in range(1, 7)})
    cases = [(complete_graph(3), 2, "A", None),  # delta = 2 > t - s
             (cycle_graph(5), 3, "B", None),  # delta = t - s, complement C_5 connected
             (paw, 3, "none", ()),  # both joinees have a vertex above t - s: S-Roth
             (star, 6, "none", (1, 2, 3, 4, 5, 6))]  # the leaves have degree t - s
    for g, s, gdeg, boundary in cases:
        t = len(g)
        stack = np.concatenate([all_graphs(t) if t < 7 else all_trees(t), g[None]])
        record = decide_stack(stack, np.ones((t, s), dtype=np.int64))
        for i, a in enumerate(stack):
            assert _same_decision(record[i], decide_instance(compose(s, a)))
        row = record[len(stack) - 1]
        assert (row.gdeg, row.deg2, row.boundary) == (gdeg, False, boundary)
        assert row.is_s_roth == (boundary in (None, ()))
    assert record.deg2.any()  # the paths among the trees on 7 vertices, s = 6


def test_q_mu_smallest_eigenpair_is_the_verdicts(tmp_path):
    # Haynsworth inertia: for mu < min(D2) the smallest eigenvalue of Q_mu is
    # mu, with the verdict's multiplicity and eigenvector x[:t], so the class
    # flags read the verdict; an explicit eigensolve of Q_mu is the reference
    rng = np.random.default_rng(29)
    instances = [compose(5, g, k) for g, k in _mixed_picks(str(tmp_path))]
    instances += [random_instance(rng, g_edge_p=[0.1, 0.5, 0.9][n % 3]) for n in range(60)]
    kinds, exact = set(), 0
    for inst in instances:
        v = s_roth_oracle(inst)
        assert v.mu < inst.K.sum(axis=0).min()
        es = full_spectrum(build_q_mu(inst, v.mu))
        tol = CLUSTER_TOL * (1.0 + abs(v.mu))
        assert abs(es.values[0] - v.mu) <= tol
        assert np.count_nonzero(es.values <= v.mu + tol) == v.multiplicity
        y = es.vectors[:, 0] if es.vectors[:, 0].sum() >= 0 else -es.vectors[:, 0]
        if v.multiplicity == 1:
            w = v.eigenvector[:inst.t]
            assert abs(y @ w) == pytest.approx(np.linalg.norm(w), rel=1e-8)
        d = decide_instance(inst)
        if d.classes and v.kernel is None:
            # minpositive is the verdict; the reference reads the signs of the explicit Q_mu's eigenvector
            reference = v.multiplicity == 1 and bool(np.all(y > SIGN_TOL * np.abs(y).max()))
            assert d.minpositive == reference
        kinds.add(v.reason)
        exact += v.kernel is not None
    assert kinds == {REASON_SIGNED, REASON_ZERO, REASON_MIXED, REASON_MULTIPLE} and exact


def _common(inst, i, j):
    """N_ij as scaffold columns: the S-vertices adjacent to both T-vertices i and j."""
    return np.flatnonzero(inst.K[i] & inst.K[j])


def _harmcond_loop(inst):
    """Reference: the pairwise Fraction loop the array certificates replaced; (holds, (pair, sum) or None)."""
    t, d2 = inst.t, inst.K.sum(axis=0)
    for (i, j) in np.argwhere(np.triu(inst.A)).tolist():
        acc = sum((Fraction(1, int(d2[k])) for k in _common(inst, i, j)), Fraction(0))
        if acc < 1:
            return False, ((i, j), acc)
    for i, j in itertools.combinations(range(t), 2):
        if not inst.A[i, j] and not len(_common(inst, i, j)):
            return False, ((i, j), Fraction(0))
    return True, None


def _gc_loop(inst):
    cb = int(inst.K.sum(axis=0).max())
    pairs = itertools.combinations(range(inst.t), 2)
    return all(len(_common(inst, i, j)) >= cb if inst.A[i, j]
               else len(_common(inst, i, j)) > 0 for i, j in pairs)


def test_certificates_match_pairwise_fraction_loop():
    rng = np.random.default_rng(23)
    holds = 0
    for n in range(400):
        inst = random_instance(rng, smax=12, g_edge_p=[0.1, 0.5, 0.9][n % 3])
        d = decide_instance(inst)
        assert (d.harmcond, harmonic_witness(inst.K, d.witness)) == _harmcond_loop(inst)
        assert d.gc == _gc_loop(inst)
        holds += d.harmcond
    assert 0 < holds < 400


@pytest.mark.parametrize("t, s, signed, explained", [
    (4, 9, 8404, 1234),
    pytest.param(5, 7, 6850, 35, marks=pytest.mark.skipif(not os.environ.get("ROTHLAB_LONG"),
                                                          reason="set ROTHLAB_LONG=1 (about 5 s)")),
])
def test_sufficient_conditions_are_sound_on_every_instance(t, s, signed, explained):
    # every scaffold of the shape with G = K_t, decided in census blocks: no certificate holds on a
    # non-S-Roth row, and the certificates explain only some of the S-Roth rows
    names = ("harmcond", "gc", "bdeg", "st", "gdeg", "deg2")
    ks = enumerate_connected_bipartite(t, s)
    columns = []
    for i in range(0, len(ks), CENSUS_BLOCK):
        d = decide_stack(complete_graph(t), ks[i:i + CENSUS_BLOCK])
        columns.append([d.harmcond, d.gc, d.bdeg, d.st, d.gdeg != "none", d.deg2, d.is_s_roth])
    *certificates, is_s_roth = np.concatenate(columns, axis=1)
    violations = {name: int(np.sum(c & ~is_s_roth)) for name, c in zip(names, certificates)}
    assert violations == dict.fromkeys(names, 0)
    assert (int(is_s_roth.sum()), int(np.any(certificates, axis=0).sum())) == (signed, explained)


def test_certificates_with_one_t_vertex():
    # H = K_{1,s} with T its centre has no pair of T-vertices: the pair conditions hold vacuously
    for s in (1, 3):
        inst = compose(s, complete_graph(1))
        d = decide_instance(inst)
        assert (d.harmcond, d.witness.tolist(), d.gc) == (True, [-1, -1], True) and d.gc == _gc_loop(inst)
        assert (d.harmcond, harmonic_witness(inst.K, d.witness)) == _harmcond_loop(inst)
        assert d.is_s_roth and (d.gdeg, d.deg2, d.boundary) == ("none", False, None)


def test_harmonic_condition_exact_beyond_int64():
    # the G-edge 01 has common S-neighbours of degrees 2, 3, 7 and 84, 84
    # (adjacent to all of T), so its harmonic sum is exactly 1; S-vertices of
    # prime degree avoid vertex 0 and push the lcm of the S-degrees past int64
    t, primes = 84, (43, 47, 53, 59, 61, 67, 71, 73, 79, 83)
    cols = [range(2), range(3), range(7), range(t), range(t)] + [range(1, p + 1) for p in primes]
    k = np.zeros((t, len(cols)), dtype=np.int64)
    for j, rows in enumerate(cols):
        k[list(rows), j] = 1
    g = adjacency(t, [(0, 1)])
    lcm = int(np.lcm.reduce(np.unique(k.sum(axis=0)).astype(object)))
    assert lcm * k.shape[1] > np.iinfo(np.int64).max
    exact = decide_instance(compose(k.shape[1], g, k))
    assert exact.harmcond and not exact.gc
    # one all-T vertex fewer: the sum drops to 1 - 1/84
    k = np.delete(k, 4, axis=1)
    short = decide_instance(compose(k.shape[1], g, k))
    assert (short.harmcond, harmonic_witness(k, short.witness)) == (False, ((0, 1), Fraction(83, 84)))


def _fraction_q_mu(a, k, c):
    """Reference: Q_mu at mu = c as sums of Fractions, the loop the integer L*Q_mu replaced."""
    t, s = k.shape
    qg = (np.rint(a).astype(np.int64) + np.diag(np.rint(a.sum(axis=1)).astype(np.int64) + k.sum(axis=1))).tolist()
    w = [Fraction(1, c - int(d)) for d in k.sum(axis=0)]
    k = k.tolist()
    return [[qg[i][j] + sum((w[x] for x in range(s) if k[i][x] and k[j][x]), Fraction(0))
             for j in range(t)] for i in range(t)]


def _fraction_classes(a, k, c, basis):
    """Reference: the Q_mu classes at mu = c from the Fraction Q_mu."""
    t = k.shape[0]
    mq = _fraction_q_mu(a, k, c)
    z_matrix = all(mq[i][j] <= 0 for i in range(t) for j in range(t) if i != j)
    minv = _fraction_inverse(mq)
    inverse_positive = minv is not None and all(v > 0 for row in minv for v in row)
    w = basis[0][:t] if len(basis) == 1 else None
    if w is not None and sum(w) < 0:
        w = [-v for v in w]
    minpositive = w is not None and all(v > 0 for v in w)
    return (z_matrix, z_matrix, inverse_positive, minpositive), mq


def _classes(d) -> tuple:
    return d.z_matrix, d.z_matrix, d.inverse_positive, d.minpositive


def _integer_q(a, k) -> np.ndarray:
    """The integer Q(H) of A_G and K, int64."""
    return np.rint(signless_laplacian(block_adjacency(a, k))).astype(np.int64)


def _assert_exact_classes(a, k, c, basis):
    """_exact_q_mu is L times the Fraction Q_mu, and _exact_classes gives the reference's z and inverse flags."""
    ref, mq = _fraction_classes(a, k, c, basis)
    lcm = math.lcm(*(int(d) - c for d in k.sum(axis=0)))
    q = _integer_q(a, k)
    assert _exact_q_mu(q, k.shape[0], c).tolist() == [[lcm * v for v in row] for row in mq]
    assert _exact_classes(q, k.shape[0], c) == (ref[0], ref[2])
    return ref


@pytest.mark.parametrize("s", [5, 7])
def test_q_mu_read_off_q_h_is_the_block_formula(s, monkeypatch):
    # decide_stack reads Q_mu off the Q(H) stack its eigensolve used: on every classified row that
    # float Q_mu is, bit for bit, Q(G) + D1 + K (mu I - D2)^{-1} K^T formed from A_G and K, and on
    # every exact-path row the integer L*Q_mu is L*(Q(G) + D1) - K diag(L/(d_B(k) - c)) K^T
    seen = []
    classify = rothlab.analysis._classify
    monkeypatch.setattr(rothlab.analysis, "_classify", lambda q, t, d: seen.append((q, d)) or classify(q, t, d))
    t, a = 4, complete_graph(4)
    ks = enumerate_connected_bipartite(t, s)
    classes = decide_stack(a, ks).classes
    (q, d), = seen
    k = ks[classes]
    kf = k.astype(float)
    base = np.broadcast_to(a.astype(float), kf.shape[:1] + (t, t)).copy()
    i = np.arange(t)
    base[:, i, i] = a.sum(axis=-1) + kf.sum(axis=-1)
    weights = 1.0 / (d.mu[:, None] - kf.sum(axis=-2))
    assert np.array_equal(_q_mu(q, t, d.mu), base + (kf * weights[..., None, :]) @ np.swapaxes(kf, -1, -2))
    exact = np.flatnonzero(np.not_equal(d.kernel, None))
    assert len(exact) > 0
    for j in exact:
        c = int(d.mu[j])
        gaps = k[j].sum(axis=0) - c
        lcm = math.lcm(*gaps.tolist())
        qg = a + np.diag(a.sum(axis=1) + k[j].sum(axis=1))
        assert np.array_equal(_exact_q_mu(q[j].astype(np.int64), t, c), lcm * qg - (k[j] * (lcm // gaps)) @ k[j].T)


@pytest.mark.parametrize("s", [5, 7])
def test_exact_classes_match_fraction_reference_on_census(s, monkeypatch):
    # the float flags agree here, so count that decide_stack takes the exact rows through _exact_classes
    calls = []
    monkeypatch.setattr(rothlab.analysis, "_exact_classes", lambda *args: calls.append(args[2]) or _exact_classes(*args))
    a = complete_graph(4)
    ks = enumerate_connected_bipartite(4, s)
    exact = 0
    d = decide_stack(a, ks)
    monkeypatch.undo()
    for i, k in enumerate(ks):
        v = d[i]
        if v.kernel is not None and 0 < v.mu < k.sum(axis=0).min():
            assert _classes(v) == _assert_exact_classes(a, k, int(v.mu), v.kernel)
            exact += 1
    assert len(calls) == exact > 0


@pytest.mark.parametrize("s, g", [(3, cycle_graph(k)) for k in (5, 12, 14, 16, 40)]
                         + [(s, complete_bipartite(1, s)) for s in (1, 2, 6, 15, 29)]
                         + [(3, cycle_graph(20)), (3, cycle_graph(36)), (16, complete_bipartite(1, 16))])
def test_exact_classes_match_fraction_reference_on_families(s, g):
    # 3 + C_k sits at mu = 3 (mu = 2 for C_5) and the star K_{1,s} at mu = 1; the last three pin
    # the exact inverse_positive above t = 16 on analyze's exact slots
    inst = compose(s, g)
    d = decide_instance(inst)
    assert d.kernel is not None and d.classes
    assert _classes(d) == _assert_exact_classes(inst.A, inst.K, int(d.mu), d.kernel)


def test_exact_classes_beyond_int64():
    # S-degrees p + 1 for the primes p up to 53, and one S-vertex on all of T:
    # at c = 1 the lcm of the d_B(k) - c is 53# * 59, so L * Q_mu needs Python
    # ints; the classes depend only on A_G, K and c, and the reference's minpositive on the basis given
    t, c = 60, 1
    primes = [p for p in range(2, 54) if all(p % q for q in range(2, p))]
    k = np.zeros((t, len(primes) + 1), dtype=np.int64)
    for j, p in enumerate(primes):
        k[:p + 1, j] = 1
    k[:, -1] = 1
    a = cycle_graph(t)
    mq = _exact_q_mu(_integer_q(a, k), t, c)
    assert mq.dtype == object and math.lcm(*primes, t - c) > np.iinfo(np.int64).max
    basis = [[Fraction(-1)] * t + [Fraction(1)] * k.shape[1]]
    z_matrix, _, _, minpositive = _assert_exact_classes(a, k, c, basis)
    assert minpositive and not z_matrix


# ----------------------------------------------------------- README example


def test_readme_quick_start_prints_its_comments(capsys):
    # the python block under "Library quick start" runs as written, and each print that carries
    # a comment prints that comment, "..." standing for any text
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme) as f:
        block = re.search(r"## Library quick start\n\n```python\n(.*?)```", f.read(), re.S).group(1)
    exec(compile(block, readme, "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    commented = [(out, line.partition("#")[2].strip()) for out, line in zip(printed, prints) if "#" in line]
    assert len(commented) == 2
    for out, comment in commented:
        assert re.fullmatch(".*".join(map(re.escape, comment.split("..."))), out), (out, comment)
