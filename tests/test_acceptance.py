"""Acceptance gate: one verdict line per criterion, at the stated tolerances.

Each test prints `criterion N: PASS/FAIL - detail` (collected in
acceptance_report.txt at the repo root) and then asserts.

Criteria 4 and 9 once pinned values that exact arithmetic refutes.  Their
corrected values are asserted together with the proof:

- criterion 4: the (4, 5) census has 63 S-Roth scaffolds, not 64; the (4, 7)
  census has 284 M-matrices, not 283; the (4, 9) row is (36677, 8404, 1234,
  3166, 6053), not (36677, 8403, 1234, 3155, 6054).  Every row of every census
  is re-decided by exact_evidence, in exact arithmetic wherever floating point
  is near a decision line.  mu is repeated in exactly six (4, 5) scaffolds,
  and the one (4, 7) Q_mu with a zero off-diagonal entry is an exact
  M-matrix.
- criterion 9: the tree family allows max degree = s, and its sweep finds four
  genuine counterexamples, three stars and one broom.  The R_mu row sums
  confirm each one.  Restricted to max degree < s, both sweeps are clean.
"""

import json
import os
import tempfile
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    EX1_MU,
    EX1_QMU,
    EX1_X,
    EX2_MU,
    EX3_MU,
    EX3_QMU_INV,
    EX4_MU,
    EX4_W,
    adjacency,
    random_instance,
)
from exact_evidence import exact_q_mu, leading_minors, prove_census
from paper_tools import (
    bai_golub_trace_bounds,
    build_q_mu,
    build_r_mu,
    cycle_block_bounds,
    harmonic_witness,
    path_block_rowsums,
)
from rothlab.analysis import (
    decide_instance,
    decide_stack,
    is_complete_scaffold,
    s_roth_oracle,
)
from rothlab.census import conjecture_sweep, run_census
from rothlab.enumeration import all_trees
from rothlab.graphs import (
    block_adjacency,
    complete_graph,
    compose,
    connected_components,
    cycle_graph,
    decode_graph6,
    path_graph,
)
from rothlab.spectra import (
    CLUSTER_TOL,
    SIGN_TOL,
    exact_kernel_dim,
    full_spectrum,
    mu_lower_bound_degrees,
    mu_upper_bound_cut,
    signless_laplacian,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPORT_PATH = os.path.join(ROOT, "acceptance_report.txt")
FINDINGS_PATH = os.path.join(ROOT, "conjecture_counterexamples.json")


@pytest.fixture(scope="session", autouse=True)
def _fresh_report():
    if os.path.exists(REPORT_PATH):
        os.remove(REPORT_PATH)
    yield


def _verdict(num: int, tag: str, ok: bool, detail: str) -> None:
    line = f"criterion {num} ({tag}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    with open(REPORT_PATH, "a") as fh:
        fh.write(line + "\n")
    assert ok, line


def _boundary(d) -> SimpleNamespace:
    """A decision's boundary column as the (applicable, s_roth) pair the criteria read."""
    return SimpleNamespace(applicable=d.boundary is not None,
                           s_roth=None if d.boundary is None else d.boundary == ())


def _jobs() -> int:
    return min(8, os.cpu_count() or 1)


# ------------------------------------------------------------ criterion 1


def test_criterion_1_worked_example_one(ex1):
    t0 = time.perf_counter()
    v = s_roth_oracle(ex1)
    q_mu = build_q_mu(ex1, v.mu)
    elapsed = time.perf_counter() - t0

    mu_ok = abs(v.mu - EX1_MU) <= 5e-5
    q_ok = np.abs(q_mu - np.array(EX1_QMU)).max() <= 5e-4
    ref = np.array(EX1_X)
    x = v.eigenvector.copy()
    # match the printed orientation (T positive), then the printed scale
    if x[0] < 0:
        x = -x
    scale = ref[np.abs(ref).argmax()] / x[np.abs(ref).argmax()]
    x_ok = np.abs(x * scale - ref).max() <= 1e-3
    time_ok = elapsed < 1.0
    _verdict(
        1, "worked example 1",
        mu_ok and q_ok and x_ok and time_ok,
        f"mu={v.mu:.6f} (ref {EX1_MU}, tol 5e-5) ok={mu_ok}; "
        f"Q_mu max err {np.abs(q_mu - np.array(EX1_QMU)).max():.2e} (tol 5e-4) ok={q_ok}; "
        f"eigenvector max err {np.abs(x * scale - ref).max():.2e} (tol 1e-3) ok={x_ok}; "
        f"{elapsed * 1000:.0f}ms (< 1s) ok={time_ok}",
    )


# ------------------------------------------------------------ criterion 2


def test_criterion_2_worked_examples_two_to_four(ex2, ex3, ex4):
    v2, v3, v4 = s_roth_oracle(ex2), s_roth_oracle(ex3), s_roth_oracle(ex4)
    mu_ok = (
        abs(v2.mu - EX2_MU) <= 5e-5
        and abs(v3.mu - EX3_MU) <= 5e-5
        and abs(v4.mu - EX4_MU) <= 5e-5
    )

    d2 = decide_instance(ex2)
    witness2 = harmonic_witness(ex2.K, d2.witness)
    ex2_ok = (
        d2.z_matrix
        and not d2.harmcond
        and witness2[0] == (0, 1)
        and witness2[1] == Fraction(5, 6)
    )

    inv3 = np.linalg.inv(build_q_mu(ex3, v3.mu))
    inv3_err = np.abs(inv3 - np.array(EX3_QMU_INV)).max()
    ex3_ok = inv3_err <= 5e-4

    x4 = v4.eigenvector.copy()
    if x4[0] < 0:
        x4 = -x4
    w4 = x4[: ex4.t]
    w4_err = np.abs(w4 - np.array(EX4_W)).max()
    ex4_ok = (w4 > 0).all() and w4_err <= 1e-3

    _verdict(
        2, "worked examples 2-4",
        mu_ok and ex2_ok and ex3_ok and ex4_ok,
        f"mu values ({v2.mu:.5f}, {v3.mu:.5f}, {v4.mu:.5f}) vs "
        f"({EX2_MU}, {EX3_MU}, {EX4_MU}) at 5e-5 ok={mu_ok}; "
        f"ex2 M-matrix with failing edge-pair sum 5/6 ok={ex2_ok}; "
        f"ex3 inverse max err {inv3_err:.2e} (tol 5e-4) ok={ex3_ok}; "
        f"ex4 w>0 max err {w4_err:.2e} (tol 1e-3) ok={ex4_ok}",
    )


# ------------------------------------------------------------ criterion 3


def test_criterion_3_exact_integer_eigenvalue(ex88):
    t0 = time.perf_counter()
    v = s_roth_oracle(ex88)
    nullity, basis = exact_kernel_dim(signless_laplacian(block_adjacency(ex88.A, ex88.K)), 2)
    elapsed = time.perf_counter() - t0

    mu_ok = abs(v.mu - 2.0) <= 1e-9
    reason_ok = (not v.is_s_roth) and v.reason == "ZeroEntry"
    # the rational kernel vector must vanish somewhere on T
    kernel_ok = nullity == 1 and any(c == 0 for c in basis[0][: ex88.t])
    time_ok = elapsed < 1.0
    _verdict(
        3, "exact rational kernel",
        mu_ok and reason_ok and kernel_ok and time_ok,
        f"mu={v.mu!r} (tol 1e-9 about 2) ok={mu_ok}; reason={v.reason} ok={reason_ok}; "
        f"rational kernel dim {nullity} with a zero T-entry ok={kernel_ok}; "
        f"{elapsed * 1000:.0f}ms (< 1s) ok={time_ok}",
    )


# ------------------------------------------------------------ criterion 4


@pytest.fixture(scope="session")
def census_s5(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("census_s5"))
    t0 = time.perf_counter()
    row = run_census(4, 5, out_dir=out, jobs=_jobs())
    return row, time.perf_counter() - t0, out


@pytest.fixture(scope="session")
def census_s7(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("census_s7"))
    t0 = time.perf_counter()
    row = run_census(4, 7, out_dir=out, jobs=_jobs())
    return row, time.perf_counter() - t0, out


# (4, 5) scaffolds whose mu is repeated: (graph6, integer polynomial f with
# f(mu) = 0, multiplicity of mu).  Each f is irreducible, so its two roots
# have equal multiplicity in the rational polynomial phi(Q).
S5_REPEATED_MU = (
    ("H?`@FBo", (1, -6, 4), 2),
    ("H?`@Fbo", (1, -6, 4), 2),
    ("H?`@?bo", (1, -5, 3), 3),
    ("H?`@Cbo", (1, -5, 3), 2),
    ("H?qbC`O", (1, -6, 6), 2),
    ("H?r`dbo", (1, -7, 8), 2),
)
# the one (4, 7) scaffold whose Q_mu has a zero off-diagonal entry; mu = 1
S7_ZERO_PATTERN = "J?rEEBo{F_?"
S7_ZERO_PATTERN_Q_MU = [[5, -4, 0, 0], [-4, 5, 0, 0], [0, 0, 5, 0], [0, 0, 0, 5]]


def _census_q(graph6: str, t: int, s: int) -> np.ndarray:
    """Q(H) for the census scaffold B (graph6, T first) composed with K_t."""
    k = decode_graph6([graph6])[0][:t, t:]
    inst = compose(s, complete_graph(t), k)
    return signless_laplacian(block_adjacency(inst.A, inst.K))


def _proved(got: tuple, proof) -> bool:
    """Every census flag equals its proved value, so the counts are proved too."""
    return not proof.disagreements and (
        proof.total, proof.s_roth, proof.m_matrix, proof.inv_positive
    ) == (got[0], got[1], got[3], got[4])


def _repeated_mu_ok(proof) -> bool:
    """mu is repeated exactly in S5_REPEATED_MU, checked a second way via f(Q)."""
    ok = proof.multiple == {g6: mult for g6, _, mult in S5_REPEATED_MU}
    for g6, (a, b, c), mult in S5_REPEATED_MU:
        q = _census_q(g6, 4, 5)
        mu = float(np.linalg.eigvalsh(q)[0])
        qi = np.rint(q).astype(np.int64)
        f_q = a * qi @ qi + b * qi + c * np.eye(len(qi), dtype=np.int64)
        ok = (ok and abs(np.polyval((a, b, c), mu)) < 1e-9
              and exact_kernel_dim(f_q, 0)[0] == 2 * mult
              and proof.rows[g6]["s_roth"] == "0")
    return ok


def _zero_pattern_ok(proof) -> bool:
    """The only (4, 7) Q_mu near the Z boundary is an exact, reducible M-matrix."""
    q = _census_q(S7_ZERO_PATTERN, 4, 7)
    mq = exact_q_mu(q, 4, 1)
    off = [mq[i][j] for i in range(4) for j in range(4) if i != j]
    row = proof.rows[S7_ZERO_PATTERN]
    return (proof.exact_q_mu == [S7_ZERO_PATTERN]
            and exact_kernel_dim(q, 1)[0] == 1
            and abs(float(np.linalg.eigvalsh(q)[0]) - 1.0) < 1e-9
            and mq == S7_ZERO_PATTERN_Q_MU
            and max(off) == 0
            and leading_minors(mq) == [5, 9, 45, 225]
            and (row["m_matrix"], row["inv_positive"]) == ("1", "0"))


def test_criterion_4_census_tables(census_s5, census_s7):
    row5, dt5, dir5 = census_s5
    row7, dt7, dir7 = census_s7
    got5 = (row5.total, row5.n_s_roth, row5.n_harmcond, row5.n_m_matrix,
            row5.n_inv_positive)
    got7 = (row7.total, row7.n_s_roth, row7.n_harmcond, row7.n_m_matrix,
            row7.n_inv_positive)
    ref5 = (558, 63, 4, 23, 35)
    ref7 = (5375, 823, 85, 284, 515)
    proof5 = prove_census(4, 5, complete_graph(4), dir5)
    proof7 = prove_census(4, 7, complete_graph(4), dir7)
    proved5 = _proved(got5, proof5)
    proved7 = _proved(got7, proof7)
    repeated_ok = _repeated_mu_ok(proof5)
    zero_pattern_ok = _zero_pattern_ok(proof7)
    ok5 = got5 == ref5 and dt5 < 60.0 and proved5 and repeated_ok
    ok7 = got7 == ref7 and dt7 < 900.0 and proved7 and zero_pattern_ok

    parts = [
        f"s=5 {got5} vs reference {ref5} in {dt5:.1f}s (< 60s); rows proved "
        f"({proof5.exact_spectrum} in exact arithmetic) ok={proved5}; mu repeated in "
        f"exactly the {len(S5_REPEATED_MU)} recorded scaffolds ok={repeated_ok}",
        f"s=7 {got7} vs reference {ref7} in {dt7:.1f}s (< 900s); rows proved "
        f"({proof7.exact_spectrum} in exact arithmetic) ok={proved7}; exact Q_mu of "
        f"{S7_ZERO_PATTERN} is a reducible M-matrix ok={zero_pattern_ok}",
    ]
    ok9 = True
    if os.environ.get("ROTHLAB_LONG"):
        cache = os.path.join(ROOT, ".census_cache")
        os.makedirs(cache, exist_ok=True)
        t0 = time.perf_counter()
        row9 = run_census(4, 9, out_dir=cache, jobs=_jobs())
        dt9 = time.perf_counter() - t0
        got9 = (row9.total, row9.n_s_roth, row9.n_harmcond, row9.n_m_matrix,
                row9.n_inv_positive)
        ref9 = (36677, 8404, 1234, 3166, 6053)
        proof9 = prove_census(4, 9, complete_graph(4), cache)
        proved9 = _proved(got9, proof9)
        ok9 = got9 == ref9 and proved9
        parts.append(f"s=9 {got9} vs reference {ref9} in {dt9:.0f}s; rows proved "
                     f"({proof9.exact_spectrum} in exact arithmetic) ok={proved9}")
    else:
        parts.append("s=9 skipped (set ROTHLAB_LONG=1)")
    _verdict(4, "census tables", ok5 and ok7 and ok9, "; ".join(parts))


# ------------------------------------------------------------ criterion 5


@pytest.fixture(scope="session")
def s5_records():
    from rothlab.census import load_scaffolds

    g = complete_graph(4)
    ks = load_scaffolds(4, 5, out_dir=tempfile.mkdtemp())
    d = decide_stack(g, ks)
    return [(compose(5, g, scaffold=k), d[i]) for i, k in enumerate(ks)]


def _q_mu_route(inst, mu) -> bool:
    """Whether the smallest eigenvalue of an explicit Q_mu is simple, by CLUSTER_TOL, with an eigenvector
    strictly one-signed at SIGN_TOL."""
    es = full_spectrum(build_q_mu(inst, mu))
    simple = np.count_nonzero(es.values <= es.values[0] + CLUSTER_TOL * (1.0 + abs(es.values[0]))) == 1
    y = es.vectors[:, 0] if es.vectors[:, 0].sum() >= 0 else -es.vectors[:, 0]
    return bool(simple and np.all(y > SIGN_TOL * np.abs(y).max()))


def test_criterion_5_dual_route_equivalences(s5_records):
    # the Q_mu route: by Haynsworth inertia, where 0 < mu < min(D2) the T-part of the verdict's
    # eigenvector is Q_mu's smallest eigenvector, so H is S-Roth exactly where that one is one-signed
    q_mu_cases = 0
    mismatches = 0
    rowsum_cases = 0
    rowsum_bad = 0
    for inst, d in s5_records:
        if d.classes:
            q_mu_cases += 1
            mismatches += _q_mu_route(inst, d.mu) != d.is_s_roth
        if not is_complete_scaffold(inst):
            continue
        rm = build_r_mu(inst, d.mu)
        if rm.positive_definite:
            rowsum_cases += 1
            if rm.s_roth != d.is_s_roth:
                rowsum_bad += 1
    ok = q_mu_cases >= 1 and mismatches == 0 and rowsum_bad == 0 and rowsum_cases >= 1
    _verdict(
        5, "oracle vs matrix routes",
        ok,
        f"{len(s5_records)} instances: Q_mu eigenvector route checked on {q_mu_cases} rows, "
        f"mismatches with the oracle={mismatches}; "
        f"row-sum route checked on {rowsum_cases} positive definite reduced "
        f"matrices, mismatches={rowsum_bad}",
    )


# ------------------------------------------------------------ criterion 6


def test_criterion_6_certificates_never_lie(s5_records):
    bad = []

    def check(inst, d, label):
        verdict_is_s_roth = d.is_s_roth
        if d.harmcond and not verdict_is_s_roth:
            bad.append((label, "harmcond"))
        if d.gc and not verdict_is_s_roth:
            bad.append((label, "gc"))
        if d.bdeg and not verdict_is_s_roth:
            bad.append((label, "bdeg"))
        if d.st and not verdict_is_s_roth:
            bad.append((label, "st"))
        if d.gdeg in ("A", "B") and not verdict_is_s_roth:
            bad.append((label, "gdeg"))
        if d.deg2 and not verdict_is_s_roth:
            bad.append((label, "deg2"))
        bc = _boundary(d)
        if bc.applicable and bc.s_roth != verdict_is_s_roth:
            bad.append((label, "boundary"))

    for i, (inst, d) in enumerate(s5_records):
        check(inst, d, f"census#{i}")

    rng = np.random.default_rng(606)
    n_random = 1000
    for i in range(n_random):
        inst = random_instance(rng, smin=3, smax=9, tmin=3, tmax=9)
        check(inst, decide_instance(inst), f"random#{i}")

    ok = not bad
    _verdict(
        6, "certificate soundness",
        ok,
        f"{len(s5_records)} census + {n_random} random instances; "
        f"violations={len(bad)}" + (f" first={bad[:3]}" if bad else ""),
    )


# ------------------------------------------------------------ criterion 7


def test_criterion_7_spectral_and_trace_bounds():
    rng = np.random.default_rng(707)
    degree_bad = span_bad = sandwich_bad = 0
    for _ in range(1000):
        n = int(rng.integers(2, 10))
        edges = set()
        for u in range(n):
            for w in range(u + 1, n):
                if rng.random() < 0.45:
                    edges.add((u, w))
        a = adjacency(n, edges)
        if len(connected_components(a)) != 1 or not edges:
            continue
        q = signless_laplacian(a)
        mu = float(np.linalg.eigvalsh(q)[0])
        if not (mu < a.sum(axis=1).min()):
            degree_bad += 1
        if mu_lower_bound_degrees(a) > mu + 1e-9:
            degree_bad += 1
        # one random edge added: smallest eigenvalue may not decrease
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if not a[u, v]]
        if non_edges:
            u, v = non_edges[int(rng.integers(len(non_edges)))]
            a2 = a.copy()
            a2[u, v] = a2[v, u] = 1
            mu2 = float(np.linalg.eigvalsh(signless_laplacian(a2))[0])
            if mu2 < mu - 1e-10:
                span_bad += 1

    for _ in range(1000):
        inst = random_instance(rng)
        h = block_adjacency(inst.A, inst.K)
        mu = float(np.linalg.eigvalsh(signless_laplacian(h))[0])
        if not (mu_lower_bound_degrees(h) <= mu + 1e-9
                and mu <= mu_upper_bound_cut(inst) + 1e-9):
            sandwich_bad += 1

    cyc_bad = 0
    for k in (3, 4, 7, 12, 25, 50, 100, 150, 200):
        for lam in (0.01, 0.2, 1.0, 2.1, 5.0, 20.0, 60.0, 100.0):
            rep = cycle_block_bounds(k, lam)
            if not (
                rep.trace_lower <= rep.observed_trace + 1e-8
                and rep.observed_trace <= rep.trace_upper + 1e-8
                and rep.observed_diag <= rep.diag_bound + 1e-10
                and rep.observed_offdiag_ratio <= rep.offdiag_ratio + 1e-10
            ):
                cyc_bad += 1

    sm_bad = 0
    for k in range(3, 61):
        for lam in (2.01, 3.5, 6.0, 10.0):
            try:
                path_block_rowsums(k, 6, 6.0 - lam)  # raises above 1e-10
            except RuntimeError:
                sm_bad += 1

    bg_bad = 0
    for _ in range(500):
        n = int(rng.integers(2, 12))
        m = rng.normal(size=(n, n))
        a_mat = m @ m.T + 0.3 * np.eye(n)
        vals = np.linalg.eigvalsh(a_mat)
        lo, hi = bai_golub_trace_bounds(a_mat, float(vals[0]), float(vals[-1]))
        truth = float(np.trace(np.linalg.inv(a_mat)))
        if not (lo <= truth + 1e-7 * abs(truth) and truth <= hi + 1e-7 * abs(truth)):
            bg_bad += 1

    ok = degree_bad == span_bad == sandwich_bad == cyc_bad == sm_bad == bg_bad == 0
    _verdict(
        7, "bound sweeps",
        ok,
        f"degree bound violations={degree_bad}, edge-monotonicity={span_bad}, "
        f"two-sided sandwich={sandwich_bad} (1000 graphs / 1000 instances); "
        f"cycle-block grid violations={cyc_bad} (k<=200, lambda<=100); "
        f"rank-one rowsum disagreements={sm_bad} (k<=60, 1e-10); "
        f"trace bracket violations={bg_bad} (500 random PD)",
    )


# ------------------------------------------------------------ criterion 8


def test_criterion_8_posed_instances():
    inst = compose(3, cycle_graph(14))
    v = s_roth_oracle(inst)
    rm = build_r_mu(inst, v.mu)
    c14_ok = (not rm.positive_definite) and (not v.is_s_roth)

    p60_4 = s_roth_oracle(compose(4, path_graph(60)))
    p60_6 = s_roth_oracle(compose(6, path_graph(60)))
    paths_ok = (not p60_4.is_s_roth) and p60_6.is_s_roth

    k_bad = [k for k in range(6, 41)
             if not s_roth_oracle(compose(5, path_graph(k))).is_s_roth]
    family_ok = not k_bad

    ok = c14_ok and paths_ok and family_ok
    _verdict(
        8, "posed instances",
        ok,
        f"3 vs C14: reduced matrix singular and property fails ok={c14_ok}; "
        f"4 vs P60 fails / 6 vs P60 holds ok={paths_ok}; "
        f"5 vs P_k for k=6..40 all hold ok={family_ok}"
        + (f" failing k={k_bad}" if k_bad else ""),
    )


# ------------------------------------------------------------ criterion 9


# counterexamples of the tree sweep, (s, t, G as graph6, reason); each G has
# max degree s: the stars K_{1,s} at t = s + 1 (exact zero at the hub, mu = 1)
# and one broom at (6, 9) whose mu-eigenvector has strictly mixed signs
TREE_COUNTEREXAMPLES = {
    (6, 7, "FsaC?", "ZeroEntry"),
    (7, 8, "GsaCC?", "ZeroEntry"),
    (8, 9, "HsaCCA?", "ZeroEntry"),
    (6, 9, "HqHAA@?", "MixedSigns"),
}


def _confirmed_tree_counterexample(s: int, t: int, g6: str) -> bool:
    """Max degree s, and the failure seen by routes other than the oracle.

    The R_mu row-sum test decides S-Rothness of a complete scaffold; for a
    star the boundary characterization (delta(G) = 1 = t - s, G a join)
    decides it too.
    """
    g = decode_graph6([g6])[0]
    inst = compose(s, g)
    mu = float(np.linalg.eigvalsh(signless_laplacian(block_adjacency(inst.A, inst.K)))[0])
    max_degree = g.sum(axis=1).max()
    ok = max_degree == s and build_r_mu(inst, mu).s_roth is False
    if max_degree == t - 1:
        bc = _boundary(decide_instance(inst))
        ok = ok and bc.applicable and bc.s_roth is False
    return ok


def test_criterion_9_conjecture_sweeps():
    t0 = time.perf_counter()
    maxdeg = conjecture_sweep("maxdeg", range(6, 8), range(7, 9))
    tree = conjecture_sweep("tree", range(6, 9), range(7, 10))
    elapsed = time.perf_counter() - t0

    findings = maxdeg["counterexamples"] + tree["counterexamples"]
    if findings:
        with open(FINDINGS_PATH, "w") as fh:
            json.dump(findings, fh, indent=2)
    elif os.path.exists(FINDINGS_PATH):
        os.remove(FINDINGS_PATH)

    maxdeg_ok = maxdeg["checked"] == 19649 and not maxdeg["counterexamples"]
    found = {(c["s"], c["t"], c["g_graph6"], c["reason"]) for c in tree["counterexamples"]}
    found_ok = found == TREE_COUNTEREXAMPLES and len(tree["counterexamples"]) == len(found)
    n_below_s = sum(1 for (s, t) in tree["pairs"] for a in all_trees(t)
                    if a.sum(axis=1).max() < s)
    sharp_ok = not any(decode_graph6([g6])[0].sum(axis=1).max() < s for (s, _, g6, _) in found)
    confirmed_ok = all(_confirmed_tree_counterexample(s, t, g6) for (s, t, g6, _) in found)

    ok = maxdeg_ok and found_ok and sharp_ok and confirmed_ok
    _verdict(
        9, "degree-bound sweeps",
        ok,
        f"maxdeg checked={maxdeg['checked']} counterexamples={len(maxdeg['counterexamples'])} "
        f"(19649, 0) ok={maxdeg_ok}; "
        f"tree checked={tree['checked']} counterexamples={len(tree['counterexamples'])}, "
        f"exactly the 3 stars and 1 broom recorded ok={found_ok}, none among the "
        f"{n_below_s} trees with max degree < s ok={sharp_ok}, each with max degree s "
        f"and confirmed by R_mu row sums (stars also by the boundary "
        f"characterization) ok={confirmed_ok}; "
        f"{elapsed:.0f}s"
        + (f"; findings serialized to {os.path.basename(FINDINGS_PATH)}" if findings else ""),
    )
