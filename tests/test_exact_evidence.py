"""The exact tools behind the criterion-4 proof, checked on known answers."""

from fractions import Fraction

import numpy as np

from conftest import EX88_QMU
from exact_evidence import (
    charpoly,
    exact_q_mu,
    leading_minors,
    poly_gcd,
    prove_row,
    roots_below,
    squarefree,
)
from rothlab.graphs import block_adjacency
from rothlab.spectra import signless_laplacian

# (x - 1)^2 (x - 2) (x - 3)
P = [1, -7, 17, -17, 6]


def test_charpoly_matches_numpy():
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 9):
        m = rng.integers(-4, 5, size=(n, n))
        assert charpoly(m) == [int(v) for v in np.rint(np.poly(m))]


def test_gcd_squarefree_and_root_counts():
    assert poly_gcd([1, -3, 2], [1, -5, 6]) == [1, -2]
    assert squarefree(P) == [1, -6, 11, -6]
    counts = [roots_below(P, Fraction(r)) for r in (1, Fraction(3, 2), Fraction(5, 2), 4)]
    assert counts == [0, 2, 3, 4]


def test_exact_q_mu_and_minors(ex88):
    mq = exact_q_mu(signless_laplacian(block_adjacency(ex88.A, ex88.K)), 6, 2)
    assert mq == EX88_QMU.tolist()
    assert leading_minors(mq) == [round(np.linalg.det(EX88_QMU[:k, :k])) for k in range(1, 7)]


def test_rows_proved_on_worked_examples(ex1, ex88):
    p1, p88 = prove_row(ex1), prove_row(ex88)
    assert p1.s_roth and not p1.exact_spectrum
    assert not p88.s_roth and p88.exact_spectrum and p88.multiplicity == 1
