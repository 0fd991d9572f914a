"""Census pipeline, conjecture sweeps, one-parameter probes."""

import csv
import gc
import json
import os
import shutil

import numpy as np
import pytest

import rothlab
import rothlab.census
from rothlab.census import (
    CENSUS_BLOCK,
    DETAIL_COLUMNS,
    SUMMARY_COLUMNS,
    census_summary_path,
    conjecture_sweep,
    load_scaffolds,
    run_census,
    ultra_roth_probe,
)
from rothlab.analysis import decide_instance, s_roth_oracle
from rothlab.cli import main
from rothlab.enumeration import all_graphs
from conftest import adjacency
from rothlab.graphs import block_adjacency, complete_graph, compose, decode_graph6, encode_graph6, path_graph


def test_minimal_census(tmp_path):
    row = run_census(2, 1, out_dir=str(tmp_path))
    assert row.total == 1
    assert row.t == 2 and row.s == 1
    assert os.path.exists(census_summary_path(2, 1, str(tmp_path)))


def test_census_counts_t4_s5(tmp_path):
    row = run_census(4, 5, out_dir=str(tmp_path))
    assert (row.total, row.n_s_roth, row.n_harmcond, row.n_m_matrix,
            row.n_inv_positive) == (558, 63, 4, 23, 35)


def test_census_nesting(tmp_path):
    row = run_census(4, 5, out_dir=str(tmp_path))
    assert row.n_harmcond <= row.n_m_matrix <= row.n_inv_positive
    assert row.n_inv_positive <= row.n_s_roth <= row.total


def test_census_csv_files(tmp_path):
    run_census(3, 3, out_dir=str(tmp_path))
    with open(os.path.join(tmp_path, "classify_t3_s3.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(DETAIL_COLUMNS)
    with open(os.path.join(tmp_path, "census_t3_s3.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(SUMMARY_COLUMNS)
    assert len(rows) == 2


def test_census_implications_hold_rowwise(tmp_path):
    run_census(4, 5, out_dir=str(tmp_path))
    with open(os.path.join(tmp_path, "classify_t4_s5.csv")) as fh:
        for rec in csv.DictReader(fh):
            if rec["harmcond"] == "1":
                assert rec["m_matrix"] == "1"
            if rec["m_matrix"] == "1":
                assert rec["inv_positive"] == "1"
            if rec["inv_positive"] == "1":
                assert rec["s_roth"] == "1"


def test_census_resume_deterministic(tmp_path):
    first = run_census(3, 4, out_dir=str(tmp_path))
    path = os.path.join(tmp_path, "classify_t3_s4.csv")
    with open(path, "rb") as fh:
        body1 = fh.read()
    # resume a finished file, then one whose last row an interruption tore:
    # cutting 12 bytes leaves "graph6,mu" without its flags or newline
    for cut in (0, 12):
        with open(path, "r+b") as fh:
            fh.truncate(len(body1) - cut)
        second = run_census(3, 4, out_dir=str(tmp_path), resume=True)
        with open(path, "rb") as fh:
            body2 = fh.read()
        assert first == second
        assert body1 == body2


def test_census_resume_refuses_another_g(tmp_path):
    # a P3 run cut to 30 rows must not be completed with K3 rows
    out = str(tmp_path)
    run_census(3, 4, g=path_graph(3), out_dir=out)
    path = os.path.join(out, "classify_t3_s4.csv")
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:31])
    with open(os.path.join(out, "classify_t3_s4.json")) as fh:
        manifest = json.load(fh)
    assert manifest == {"t": 3, "s": 4, "g": encode_graph6(path_graph(3)[None])[0], "scaffolds": 34,
                        "version": rothlab.__version__}
    with pytest.raises(ValueError, match="g="):
        run_census(3, 4, g=complete_graph(3), out_dir=out, resume=True)
    assert main(["census", "--t", "3", "--s", "4", "--g", "K3", "--resume", "--jobs", "1",
                 "--out-dir", out]) == 1
    os.remove(os.path.join(out, "classify_t3_s4.json"))
    with pytest.raises(ValueError, match="manifest .* is missing"):
        run_census(3, 4, g=path_graph(3), out_dir=out, resume=True)
    with open(path) as fh:
        assert fh.readlines() == lines[:31]
    # a fresh K3 run is not a resume and replaces the P3 files
    assert run_census(3, 4, g=complete_graph(3), out_dir=out, resume=False) == run_census(
        3, 4, g=complete_graph(3), out_dir=str(tmp_path / "fresh"))


def test_census_blocks_and_pool_give_identical_files(tmp_path):
    # (4, 5) has more scaffolds than one block
    assert 558 > CENSUS_BLOCK
    rows = [run_census(4, 5, out_dir=str(tmp_path / str(jobs)), jobs=jobs) for jobs in (1, 2)]
    assert rows[0] == rows[1] and rows[0].total == 558
    assert gc.get_freeze_count() == 0  # the objects frozen while the blocks are decided are released
    for name in ("classify_t4_s5.csv", "census_t4_s5.csv", "classify_t4_s5.json"):
        with open(tmp_path / "1" / name, "rb") as a, open(tmp_path / "2" / name, "rb") as b:
            assert a.read() == b.read()


def test_census_parallel_matches_serial(tmp_path):
    serial = run_census(3, 4, out_dir=str(tmp_path / "a"))
    parallel = run_census(3, 4, out_dir=str(tmp_path / "b"), jobs=4)
    assert serial == parallel
    with open(os.path.join(tmp_path / "a", "classify_t3_s4.csv")) as fh:
        a = fh.read()
    with open(os.path.join(tmp_path / "b", "classify_t3_s4.csv")) as fh:
        b = fh.read()
    assert a == b


def test_scaffold_cache_round_trip(tmp_path):
    mats = load_scaffolds(3, 3, str(tmp_path))
    assert os.path.exists(os.path.join(tmp_path, "bipartite_t3_s3.g6"))
    again = load_scaffolds(3, 3, str(tmp_path))
    assert len(mats) == len(again)
    assert all(np.array_equal(x, y) for x, y in zip(mats, again))
    # the same cache under the name of another shape is refused, not misread
    cache = os.path.join(tmp_path, "bipartite_t3_s3.g6")
    shutil.copy(cache, os.path.join(tmp_path, "bipartite_t3_s4.g6"))
    shutil.copy(cache, os.path.join(tmp_path, "bipartite_t2_s4.g6"))
    with pytest.raises(ValueError, match="has 6 vertices, expected 7"):
        load_scaffolds(3, 4, str(tmp_path))
    with pytest.raises(ValueError, match="not bipartite with the expected parts"):
        load_scaffolds(2, 4, str(tmp_path))
    # a cache with one bad line is refused as a whole
    good = load_scaffolds(3, 4, str(tmp_path / "good"))
    with open(tmp_path / "good" / "bipartite_t3_s4.g6") as fh:
        lines = fh.read().splitlines()
    inside_t = block_adjacency(0, good[5])
    inside_t[0, 1] = inside_t[1, 0] = 1
    for i, bad, match in ((7, encode_graph6(block_adjacency(0, mats[:1]))[0], "different orders 7 and 6"),
                          (5, encode_graph6(inside_t[None])[0], "not bipartite with the expected parts"),
                          (3, ">" + lines[3][1:], "outside graph6 range")):
        out = tmp_path / f"bad{i}"
        out.mkdir()
        (out / "bipartite_t3_s4.g6").write_text("\n".join(lines[:i] + [bad] + lines[i + 1:]) + "\n")
        with pytest.raises(ValueError, match=match):
            load_scaffolds(3, 4, str(out))
    # an empty cache holds zero scaffolds
    (tmp_path / "empty").mkdir()
    (tmp_path / "empty" / "bipartite_t3_s4.g6").write_text("")
    assert load_scaffolds(3, 4, str(tmp_path / "empty")).shape == (0, 3, 4)


def test_scaffold_cache_write_is_atomic(tmp_path, monkeypatch):
    class Torn(list):
        """Lines that break off after the ninth, as an interrupt would."""

        def __iter__(self):
            yield from self[:9]
            raise KeyboardInterrupt

    monkeypatch.setattr(rothlab.census, "encode_graph6", lambda a: Torn(encode_graph6(a)))
    with pytest.raises(KeyboardInterrupt):
        load_scaffolds(3, 4, str(tmp_path))
    assert os.listdir(tmp_path) == []
    monkeypatch.undo()
    assert run_census(3, 4, out_dir=str(tmp_path)).total == 34


def test_classify_relabeling_invariance(tmp_path):
    rng = np.random.default_rng(40)
    mats = load_scaffolds(3, 4, str(tmp_path))
    g = adjacency(3, [(0, 1)])
    for k in (mats[0], mats[-1], mats[len(mats) // 2]):
        base = decide_instance(compose(4, g, k))
        # permute scaffold columns only: the instance is the same graph
        for _ in range(3):
            perm = rng.permutation(4)
            d = decide_instance(compose(4, g, k[:, perm]))
            assert _census_flags(d) == _census_flags(base)
            assert d.verdict.mu == pytest.approx(base.verdict.mu, abs=1e-9)


def _census_flags(d) -> tuple:
    """(s_roth, harmcond, m_matrix, inv_positive) of a decision; None where Q_mu has no classes."""
    c = d.classes
    return (d.verdict.is_s_roth, d.harmcond.holds,
            None if c is None else c.m_matrix, None if c is None else c.inverse_positive)


def test_classification_record_of_composed_scaffold():
    inst = compose(4, complete_graph(3), np.ones((3, 4), dtype=int))
    assert inst.s == 4 and inst.t == 3
    assert decide_instance(inst).verdict.is_s_roth in (True, False)


def test_census_with_fixed_g(tmp_path):
    # the census can run against any fixed target graph
    row = run_census(3, 3, g=path_graph(3), out_dir=str(tmp_path / "p3"))
    assert row.total == len(load_scaffolds(3, 3, str(tmp_path / "p3")))
    with pytest.raises(ValueError):
        run_census(3, 3, g=path_graph(4), out_dir=str(tmp_path))


# ------------------------------------------------------------------ sweeps


def test_sweep_rejects_small_s():
    with pytest.raises(ValueError):
        conjecture_sweep("maxdeg", [4], [7])
    with pytest.raises(ValueError, match="s >= 1"):
        conjecture_sweep("tree", [0], [1], relax=True)


def test_sweep_tree_finds_star():
    # of the 11 trees on 7 vertices, exactly the star fails at s = 6: its
    # smallest eigenvector has a zero at the hub
    out = conjecture_sweep("tree", [6], [7])
    assert out["checked"] == 11
    assert len(out["counterexamples"]) == 1
    ce = out["counterexamples"][0]
    g = decode_graph6([ce["g_graph6"]])[0]
    degs = sorted(g.sum(axis=1).tolist())
    assert degs == [1, 1, 1, 1, 1, 1, 6]
    assert abs(ce["mu"] - 1.0) < 1e-9
    # the boundary characterization reaches the same verdict independently
    from rothlab.analysis import boundary_characterization

    bc = boundary_characterization(compose(6, g))
    assert bc.applicable and not bc.s_roth


def test_sweep_maxdeg_clean_small():
    out = conjecture_sweep("maxdeg", [6], [7])
    assert out["checked"] > 100
    assert out["counterexamples"] == []


def test_sweep_relaxed_finds_path_failure():
    out = conjecture_sweep(
        "maxdeg", [4], [60], relax=True, sample_limit=5, seed=1
    )
    assert out["counterexamples"]
    kinds = {ce["reason"] for ce in out["counterexamples"]}
    assert kinds  # at least one failure reason recorded
    for ce in out["counterexamples"]:
        assert ce["s"] == 4 and ce["t"] == 60
        assert "instance" in ce


def test_sweep_skips_degenerate_pairs():
    # t <= s pairs are skipped entirely
    out = conjecture_sweep("maxdeg", [6, 7], [6, 7])
    assert out["pairs"] == [(6, 7)]


def test_sweep_deterministic():
    a = conjecture_sweep("maxdeg", [6], [9], sample_limit=30, seed=7)
    b = conjecture_sweep("maxdeg", [6], [9], sample_limit=30, seed=7)
    assert a["checked"] == b["checked"]
    assert a["counterexamples"] == b["counterexamples"]


# ------------------------------------------------------------------ probes


def test_ultra_probe_complete_4_4():
    scaffold = np.ones((4, 4), dtype=int)
    out = ultra_roth_probe(scaffold, all_graphs(4))
    assert out["all_s_roth"]
    assert out["failures"] == []


def test_ultra_probe_one_missing_edge():
    scaffold = np.ones((4, 5), dtype=int)
    scaffold[0, 0] = 0
    out = ultra_roth_probe(scaffold, all_graphs(4))
    assert out["all_s_roth"]


def test_ultra_probe_rejects_a_later_disconnected_composite():
    # K joins T-vertices 0,1 and 2,3; the first G bridges the halves, the second does not
    scaffold = np.array([[1, 0], [1, 0], [0, 1], [0, 1]])
    bridged, split = adjacency(4, [(1, 2)]), adjacency(4, [(0, 1)])
    assert set(ultra_roth_probe(scaffold, bridged[None])) == {"all_s_roth", "failures"}
    with pytest.raises(ValueError, match="disconnected"):
        ultra_roth_probe(scaffold, np.array([bridged, split]))


def test_ultra_probe_validates_before_an_empty_family():
    # with no G to compose, the scaffold and the stack are still checked
    with pytest.raises(ValueError, match="0/1"):
        ultra_roth_probe(np.full((3, 2), 7), np.zeros((0, 3, 3)))
    scaffold = np.ones((3, 2), dtype=int)
    assert ultra_roth_probe(scaffold, np.zeros((0, 3, 3))) == {"all_s_roth": True, "failures": []}
    with pytest.raises(ValueError, match="stack"):
        ultra_roth_probe(scaffold, np.zeros((0, 4, 4)))
    bad = np.zeros((3, 3, 3))
    bad[0, 0, 1] = 1  # not symmetric
    bad[1, 2, 2] = 1  # a loop
    bad[2, 0, 1] = bad[2, 1, 0] = 2  # not 0/1
    for a in bad:
        with pytest.raises(ValueError, match="loop-free"):
            ultra_roth_probe(scaffold, a[None])


def test_ultra_probe_records_failures():
    # a thin scaffold cannot survive every target graph
    scaffold = np.array([[1, 0], [1, 0], [0, 1], [0, 1], [1, 1]])
    out = ultra_roth_probe(scaffold, all_graphs(5))
    assert not out["all_s_roth"]
    for rec in out["failures"]:
        assert set(rec) == {"g_graph6", "mu", "reason"}
    # the same failures, one instance at a time through the graph6 codec
    failing = [g6 for g6 in encode_graph6(all_graphs(5))
               if not s_roth_oracle(compose(2, decode_graph6([g6])[0], scaffold)).is_s_roth]
    assert [rec["g_graph6"] for rec in out["failures"]] == failing
    assert len(failing) == 33
