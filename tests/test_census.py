"""Census pipeline, conjecture sweeps, one-parameter probes."""

import csv
import itertools
import json
import os
import shutil
import tracemalloc
import weakref

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
from rothlab.analysis import _twin_screen, decide_instance, decide_stack, oracle_stack, s_roth_oracle
from rothlab.cli import main
from rothlab.enumeration import all_graphs, enumerate_connected_bipartite
from conftest import adjacency
from rothlab.graphs import (_connected_mask, block_adjacency, complete_graph, compose, decode_graph6, empty_graph,
                            encode_graph6, path_graph)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def test_census_blocks_and_pool_give_identical_files(tmp_path):
    # (4, 5) has more scaffolds than one block
    assert 558 > CENSUS_BLOCK
    rows = [run_census(4, 5, out_dir=str(tmp_path / str(jobs)), jobs=jobs) for jobs in (1, 2)]
    assert rows[0] == rows[1] and rows[0].total == 558
    for name in ("classify_t4_s5.csv", "census_t4_s5.csv", "classify_t4_s5.json"):
        with open(tmp_path / "1" / name, "rb") as a, open(tmp_path / "2" / name, "rb") as b:
            assert a.read() == b.read()
    with open(tmp_path / "1" / "classify_t4_s5.json") as fh:
        assert json.load(fh) == {"t": 4, "s": 5, "g": encode_graph6(complete_graph(4)[None])[0], "scaffolds": 558,
                                 "version": rothlab.__version__}


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


@pytest.mark.parametrize("k", [[[1, 0], [1, 0]], [[1, 0], [0, 1]]])
def test_census_refuses_a_disconnected_cached_scaffold(tmp_path, k):
    # an S-vertex with no neighbour (graph6 CW), or two components (CQ): the cache is refused before anything is written
    load_scaffolds(2, 2, str(tmp_path))
    cache = tmp_path / "bipartite_t2_s2.g6"
    with open(cache, "a") as fh:
        fh.write(encode_graph6(block_adjacency(0, np.array(k))[None])[0] + "\n")
    with pytest.raises(ValueError, match="cached scaffold is not connected"):
        run_census(2, 2, out_dir=str(tmp_path))
    assert os.listdir(tmp_path) == [cache.name]


def test_census_refuses_an_empty_cache(tmp_path, capsys):
    # every (t, s) has a connected scaffold, so an empty cache is damaged: refused before anything is written
    cache = tmp_path / "bipartite_t4_s5.g6"
    cache.write_text("")
    assert main(["census", "--t", "4", "--s", "5", "--jobs", "1", "--out-dir", str(tmp_path)]) == 1
    assert f"error: scaffold cache {cache} is empty" in capsys.readouterr().err
    assert os.listdir(tmp_path) == [cache.name]
    with pytest.raises(ValueError, match="is empty"):
        run_census(4, 5, out_dir=str(tmp_path))
    assert os.listdir(tmp_path) == [cache.name]


def test_census_t4_s7_matches_the_benchmark_reference(tmp_path):
    # the serial (4, 7) detail CSV, row for row and in order, against the benchmark's stored reference:
    # every verdict column exactly and mu within 1e-9
    run_census(4, 7, out_dir=str(tmp_path), jobs=1)
    reference = os.path.join(ROOT, "perfbench", "expected", "classify_t4_s7.csv")
    rows = []
    for path in (tmp_path / "classify_t4_s7.csv", reference):
        with open(path, newline="") as fh:
            rows.append(list(csv.DictReader(fh)))
    got, want = rows
    assert len(got) == len(want) == 5375
    verdict_columns = [c for c in DETAIL_COLUMNS if c != "mu"]
    differ = [i for i, (g, w) in enumerate(zip(got, want))
              if [g[c] for c in verdict_columns] != [w[c] for c in verdict_columns]
              or abs(float(g["mu"]) - float(w["mu"])) > 1e-9]
    assert differ == []


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


@pytest.mark.parametrize("jobs", [1, 2])
def test_census_interrupt_leaves_the_earlier_run(tmp_path, monkeypatch, jobs):
    # a complete P4 run, then a K4 run interrupted on its second block: no file may be torn or mislabelled
    out = tmp_path / "run"
    run_census(4, 5, g=path_graph(4), out_dir=str(out), jobs=1)
    earlier = {p.name: p.read_bytes() for p in out.iterdir()}
    calls = itertools.count()  # next() is atomic, so two threads never draw the same number

    def interrupted(*args):
        if next(calls) == 1:
            raise KeyboardInterrupt
        return decide_stack(*args)

    monkeypatch.setattr(rothlab.census, "decide_stack", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_census(4, 5, out_dir=str(out), jobs=jobs)
    assert not list(out.glob("*.tmp"))
    # the manifest described the P4 files and is gone; the files themselves are P4's, byte for byte
    assert not (out / "classify_t4_s5.json").exists()
    assert {p.name: p.read_bytes() for p in out.iterdir()} == {
        name: body for name, body in earlier.items() if name != "classify_t4_s5.json"}
    # a complete K4 run then replaces every file with what a fresh K4 run writes
    monkeypatch.undo()
    assert run_census(4, 5, out_dir=str(out), jobs=jobs) == run_census(4, 5, out_dir=str(tmp_path / "fresh"), jobs=1)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == {
        p.name: p.read_bytes() for p in (tmp_path / "fresh").iterdir()}


def test_census_interrupt_in_the_writer_cancels_the_queued_blocks(tmp_path, monkeypatch):
    # the interrupt reaches the main thread while it writes the first block: the blocks still queued
    # for the two threads are never decided, and the detail CSV's temp file is removed
    load_scaffolds(4, 7, str(tmp_path))
    blocks = -(-5375 // CENSUS_BLOCK)
    assert blocks == 21
    decided = []
    monkeypatch.setattr(rothlab.census, "decide_stack", lambda *args: decided.append(1) or decide_stack(*args))
    writer = csv.writer

    class Interrupted:
        def __init__(self, fh):
            self.writer = writer(fh)

        def writerow(self, row):
            self.writer.writerow(row)

        def writerows(self, rows):
            raise KeyboardInterrupt

    monkeypatch.setattr(rothlab.census.csv, "writer", Interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_census(4, 7, out_dir=str(tmp_path), jobs=2)
    assert len(decided) < blocks
    assert os.listdir(tmp_path) == ["bipartite_t4_s7.g6"]


@pytest.mark.parametrize("t, s", [(4, 5), (5, 4)])
def test_cold_and_cached_censuses_write_identical_files(tmp_path, t, s):
    # the scaffolds reach the files as packed codes, enumerated or decoded from the cache, over either
    # orientation of the parts: every file is the same byte for byte, at one thread or two
    files = {}
    for jobs in (1, 2):
        cold, cached = tmp_path / f"cold{jobs}", tmp_path / f"cached{jobs}"
        run_census(t, s, out_dir=str(cold), jobs=jobs)
        cached.mkdir()
        shutil.copy(cold / f"bipartite_t{t}_s{s}.g6", cached)
        run_census(t, s, out_dir=str(cached), jobs=jobs)
        for out in (cold, cached):
            files[out.name] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(files["cold1"]) == 4
    assert all(got == files["cold1"] for got in files.values())
    assert load_scaffolds(t, s, str(tmp_path / "cold1")).shape == (558, t, s)


@pytest.mark.parametrize("jobs", [1, 2])
def test_census_decides_at_most_two_blocks_per_thread_ahead_of_the_writer(tmp_path, monkeypatch, jobs):
    # (4, 5) in 35 blocks of 16, whose edges miss those of the 100-scaffold codec chunks: each block is
    # decided once, at most 2 * jobs ahead of the writer, and the files are those of the usual blocks
    run_census(4, 5, out_dir=str(tmp_path / "usual"), jobs=jobs)
    monkeypatch.setattr(rothlab.census, "CENSUS_BLOCK", 16)
    monkeypatch.setattr(rothlab.census, "_SCAFFOLD_CHUNK", 100)
    written, ahead = [], []

    def counted(*args):
        ahead.append(next(calls) + 1 - len(written))
        return decide_stack(*args)

    writer = csv.writer

    class Counted:
        def __init__(self, fh):
            self.writer = writer(fh)

        def writerow(self, row):
            self.writer.writerow(row)

        def writerows(self, rows):
            self.writer.writerows(rows)
            written.append(1)

    monkeypatch.setattr(rothlab.census, "decide_stack", counted)
    monkeypatch.setattr(rothlab.census.csv, "writer", Counted)
    for _ in ("enumerated", "from the cache the first run wrote"):
        calls = itertools.count()  # next() is atomic, so two threads never draw the same number
        written.clear()
        ahead.clear()
        run_census(4, 5, out_dir=str(tmp_path / "small"), jobs=jobs)
        assert len(ahead) == -(-558 // 16) == 35
        assert 1 <= max(ahead) <= 2 * jobs
        assert {p.name: p.read_bytes() for p in (tmp_path / "small").iterdir()} == {
            p.name: p.read_bytes() for p in (tmp_path / "usual").iterdir()}


def test_census_holds_no_whole_scaffold_stack(tmp_path):
    # the (4, 9) census from an empty directory: traced Python and numpy allocations peak below the
    # int64 (N, t, s) stack of its 36677 scaffolds, 10.6 MB, which the census never builds
    tracemalloc.start()
    try:
        row = run_census(4, 9, out_dir=str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.total == 36677
    assert peak < 36677 * 4 * 9 * 8


def test_write_atomic_reports_a_failed_open(tmp_path, monkeypatch):
    # the error of open itself propagates, with no second error chained over it and no temp file left
    def refuse(*args, **kwargs):
        raise PermissionError("denied")

    monkeypatch.setattr(rothlab.census, "open", refuse, raising=False)
    with pytest.raises(PermissionError, match="denied") as info:
        rothlab.census._write_atomic(str(tmp_path / "out.csv"), lambda fh: fh.write("x"))
    assert info.value.__context__ is None and info.value.__cause__ is None
    assert os.listdir(tmp_path) == []


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
            assert d.mu == pytest.approx(base.mu, abs=1e-9)


def _census_flags(d) -> tuple:
    """(s_roth, harmcond, m_matrix, inv_positive) of a decision; None where Q_mu has no classes."""
    return (d.is_s_roth, d.harmcond,
            d.z_matrix if d.classes else None, d.inverse_positive if d.classes else None)


def test_classification_record_of_composed_scaffold():
    inst = compose(4, complete_graph(3), np.ones((3, 4), dtype=int))
    assert inst.s == 4 and inst.t == 3
    assert decide_instance(inst).is_s_roth in (True, False)


def test_census_with_fixed_g(tmp_path):
    # the census can run against any fixed target graph
    row = run_census(3, 3, g=path_graph(3), out_dir=str(tmp_path / "p3"))
    assert row.total == len(load_scaffolds(3, 3, str(tmp_path / "p3")))
    with pytest.raises(ValueError):
        run_census(3, 3, g=path_graph(4), out_dir=str(tmp_path))
    # with G empty, H is bipartite: mu = 0 makes Q_mu singular, so its class flags stay empty
    run_census(3, 3, g=empty_graph(3), out_dir=str(tmp_path / "e3"))
    with open(tmp_path / "e3" / "classify_t3_s3.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all((r["mu"], r["s_roth"], r["m_matrix"], r["inv_positive"]) == ("0", "1", "", "") for r in rows)


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
    boundary = decide_instance(compose(6, g)).boundary
    assert boundary is not None and boundary != ()  # applicable, and not S-Roth


def test_sweep_maxdeg_clean_small():
    out = conjecture_sweep("maxdeg", [6], [7])
    assert out["checked"] > 100
    assert out["counterexamples"] == []


@pytest.mark.skipif(not os.environ.get("ROTHLAB_LONG"), reason="set ROTHLAB_LONG=1 (about 30 s, 460 MB)")
def test_sweep_maxdeg_at_the_limit():
    # criterion 9's sharp form one order past its acceptance sweep: every G on 9 vertices of maximum
    # degree below s keeps E_s joined with G S-Roth; the family sizes are counts of all_graphs(9)
    assert rothlab.census.MAXDEG_EXHAUSTIVE_T == 9
    for s, size in ((6, 84245), (7, 197867), (8, 262322)):
        out = conjecture_sweep("maxdeg", [s], [9])
        assert (out["pairs"], out["checked"], out["counterexamples"]) == ([(s, 9)], size, [])


def test_sweep_releases_each_family_before_building_the_next(monkeypatch):
    # a family can hold most of all_graphs(t): two at once would double the sweep's peak memory
    family, alive = rothlab.census._family, []

    def tracked(*args):
        alive.append([ref() is not None for ref in refs])
        a = family(*args)
        refs.append(weakref.ref(a))
        return a

    refs = []
    monkeypatch.setattr(rothlab.census, "_family", tracked)
    assert conjecture_sweep("tree", [6], [7, 8, 9])["pairs"] == [(6, 7), (6, 8), (6, 9)]
    assert alive == [[], [False], [False, False]]


def test_sweep_skips_degenerate_pairs():
    # t <= s pairs are skipped entirely
    out = conjecture_sweep("maxdeg", [6, 7], [6, 7])
    assert out["pairs"] == [(6, 7)]


def test_sweep_refuses_ranges_with_no_pair(monkeypatch, capsys):
    # every pair with t <= s is skipped, so nothing would be checked: refused before any enumeration
    enumerated = []
    monkeypatch.setattr(rothlab.census, "_family", lambda *args: enumerated.append(args))
    for s_range, t_range in (([8], [7]), ([7, 8], [5, 6, 7]), ([], [7]), ([6], [])):
        with pytest.raises(ValueError, match="no .s, t. pair with t > s"):
            conjecture_sweep("tree", s_range, t_range)
    # the s >= 1 check still speaks first
    with pytest.raises(ValueError, match="s >= 1"):
        conjecture_sweep("tree", [0], [0], relax=True)
    assert main(["conjecture", "--kind", "tree", "--s-range", "8", "--t-range", "7"]) == 1
    assert "no (s, t) pair" in capsys.readouterr().err
    assert enumerated == []


def test_sweep_refuses_orders_above_its_limits(monkeypatch):
    # sweeps are exhaustive only: a t above the limit is refused before any
    # family is enumerated, also when the range starts below the limit
    assert (rothlab.census.MAXDEG_EXHAUSTIVE_T, rothlab.census.TREE_EXHAUSTIVE_T) == (9, 12)
    enumerated = []
    monkeypatch.setattr(rothlab.census, "_family", lambda *args: enumerated.append(args))
    for kind, t in (("maxdeg", 10), ("tree", 13)):
        for t_range in ([t], range(7, t + 1)):
            with pytest.raises(ValueError, match=f"exhaustive only up to t = {t - 1}"):
                conjecture_sweep(kind, [6], t_range)
    assert enumerated == []
    with pytest.raises(ValueError, match="unknown family kind"):
        conjecture_sweep("cycle", [6], [7])


# ------------------------------------------------------------------ probes


@pytest.mark.parametrize("t, s", [(4, 4), (5, 17)])
def test_ultra_probe_complete_scaffold(t, s):
    # every G on t vertices keeps K_{t,s} + G S-Roth, exhaustively; (5, 17) is the
    # paper's case of K_{5,17} with edges added inside T.  s >= t, so the st
    # certificate predicts the verdict on every row.
    scaffold = np.ones((t, s), dtype=int)
    out = ultra_roth_probe(scaffold, all_graphs(t))
    assert out["all_s_roth"]
    assert out["failures"] == []
    assert decide_stack(all_graphs(t), scaffold).st.all()


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
    with pytest.raises(ValueError, match="s >= 1"):  # a scaffold without S
        ultra_roth_probe(np.zeros((4, 0), dtype=np.int64), bridged[None])


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


def test_ultra_probe_decides_in_blocks(monkeypatch):
    # 1044 graphs on 7 vertices reach oracle_stack in blocks of at most CENSUS_BLOCK rows,
    # and the failures come back in family order, as one-at-a-time decisions list them
    scaffold = np.array([[1, 0], [1, 0], [1, 0], [0, 1], [0, 1], [0, 1], [1, 1]])
    family = all_graphs(7)
    rows = []

    def counted(a_g, k):
        rows.append(len(a_g))
        return oracle_stack(a_g, k)

    monkeypatch.setattr(rothlab.census, "oracle_stack", counted)
    out = ultra_roth_probe(scaffold, family)
    assert len(family) == 1044 == sum(rows) and max(rows) <= CENSUS_BLOCK
    failing = [(g6, r.reason) for g6, a in zip(encode_graph6(family), family)
               if not (r := s_roth_oracle(compose(2, a, scaffold))).is_s_roth]
    assert [(rec["g_graph6"], rec["reason"]) for rec in out["failures"]] == failing
    assert failing and not out["all_s_roth"]


def test_ultra_probe_with_twins_solves_only_the_uncleared_rows(monkeypatch):
    # two equal columns make the twin quotient of order t + 2: oracle_stack sees only the rows of each block
    # that the quotient does not clear, at most CENSUS_BLOCK at once, and the failures are the one-at-a-time ones
    scaffold = np.array([[1, 1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 1, 1], [1, 1, 1, 0, 0, 0, 0]]).T
    family = all_graphs(7)
    seen = []

    def counted(a_g, k):
        seen.append(a_g)
        return oracle_stack(a_g, k)

    monkeypatch.setattr(rothlab.census, "oracle_stack", counted)
    out = ultra_roth_probe(scaffold, family)
    blocks = [family[lo:lo + CENSUS_BLOCK] for lo in range(0, len(family), CENSUS_BLOCK)]
    uncleared = [a for block in blocks if len(a := block[~_twin_screen(block, scaffold)])]
    assert len(seen) == len(uncleared) and all(np.array_equal(a, b) for a, b in zip(seen, uncleared))
    assert max(map(len, seen)) <= CENSUS_BLOCK and sum(map(len, seen)) == 1044 - 136
    failing = [(g6, r.mu, r.reason) for g6, a in zip(encode_graph6(family), family)
               if not (r := s_roth_oracle(compose(3, a, scaffold))).is_s_roth]
    assert [(rec["g_graph6"], rec["mu"], rec["reason"]) for rec in out["failures"]] == failing
    assert len(failing) == 907


def test_twin_screen_clears_only_rows_the_oracle_decides_s_roth():
    # every (4, 5) and (3, 6) scaffold with a repeated column against every G that keeps H connected: a
    # cleared row is S-Roth on the full Q(H), and no row the oracle settles exactly or finds multiple is cleared
    rows = cleared = exact = 0
    for t, s in ((4, 5), (3, 6)):
        graphs = all_graphs(t)
        for k in enumerate_connected_bipartite(t, s):
            if len(np.unique(k.T, axis=0)) == s:
                assert not _twin_screen(graphs, k).any()  # no twins: nothing is screened
                continue
            a = graphs[_connected_mask(np.broadcast_to(k, (len(graphs), t, s)), graphs)]
            screened, d = _twin_screen(a, k), oracle_stack(a, k)
            assert d.is_s_roth[screened].all()
            settled = np.not_equal(d.kernel, None)
            assert not (screened & (settled | (d.multiplicity > 1))).any()
            rows, cleared, exact = rows + len(a), cleared + screened.sum(), exact + settled.sum()
    assert (rows, cleared, exact) == (4876, 1625, 579)


@pytest.mark.parametrize("kind, pairs", [("maxdeg", [(6, 7)]),
                                         ("tree", [(s, t) for s in range(6, 9) for t in range(7, 10) if t > s])])
def test_screened_failures_are_the_oracles(kind, pairs):
    # the sweeps' failures, screened on the twin quotient, are the oracle_stack failures of the whole family in order
    for s, t in pairs:
        family, k = rothlab.census._family(kind, s, t), np.ones((t, s), dtype=np.int64)
        d = oracle_stack(family, k)
        bad = np.flatnonzero(~d.is_s_roth)
        screened = rothlab.census._failures(family, k)
        assert [(text, mu, reason) for _, text, mu, reason in screened] == list(
            zip(encode_graph6(family[bad]), d.mu[bad].tolist(), d.reason[bad].tolist()))
        assert all(np.array_equal(a, b) for (a, *_), b in zip(screened, family[bad]))


def test_ultra_probe_refuses_a_scaffold_that_is_not_a_matrix():
    for shape in ((4,), (1, 4, 2)):
        with pytest.raises(ValueError, match=rf"t x s matrix, got shape \({', '.join(map(str, shape))},?\)"):
            ultra_roth_probe(np.ones(shape, dtype=np.int64), np.zeros((1, 4, 4), dtype=np.int64))


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
    assert len(failing) == 29
