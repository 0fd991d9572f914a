"""End-to-end command line checks through main()."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import rothlab
from rothlab.cli import build_parser, main
from conftest import edge_list_text
from paper_tools import complete_bipartite, join
from rothlab.graphs import block_adjacency, cycle_graph, decode_graph6, empty_graph, encode_graph6, path_graph


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_import_loads_no_scipy():
    # every CLI call pays for the imports: the package needs numpy alone
    src = os.path.dirname(os.path.dirname(rothlab.__file__))
    code = "import sys, rothlab, rothlab.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_analyze_graph6_instance(tmp_path, capsys, ex1):
    path = tmp_path / "b.g6"
    path.write_text(encode_graph6(block_adjacency(0, ex1.K[None]))[0] + "\n")
    code, out, _ = run_cli(
        capsys, "analyze", str(path), "--s-vertices", "4,5,6,7,8,9,10"
    )
    # B alone is bipartite: S-Roth holds, exit 0
    assert code == 0
    rep = json.loads(out)
    assert rep["s_roth"] is True
    assert rep["instance"]["s"] == 7


def test_analyze_full_instance_report(tmp_path, capsys, ex1):
    path = tmp_path / "h.g6"
    path.write_text(encode_graph6(block_adjacency(ex1.A, ex1.K[None]))[0] + "\n")
    code, out, _ = run_cli(
        capsys, "analyze", str(path), "--s-vertices", "4,5,6,7,8,9,10"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["mu"] == pytest.approx(0.63226, abs=5e-5)
    assert rep["s_roth"] is True
    assert set(rep["certificates"]) >= {"harmcond", "gc", "bdeg", "st", "gdeg", "deg2"}
    assert "matrix_classes" in rep and "bounds" in rep


def test_analyze_prints_one_line_report(tmp_path, capsys, ex2):
    path = tmp_path / "h2.g6"
    path.write_text(encode_graph6(block_adjacency(ex2.A, ex2.K[None]))[0] + "\n")
    code, out, _ = run_cli(capsys, "analyze", str(path), "--s-vertices", "4,5,6,7,8,9,10")
    assert code == 0
    assert out.count("\n") == 1 and out.endswith("\n")
    rep = json.loads(out)
    assert (rep["s_roth"], rep["reason"], rep["multiplicity"]) == (True, "SignedEigenvector", 1)
    assert rep["certificates"] == {
        "harmcond": False, "harmcond_witness": [0, 1], "gc": False, "bdeg": False,
        "st": False, "gdeg": "none", "deg2": False,
        "boundary": {"applicable": False, "s_roth": None, "witness": None}}
    assert rep["matrix_classes"] == {"m_matrix": True, "inv_positive": True, "minpositive": True}


@pytest.mark.parametrize("t", [2, 5, 9])
def test_analyze_witness_pair_of_every_index(tmp_path, capsys, t):
    # G is the one edge ij and one S-vertex sees all of T, so the harmonic sum on ij is 1/t and ij is
    # the witness: the report's pair must be ij
    path = tmp_path / "h.edges"
    for i, j in zip(*np.triu_indices(t, 1)):
        path.write_text(f"{i} {j}\n" + "".join(f"{v} {t}\n" for v in range(t)))
        code, out, _ = run_cli(capsys, "analyze", str(path), "--s-vertices", str(t))
        assert code in (0, 3)
        assert json.loads(out)["certificates"]["harmcond_witness"] == [i, j]


def test_analyze_failure_exit_code(tmp_path, capsys, ex88):
    path = tmp_path / "h88.g6"
    path.write_text(encode_graph6(block_adjacency(ex88.A, ex88.K[None]))[0] + "\n")
    code, out, _ = run_cli(
        capsys, "analyze", str(path), "--s-vertices", "6,7,8,9"
    )
    assert code == 3
    rep = json.loads(out)
    assert rep["s_roth"] is False
    assert rep["reason"] == "ZeroEntry"
    assert rep["mu"] == pytest.approx(2.0, abs=1e-9)


def test_analyze_edge_list_and_scaffold_flag(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text("# path on 3 vertices\n0 1\n1 2\n")
    code, out, _ = run_cli(capsys, "analyze", str(path), "--complete-scaffold", "4")
    assert code == 0
    rep = json.loads(out)
    assert rep["instance"]["s"] == 4 and rep["instance"]["t"] == 3
    assert rep["s_roth"] is True
    assert rep["alpha"] is not None


def test_analyze_rejects_bad_input(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text("~~~~~\n")
    code, _, err = run_cli(capsys, "analyze", str(path), "--complete-scaffold", "3")
    assert code == 1
    assert err.strip()
    path.write_text("0 1\n1 2\n")
    code, out, err = run_cli(capsys, "analyze", str(path), "--s-vertices", "0,x")
    assert (code, out) == (1, "") and "bad vertex list '0,x'" in err


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/x.g6",
                           "--complete-scaffold", "3")
    assert code == 1
    assert err.strip()


def test_analyze_requires_s_spec(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text("0 1\n")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 1


def test_analyze_refuses_empty_s(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text("0 1\n1 2\n")
    code, out, err = run_cli(capsys, "analyze", str(path), "--s-vertices", ",")
    assert code == 1 and not out
    assert "S must contain at least one vertex" in err


def test_census_command(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "census", "--t", "2", "--s", "1", "--out-dir", str(tmp_path)
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["row"]["total"] == 1
    assert os.path.exists(rep["csv"])
    with open(rep["csv"]) as fh:
        header = next(csv.reader(fh))
    assert header[:2] == ["s", "total"]
    # a pool of no workers is refused, not run serially, and nothing is written
    for jobs in ("0", "-3"):
        code, out, err = run_cli(capsys, "census", "--t", "2", "--s", "1", "--jobs", jobs,
                                 "--out-dir", str(tmp_path / "none"))
        assert (code, out) == (1, "") and f"jobs must be at least 1, got {jobs}" in err
    code, out, err = run_cli(capsys, "census", "--t", "2", "--s", "1", "--g", "X2", "--out-dir", str(tmp_path / "none"))
    assert (code, out) == (1, "") and "unknown graph spec 'X2'" in err
    assert not os.path.exists(tmp_path / "none")


def test_census_named_graph(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "census", "--t", "3", "--s", "2", "--g", "P3",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["row"]["total"] >= 1


def test_conjecture_command_with_artifact(tmp_path, capsys):
    # of the trees on 7 vertices, the star FsaC? fails at s = 6
    art = tmp_path / "ce.json"
    code, out, _ = run_cli(
        capsys, "conjecture", "--kind", "tree", "--s-range", "6",
        "--t-range", "7", "--out", str(art),
    )
    assert code == 3
    rep = json.loads(out)
    assert rep["counterexamples"] == 1
    assert rep["details"]
    assert art.exists()
    payload = json.loads(art.read_text())
    assert [(ce["s"], ce["t"], ce["g_graph6"]) for ce in payload] == [(6, 7, "FsaC?")]


def test_conjecture_refuses_an_order_past_its_limit(tmp_path, capsys):
    # t = 60 is past the exhaustive maxdeg limit: refused before --out is written
    art = tmp_path / "ce.json"
    art.write_text('["keep"]')
    code, out, err = run_cli(
        capsys, "conjecture", "--kind", "maxdeg", "--s-range", "4",
        "--t-range", "60", "--relax", "--out", str(art),
    )
    assert code == 1 and out == "" and "exhaustive only up to t = 9" in err
    assert json.loads(art.read_text()) == ["keep"]


def test_conjecture_clean_exit(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "conjecture", "--kind", "tree", "--s-range", "7",
        "--t-range", "8:9",
    )
    # of the 69 trees on 8 or 9 vertices with max degree <= 7, exactly the
    # star on 8 vertices fails (criterion 9's (7, 8) row); restricting the
    # degree below s must exit clean
    rep = json.loads(out)
    assert code == 3 and rep["checked"] == 69
    assert [(ce["t"], ce["g_graph6"], ce["reason"]) for ce in rep["details"]] == [(8, "GsaCC?", "ZeroEntry")]
    code2, out2, _ = run_cli(
        capsys, "conjecture", "--kind", "maxdeg", "--s-range", "6",
        "--t-range", "7",
    )
    assert code2 == 0
    assert json.loads(out2)["counterexamples"] == 0
    # a clean sweep empties --out rather than leaving an earlier run's list there
    art = tmp_path / "ce.json"
    art.write_text('["stale"]')
    code3, _, _ = run_cli(
        capsys, "conjecture", "--kind", "maxdeg", "--s-range", "6",
        "--t-range", "7", "--out", str(art),
    )
    assert code3 == 0
    assert json.loads(art.read_text()) == []


def test_conjecture_range_parsing(capsys):
    code, out, _ = run_cli(
        capsys, "conjecture", "--kind", "maxdeg", "--s-range", "6:7",
        "--t-range", "8",
    )
    assert code == 0
    rep = json.loads(out)
    assert sorted(map(tuple, rep["pairs"])) == [(6, 8), (7, 8)]
    # a reversed range is refused, not swept as empty
    code, out, err = run_cli(
        capsys, "conjecture", "--kind", "maxdeg", "--s-range", "8:6",
        "--t-range", "9",
    )
    assert code == 1 and out == "" and "reversed" in err
    # a malformed range names the accepted forms, not int()'s message
    for spec in ("7-9", ":9"):
        code, out, err = run_cli(
            capsys, "conjecture", "--kind", "maxdeg", "--s-range", "6",
            "--t-range", spec,
        )
        assert code == 1 and out == ""
        assert f"bad range {spec!r} (use N or LO:HI)" in err and "invalid literal" not in err


def test_format_autodetect_graph6_vs_edges(tmp_path, capsys):
    g6 = tmp_path / "k.g6"
    g6.write_text(encode_graph6(complete_bipartite(2, 3)[None])[0] + "\n")
    code, out, _ = run_cli(capsys, "analyze", str(g6), "--s-vertices", "2,3,4")
    assert code == 0
    edges = tmp_path / "k.edges"
    edges.write_text(edge_list_text(complete_bipartite(2, 3)))
    code2, out2, _ = run_cli(capsys, "analyze", str(edges), "--s-vertices", "2,3,4")
    assert code2 == 0
    # both formats load the same adjacency, so the reports are byte-identical
    assert out == out2 and json.loads(out)["s_roth"]


def _both_formats(tmp_path, capsys, a, *flags):
    """The report on adjacency a, read once as graph6 and once as an edge list: both must be byte-identical."""
    (tmp_path / "in.g6").write_text(encode_graph6(a[None])[0] + "\n")
    (tmp_path / "in.edges").write_text(edge_list_text(a))
    runs = [run_cli(capsys, "analyze", str(tmp_path / name), *flags) for name in ("in.g6", "in.edges")]
    assert runs[0] == runs[1]
    code, out, _ = runs[0]
    return code, json.loads(out)


def test_report_graph6_maps_back_to_the_input(tmp_path, capsys, ex2):
    # H of ex2, relabelled so that S is scattered through the input's names
    perm = np.random.default_rng(3).permutation(11)
    h = np.zeros((11, 11), dtype=np.int64)
    h[np.ix_(perm, perm)] = block_adjacency(ex2.A, ex2.K)
    svert = ",".join(map(str, perm[4:]))
    cases = [(h, ("--s-vertices", svert), h),
             (cycle_graph(5), ("--complete-scaffold", "3"), join(cycle_graph(5), empty_graph(3)))]
    for a, flags, want in cases:
        code, rep = _both_formats(tmp_path, capsys, a, *flags)
        assert code == 0
        inst = rep["instance"]
        assert set(inst) == {"n", "s", "t", "graph6", "labels"}
        labels = inst["labels"]
        got = np.zeros_like(want)
        got[np.ix_(labels, labels)] = decode_graph6([inst["graph6"]])[0]
        assert np.array_equal(got, want)


def test_report_above_order_258_gives_graph6(tmp_path, capsys):
    # H = P_250 joined to 10 isolated vertices has 260 vertices, within the `~` header's 258047
    path = tmp_path / "p250.edges"
    path.write_text(edge_list_text(path_graph(250)))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--complete-scaffold", "10")
    assert code == 0
    rep = json.loads(out)
    assert rep["reason"] == "SignedEigenvector" and rep["mu"] == pytest.approx(3.824, abs=1e-3)
    inst = rep["instance"]
    assert set(inst) == {"n", "s", "t", "graph6", "labels"} and (inst["n"], inst["t"]) == (260, 250)
    h = join(path_graph(250), empty_graph(10))
    assert np.array_equal(decode_graph6([inst["graph6"]])[0], h)
    # and the line reads back through analyze, as H with the same S
    path = tmp_path / "h260.g6"
    path.write_text(inst["graph6"] + "\n")
    code, again, _ = run_cli(capsys, "analyze", str(path), "--s-vertices", ",".join(map(str, range(250, 260))))
    assert code == 0 and json.loads(again) == rep


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_consecutive_calls_share_no_argument_state(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text("0 1\n1 2\n")
    first = run_cli(capsys, "analyze", str(path), "--complete-scaffold", "4")
    census = run_cli(capsys, "census", "--t", "2", "--s", "1", "--jobs", "1",
                     "--out-dir", str(tmp_path))
    assert census[0] == 0 and json.loads(census[1])["row"]["total"] == 1
    assert run_cli(capsys, "analyze", str(path), "--complete-scaffold", "4") == first
    ns = build_parser().parse_args(["census", "--t", "2", "--s", "1"])
    assert not hasattr(ns, "input") and not hasattr(ns, "complete_scaffold")
    assert ns.jobs == (os.cpu_count() or 1) and ns.out_dir == "."
    with pytest.raises(SystemExit) as info:
        main(["census", "--t", "2", "--s", "1", "--jobs", "1", "--out-dir", str(tmp_path), "--resume"])
    assert info.value.code == 2
