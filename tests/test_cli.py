"""End-to-end command line checks through main()."""

import csv
import io
import json
import os

import pytest

from rothlab.cli import build_parser, main
from conftest import edge_list_text
from rothlab.graphs import block_adjacency, complete_bipartite, encode_graph6


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    assert rep["matrix_classes"] == {"z": True, "m_matrix": True, "inv_positive": True,
                                     "minpositive": True}


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


def test_census_named_graph(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "census", "--t", "3", "--s", "2", "--g", "P3",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["row"]["total"] >= 1


def test_noise_trivial_recovery(capsys):
    code, out, _ = run_cli(
        capsys, "noise", "--s", "5", "--t", "3", "--trials", "20"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["rate"] == pytest.approx(1.0)
    assert rep["seed"] == 0
    assert rep["trials"] == 20


def test_noise_additions_case(capsys):
    code, out, _ = run_cli(
        capsys, "noise", "--s", "17", "--t", "5", "--additions", "2",
        "--trials", "10", "--seed", "3",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["rate"] == pytest.approx(1.0)


def test_noise_deterministic(capsys):
    args = ("noise", "--s", "6", "--t", "4", "--deletions", "2",
            "--additions", "1", "--trials", "15", "--seed", "11")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_conjecture_command_with_artifact(tmp_path, capsys):
    art = tmp_path / "ce.json"
    code, out, _ = run_cli(
        capsys, "conjecture", "--kind", "maxdeg", "--s-range", "4",
        "--t-range", "60", "--relax", "--sample-limit", "4", "--seed", "0",
        "--out", str(art),
    )
    assert code == 3
    rep = json.loads(out)
    assert rep["counterexamples"] > 0
    assert rep["details"]
    assert art.exists()
    payload = json.loads(art.read_text())
    assert payload and payload[0]["s"] == 4


def test_conjecture_clean_exit(capsys):
    code, out, _ = run_cli(
        capsys, "conjecture", "--kind", "tree", "--s-range", "7",
        "--t-range", "8:9",
    )
    # s=7 trees: the star on 8 vertices fails, so expect exit 3 here;
    # restricting degree below s must exit clean
    rep = json.loads(out)
    assert code == (3 if rep["counterexamples"] else 0)
    code2, out2, _ = run_cli(
        capsys, "conjecture", "--kind", "maxdeg", "--s-range", "6",
        "--t-range", "7",
    )
    assert code2 == 0
    assert json.loads(out2)["counterexamples"] == 0


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


def test_bounds_cycle_sweep(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--sweep", "cycle")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows
    assert set(rows[0]) == {"k", "lambda", "metric", "bound", "observed"}
    for row in rows:
        b, o = float(row["bound"]), float(row["observed"])
        if row["metric"] in ("diag", "offdiag_ratio", "trace_upper"):
            assert o <= b + 1e-8
        elif row["metric"] == "trace_lower":
            assert b <= o + 1e-8


def test_bounds_path_sweep(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--sweep", "path", "--s", "6")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    ks = sorted({int(r["k"]) for r in rows})
    assert ks[0] == 3 and ks[-1] == 60
    for row in rows:
        assert float(row["observed"]) > float(row["bound"])


def test_bounds_baigolub_sweep(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--sweep", "baigolub")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    lows = [r for r in rows if r["metric"] == "trace_lower"]
    his = [r for r in rows if r["metric"] == "trace_upper"]
    assert lows and his
    for r in lows:
        assert float(r["bound"]) <= float(r["observed"]) + 1e-8
    for r in his:
        assert float(r["observed"]) <= float(r["bound"]) + 1e-8


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


def test_explicit_format_override(tmp_path, capsys):
    # a single-token line that is valid graph6 but meant as an edge list
    path = tmp_path / "amb.txt"
    path.write_text("0 1\n2 1\n")
    code, out, _ = run_cli(
        capsys, "analyze", str(path), "--format", "edges",
        "--complete-scaffold", "5",
    )
    assert code == 0
    assert json.loads(out)["instance"]["t"] == 3


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
    assert ns.jobs == (os.cpu_count() or 1) and ns.out_dir == "." and not ns.resume
