"""Command-line front end.

Subcommands: analyze (single-instance JSON report on one line), census
(Table-style CSV), conjecture (exhaustive family sweeps).  Exit codes for
analyze: 0 when the instance is S-Roth, 3 when it is not, 1 on any error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import analysis, census, graphs, spectra


def _load_graph(path: str) -> np.ndarray:
    """Adjacency matrix of the file at path: graph6 when its first line is one token, else an edge list."""
    with open(path) as fh:
        text = fh.read()
    first = next(iter(text.strip().splitlines()), "")
    if len(first.split()) == 1 and not first.startswith("#"):
        return graphs.decode_graph6([first])[0]
    return graphs.parse_edge_list(text)


def _parse_vertex_list(spec: str) -> list:
    try:
        return sorted({int(tok) for tok in spec.replace(",", " ").split()})
    except ValueError:
        raise ValueError(f"bad vertex list {spec!r}") from None


def cmd_analyze(args) -> int:
    g = _load_graph(args.input)
    if args.complete_scaffold is not None:
        inst = graphs.compose(args.complete_scaffold, g)
    else:
        if not args.s_vertices:
            raise ValueError("need --s-vertices or --complete-scaffold")
        inst = graphs.instance_from_graph(g, _parse_vertex_list(args.s_vertices))

    d = analysis.decide_instance(inst)
    alpha = None
    if analysis.is_complete_scaffold(inst) and d.mu < inst.t:
        alpha = analysis.alpha_of(inst, d.mu)
    report = {
        "instance": dict(graphs.instance_to_json(inst), labels=list(inst.labels)),
        "mu": d.mu,
        "multiplicity": d.multiplicity,
        "eigenvector": list(d.eigenvector),
        "s_roth": d.is_s_roth,
        "reason": d.reason,
        "certificates": {
            "harmcond": d.harmcond,
            "harmcond_witness": None if d.harmcond else d.witness.tolist(),
            "gc": d.gc,
            "bdeg": d.bdeg,
            "st": d.st,
            "gdeg": d.gdeg,
            "deg2": d.deg2,
            "boundary": {"applicable": d.boundary is not None,
                         "s_roth": None if d.boundary is None else d.boundary == (),
                         "witness": d.boundary or None},
        },
        "matrix_classes": {"m_matrix": d.z_matrix, "inv_positive": d.inverse_positive,
                           "minpositive": d.minpositive} if d.classes else None,
        "alpha": alpha,
        "bounds": {
            "lower_degrees": spectra.mu_lower_bound_degrees(graphs.block_adjacency(inst.A, inst.K)),
            "upper_cut": spectra.mu_upper_bound_cut(inst),
        },
    }
    print(json.dumps(report))
    return 0 if d.is_s_roth else 3


_NAMED_GRAPHS = {"K": graphs.complete_graph, "P": graphs.path_graph,
                 "C": graphs.cycle_graph, "E": graphs.empty_graph}


def _named_graph(spec: str) -> np.ndarray:
    kind, num = spec[:1].upper(), spec[1:]
    if kind not in _NAMED_GRAPHS or not num.isdigit():
        raise ValueError(f"unknown graph spec {spec!r} (use K4, P10, C14, E5)")
    return _NAMED_GRAPHS[kind](int(num))


def cmd_census(args) -> int:
    g = _named_graph(args.g) if args.g else None
    row = census.run_census(args.t, args.s, g=g, out_dir=args.out_dir,
                            jobs=args.jobs, allow_long=args.allow_long)
    path = census.census_summary_path(args.t, args.s, args.out_dir)
    print(json.dumps({"row": row.__dict__, "csv": path}))
    return 0


def _parse_range(spec: str) -> range:
    lo, _, hi = spec.partition(":")
    try:
        lo = int(lo)
        hi = int(hi) if hi else lo
    except ValueError:
        raise ValueError(f"bad range {spec!r} (use N or LO:HI)") from None
    if hi < lo:
        raise ValueError(f"range {spec!r} is reversed")
    return range(lo, hi + 1)


def cmd_conjecture(args) -> int:
    report = census.conjecture_sweep(args.kind, _parse_range(args.s_range),
                                     _parse_range(args.t_range), relax=args.relax)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(report["counterexamples"], indent=2))
    print(json.dumps({k: report[k] for k in ("kind", "pairs", "checked")}
                     | {"counterexamples": len(report["counterexamples"]),
                        "details": report["counterexamples"]}))
    return 0 if not report["counterexamples"] else 3


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rothlab",
                                description="Smallest signless-Laplacian eigenvector sign analysis")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="classify one instance, JSON report to stdout")
    a.add_argument("input", help="graph file (graph6 or edge list)")
    a.add_argument("--s-vertices", help="comma-separated independent set S in the input graph")
    a.add_argument("--complete-scaffold", type=int, metavar="S",
                   help="treat the input as G and join S isolated vertices")
    a.set_defaults(func=cmd_analyze)

    c = sub.add_parser("census", help="classify all connected bipartite scaffolds for (t, s)")
    c.add_argument("--t", type=int, required=True)
    c.add_argument("--s", type=int, required=True)
    c.add_argument("--g", help="graph on T (K4, P5, C6, E3); default complete")
    c.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="threads deciding scaffold blocks (default: cpu count)")
    c.add_argument("--allow-long", action="store_true")
    c.add_argument("--out-dir", default=".")
    c.set_defaults(func=cmd_census)

    j = sub.add_parser("conjecture", help="oracle sweep over tree / bounded-degree families")
    j.add_argument("--kind", choices=("tree", "maxdeg"), required=True)
    j.add_argument("--s-range", required=True, help="e.g. 6 or 6:8")
    j.add_argument("--t-range", required=True, help="e.g. 7:9")
    j.add_argument("--relax", action="store_true", help="drop the s >= 6 hypothesis")
    j.add_argument("--out", help="write the counterexample list, [] when clean, to this JSON file")
    j.set_defaults(func=cmd_conjecture)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, spectra.EigensolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
