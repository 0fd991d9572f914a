"""Command-line front end.

Subcommands: analyze (single-instance JSON report on one line), census
(Table-style CSV), noise (seeded sign-pattern recovery trials), conjecture
(family sweeps), bounds (inverse-bound sweeps as CSV).  Exit codes for
analyze: 0 when the instance is S-Roth, 3 when it is not, 1 on any error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

import numpy as np

from . import analysis, bounds, census, graphs, spectra


def _json_default(v):
    """json.dumps hook: numpy scalars and arrays become Python values."""
    if isinstance(v, (np.generic, np.ndarray)):
        return v.tolist()
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


def _load_graph(path: str, fmt: str) -> np.ndarray:
    """Adjacency matrix of the first graph6 line, or of the edge list, in the file at path."""
    with open(path) as fh:
        text = fh.read()
    if fmt == "auto":
        stripped = text.strip().splitlines()
        first = stripped[0].strip() if stripped else ""
        token = first.split()
        fmt = "g6" if len(token) == 1 and not first.startswith("#") else "edges"
    if fmt == "g6":
        for line in text.splitlines():
            if line.strip():
                return graphs.decode_graph6([line])[0]
        raise ValueError(f"{path}: no graph6 line found")
    return graphs.parse_edge_list(text)


def _parse_vertex_list(spec: str) -> list:
    try:
        return sorted({int(tok) for tok in spec.replace(",", " ").split()})
    except ValueError:
        raise ValueError(f"bad vertex list {spec!r}") from None


def cmd_analyze(args) -> int:
    g = _load_graph(args.input, args.format)
    if args.complete_scaffold is not None:
        inst = graphs.compose(args.complete_scaffold, g)
    else:
        if not args.s_vertices:
            raise ValueError("need --s-vertices or --complete-scaffold")
        inst = graphs.instance_from_graph(g, _parse_vertex_list(args.s_vertices))

    d = analysis.decide_instance(inst)
    verdict, classes, harm = d.verdict, d.classes, d.harmcond
    matrix_classes = None if classes is None else {
        "z": classes.z_matrix, "m_matrix": classes.m_matrix,
        "inv_positive": classes.inverse_positive, "minpositive": classes.minpositive}
    complete = analysis.is_complete_scaffold(inst)
    alpha = None
    if complete and verdict.mu < inst.t:
        alpha = analysis.alpha_of(inst, verdict.mu)
    bc = analysis.boundary_characterization(inst)
    report = {
        "instance": dict(graphs.instance_to_json(inst), labels=list(inst.labels)),
        "mu": verdict.mu,
        "multiplicity": verdict.multiplicity,
        "eigenvector": list(verdict.eigenvector),
        "s_roth": verdict.is_s_roth,
        "reason": verdict.reason,
        "certificates": {
            "harmcond": harm.holds,
            "harmcond_witness": harm.witness,
            "gc": d.gc,
            "bdeg": d.bdeg,
            "st": d.st,
            "gdeg": analysis.gdeg_check(inst),
            "deg2": analysis.deg2_predicate(inst),
            "boundary": {"applicable": bc.applicable, "s_roth": bc.s_roth,
                         "witness": bc.witness},
        },
        "matrix_classes": matrix_classes,
        "alpha": alpha,
        "bounds": {
            "lower_degrees": spectra.mu_lower_bound_degrees(graphs.block_adjacency(inst.A, inst.K)),
            "upper_cut": spectra.mu_upper_bound_cut(inst),
        },
    }
    print(json.dumps(report, default=_json_default))
    return 0 if verdict.is_s_roth else 3


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
                            jobs=args.jobs, resume=args.resume,
                            allow_long=args.allow_long)
    path = census.census_summary_path(args.t, args.s, args.out_dir)
    print(json.dumps({"row": row.__dict__, "csv": path}, default=_json_default))
    return 0


def cmd_noise(args) -> int:
    if args.s < 1 or args.t < 1:
        raise ValueError("need s, t >= 1")
    base = graphs.compose(args.s, graphs.empty_graph(args.t))
    ops = ([graphs.DeleteCross() for _ in range(args.deletions)]
           + [graphs.AddIntra() for _ in range(args.additions)])
    children = np.random.SeedSequence(args.seed).spawn(args.trials)
    recovered = 0
    for child in children:
        inst = None
        for attempt_seed in child.generate_state(50):
            try:
                inst = graphs.apply_noise(base, ops, seed=int(attempt_seed))
                break
            except ValueError:
                continue  # sampled ops disconnected H; retry with a fresh draw
        if inst is None:
            raise ValueError("noise parameters infeasible: no valid perturbation found")
        if analysis.s_roth_oracle(inst).is_s_roth:
            recovered += 1
    report = {"s": args.s, "t": args.t, "deletions": args.deletions,
              "additions": args.additions, "trials": args.trials,
              "seed": args.seed, "recovered": recovered,
              "rate": recovered / args.trials if args.trials else None}
    print(json.dumps(report))
    return 0


def _parse_range(spec: str) -> range:
    lo, _, hi = spec.partition(":")
    lo = int(lo)
    hi = int(hi) if hi else lo
    if hi < lo:
        raise ValueError(f"range {spec!r} is reversed")
    return range(lo, hi + 1)


def cmd_conjecture(args) -> int:
    report = census.conjecture_sweep(args.kind, _parse_range(args.s_range),
                                     _parse_range(args.t_range), relax=args.relax,
                                     sample_limit=args.sample_limit, seed=args.seed)
    if report["counterexamples"] and args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(report["counterexamples"], indent=2, default=_json_default))
    print(json.dumps({k: report[k] for k in ("kind", "pairs", "checked")}
                     | {"counterexamples": len(report["counterexamples"]),
                        "details": report["counterexamples"]}, default=_json_default))
    return 0 if not report["counterexamples"] else 3


def cmd_bounds(args) -> int:
    writer = csv.writer(sys.stdout)
    writer.writerow(["k", "lambda", "metric", "bound", "observed"])
    if args.sweep == "cycle":
        for k in (3, 5, 8, 13, 21, 34):
            for lam in np.arange(2.1, 10.01, 0.7):
                rep = bounds.cycle_block_bounds(k, float(lam))
                writer.writerow([k, f"{lam:.2f}", "diag", rep.diag_bound, rep.observed_diag])
                writer.writerow([k, f"{lam:.2f}", "offdiag_ratio", rep.offdiag_ratio,
                                 rep.observed_offdiag_ratio])
                writer.writerow([k, f"{lam:.2f}", "trace_lower", rep.trace_lower,
                                 rep.observed_trace])
                writer.writerow([k, f"{lam:.2f}", "trace_upper", rep.trace_upper,
                                 rep.observed_trace])
    elif args.sweep == "path":
        mu = 0.5  # representative mu in (0,1); s-mu stays well positive
        for k in range(3, 61):
            sums = bounds.path_block_rowsums(k, args.s, mu)
            writer.writerow([k, f"{args.s - mu:.2f}", "min_rowsum", 0.0, float(sums.min())])
    elif args.sweep == "baigolub":
        for k in (4, 9, 16, 25):
            for lam in (0.5, 1.0, 3.0, 9.0):
                a = spectra.signless_laplacian(graphs.cycle_graph(k)) + lam * np.eye(k)
                lower, upper = bounds.bai_golub_trace_bounds(a, lam, lam + 4.0)
                observed = float(np.trace(np.linalg.inv(a)))
                writer.writerow([k, f"{lam:.2f}", "trace_lower", lower, observed])
                writer.writerow([k, f"{lam:.2f}", "trace_upper", upper, observed])
    else:
        raise ValueError(f"unknown sweep {args.sweep!r}")
    return 0


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rothlab",
                                description="Smallest signless-Laplacian eigenvector sign analysis")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="classify one instance, JSON report to stdout")
    a.add_argument("input", help="graph file (graph6 or edge list)")
    a.add_argument("--format", choices=("auto", "g6", "edges"), default="auto")
    a.add_argument("--s-vertices", help="comma-separated independent set S in the input graph")
    a.add_argument("--complete-scaffold", type=int, metavar="S",
                   help="treat the input as G and join S isolated vertices")
    a.set_defaults(func=cmd_analyze)

    c = sub.add_parser("census", help="classify all connected bipartite scaffolds for (t, s)")
    c.add_argument("--t", type=int, required=True)
    c.add_argument("--s", type=int, required=True)
    c.add_argument("--g", help="graph on T (K4, P5, C6, E3); default complete")
    c.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="worker processes (default: cpu count)")
    c.add_argument("--resume", action="store_true")
    c.add_argument("--allow-long", action="store_true")
    c.add_argument("--out-dir", default=".")
    c.set_defaults(func=cmd_census)

    n = sub.add_parser("noise", help="sign-pattern recovery rate under random perturbations")
    n.add_argument("--s", type=int, required=True)
    n.add_argument("--t", type=int, required=True)
    n.add_argument("--deletions", type=int, default=0)
    n.add_argument("--additions", type=int, default=0)
    n.add_argument("--trials", type=int, default=100)
    n.add_argument("--seed", type=int, default=0)
    n.set_defaults(func=cmd_noise)

    j = sub.add_parser("conjecture", help="oracle sweep over tree / bounded-degree families")
    j.add_argument("--kind", choices=("tree", "maxdeg"), required=True)
    j.add_argument("--s-range", required=True, help="e.g. 6 or 6:8")
    j.add_argument("--t-range", required=True, help="e.g. 7:9")
    j.add_argument("--relax", action="store_true", help="drop the s >= 6 hypothesis")
    j.add_argument("--sample-limit", type=int, default=200)
    j.add_argument("--seed", type=int, default=0)
    j.add_argument("--out", help="write counterexamples to this JSON file")
    j.set_defaults(func=cmd_conjecture)

    b = sub.add_parser("bounds", help="inverse-entry bound sweeps, CSV to stdout")
    b.add_argument("--sweep", choices=("cycle", "path", "baigolub"), required=True)
    b.add_argument("--s", type=int, default=6, help="s for the path sweep")
    b.set_defaults(func=cmd_bounds)
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
