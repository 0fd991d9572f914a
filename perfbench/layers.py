"""Per-layer metrics and the workload property report, computed from trace spans.

A layer is a rothlab module.  Names read ``<module>.<function>.<stat>`` with
stat ``calls``, ``s`` (inclusive seconds) or ``self_s`` (seconds minus child
spans), plus a few counts named in PER_LAYER.  A layer that does not run in a
workload reports 0.  In ``census_cached_jobs2`` the oracle runs in pool
workers, whose spans are not collected, so only parent-side layers show.
"""

from __future__ import annotations

REASONS = ("SignedEigenvector", "ZeroEntry", "MixedSigns", "MultipleEigenvalue")

# (name, unit, better); BENCHMARK.json lists the same metrics in the same order
PER_LAYER = [
    ("enumeration.all_graphs.s", "s", "lower"),
    ("enumeration.all_trees.s", "s", "lower"),
    ("enumeration.graphs.count", "count", "lower"),
    ("enumeration.enumerate_connected_bipartite.s", "s", "lower"),
    ("enumeration.scaffolds.count", "count", "lower"),
    ("graphs.compose.calls", "count", "lower"),
    ("graphs.compose.s", "s", "lower"),
    ("graphs.instance_from_graph.s", "s", "lower"),
    ("graphs.parse_graph6.s", "s", "lower"),
    ("graphs.emit_graph6.s", "s", "lower"),
    ("spectra.full_spectrum.calls", "count", "lower"),
    ("spectra.full_spectrum.s", "s", "lower"),
    ("spectra.full_spectrum.order3_sum", "count", "lower"),
    ("spectra.signless_laplacian.s", "s", "lower"),
    ("spectra.exact_kernel_dim.calls", "count", "lower"),
    ("spectra.exact_kernel_dim.s", "s", "lower"),
    ("spectra.exact_kernel_dim.hit_ratio", "ratio", "higher"),
    ("spectra.mu_lower_bound_degrees.s", "s", "lower"),
    ("analysis.s_roth_oracle.calls", "count", "lower"),
    ("analysis.s_roth_oracle.self_s", "s", "lower"),
    ("analysis.exact_path_share", "ratio", "lower"),
] + [(f"analysis.verdict.{r}", "count", "higher" if r == "SignedEigenvector" else "lower")
     for r in REASONS] + [
    ("analysis.classification_record.self_s", "s", "lower"),
    ("analysis.classify_q_mu.s", "s", "lower"),
    ("analysis.build_q_mu.s", "s", "lower"),
    ("analysis.harmcond_check.s", "s", "lower"),
    ("analysis.gc_check.s", "s", "lower"),
    ("analysis.build_r_mu.s", "s", "lower"),
    ("analysis.boundary_characterization.s", "s", "lower"),
    ("census.conjecture_sweep.self_s", "s", "lower"),
    ("census.run_census.self_s", "s", "lower"),
    ("census.load_scaffolds.self_s", "s", "lower"),
    ("census.detail_csv.bytes", "B", "lower"),
    ("census.g6_cache.bytes", "B", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.report.bytes", "B", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# facts reported by the workload checks that are per-layer metrics
FACT_METRICS = {"census.detail_csv.bytes": "detail_csv_bytes",
                "census.g6_cache.bytes": "g6_cache_bytes",
                "cli.report.bytes": "report_bytes"}


def _attr_spans(spans, name):
    return [s for s in spans if s[2] == name and s[5] is not None]


def _oracle_paths(spans) -> list:
    """(attrs, exact) for every oracle span; exact when its kernel call found nullity > 0."""
    exact_parents = {s[1] for s in _attr_spans(spans, "spectra.exact_kernel_dim")
                     if s[5]["nullity"] > 0}
    return [(s[5], s[0] in exact_parents) for s in _attr_spans(spans, "analysis.s_roth_oracle")]


def layer_metrics(spans: list, agg: dict, wall_s: float, facts: dict) -> dict:
    """Every PER_LAYER metric except trace.overhead_s, which needs the untraced run.

    agg is ``tracing.aggregate(spans)``.  The sum of all self times equals the
    time covered by top-level spans, so trace.unattributed_s is the part of
    the timed region spent outside every traced function.
    """
    out = {}
    for name, _unit, _better in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        head, _, stat = name.rpartition(".")
        if stat in ("calls", "s", "self_s") and head in agg:
            out[name] = agg[head][stat]
        elif name in FACT_METRICS:
            out[name] = facts.get(FACT_METRICS[name], 0)
        else:
            out[name] = 0
    per_n = {s[5]["n"]: s[5]["count"] for s in _attr_spans(spans, "enumeration.all_graphs")}
    out["enumeration.graphs.count"] = sum(per_n.values())
    out["enumeration.scaffolds.count"] = sum(
        s[5]["count"] for s in _attr_spans(spans, "enumeration.enumerate_connected_bipartite"))
    out["spectra.full_spectrum.order3_sum"] = sum(
        s[5]["n"] ** 3 for s in _attr_spans(spans, "spectra.full_spectrum"))
    kernel = _attr_spans(spans, "spectra.exact_kernel_dim")
    if kernel:
        out["spectra.exact_kernel_dim.hit_ratio"] = (
            sum(s[5]["nullity"] > 0 for s in kernel) / len(kernel))
    paths = _oracle_paths(spans)
    if paths:
        out["analysis.exact_path_share"] = sum(exact for _, exact in paths) / len(paths)
    for reason in REASONS:
        out[f"analysis.verdict.{reason}"] = sum(a["reason"] == reason for a, _ in paths)
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - sum(rec["self_s"] for rec in agg.values())
    return out


def accounting(agg: dict, wall_s: float, top: int = 12) -> dict:
    """How the traced wall time splits into self times; the remainder is unattributed."""
    self_total = sum(rec["self_s"] for rec in agg.values())
    ranked = sorted(agg.items(), key=lambda kv: -kv[1]["self_s"])
    return {
        "traced_wall_s": wall_s,
        "self_time_sum_s": self_total,
        "unattributed_s": wall_s - self_total,
        "largest_self_times": [[name, rec["calls"], rec["self_s"]] for name, rec in ranked[:top]],
        "functions": {name: rec for name, rec in sorted(agg.items())},
    }


def property_report(spans: list) -> dict:
    """Instance mix seen by the oracle: per (s, t), per matrix order, scaffold, path, reason."""
    paths = _oracle_paths(spans)
    n = len(paths)
    if not n:
        return {"oracle_calls_traced": 0}
    per_st, per_order, reasons = {}, {}, {}
    for a, _ in paths:
        key = f"{a['s']},{a['t']}"
        per_st[key] = per_st.get(key, 0) + 1
        order = str(a["s"] + a["t"])
        per_order[order] = per_order.get(order, 0) + 1
        reasons[a["reason"]] = reasons.get(a["reason"], 0) + 1
    return {
        "oracle_calls_traced": n,
        "instances_per_s_t": dict(sorted(per_st.items())),
        "instances_per_order": dict(sorted(per_order.items(), key=lambda kv: int(kv[0]))),
        "complete_scaffold_share": sum(a["complete"] for a, _ in paths) / n,
        "exact_path_share": sum(exact for _, exact in paths) / n,
        "reason_shares": {r: reasons.get(r, 0) / n for r in REASONS},
    }
