"""Summarize run records into one results file: medians and quartiles per workload.

    python3 perfbench/summarize.py .perfbench/results/*-trace*.json --out FILE [--note TEXT]

Untraced records (one per seed) give each end-to-end metric's median,
quartiles and spread, the spread being the quartile distance over the median
as statistics.quantiles(values, n=4) gives it.  A traced record gives the
per-layer metrics, the time accounting and the workload property report.
"""

from __future__ import annotations

import argparse
import json
import statistics


def summarize(records: list) -> dict:
    out = {}
    for rec in records:
        out.setdefault(rec["workload"], {"untraced": [], "traced": []})[
            "traced" if rec["trace"] else "untraced"].append(rec)
    summary = {}
    for workload, groups in sorted(out.items()):
        entry = {}
        runs = groups["untraced"]
        if runs:
            entry["runs"] = len(runs)
            entry["seeds"] = [r["seed"] for r in runs]
            entry["correct"] = all(r["correct"] for r in runs)
            entry["attempted"] = sum(r["attempted"] for r in runs)
            entry["failed"] = sum(r["failed"] for r in runs)
            metrics = {}
            for name, first in runs[0]["end_to_end"].items():
                values = [r["end_to_end"][name]["value"] for r in runs]
                med = statistics.median(values)
                row = {"unit": first["unit"], "median": med, "values": values}
                if len(values) >= 2:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    row.update(q1=q1, q3=q3, spread=(q3 - q1) / med)
                metrics[name] = row
            entry["end_to_end"] = metrics
            entry["environment"] = runs[0]["environment"]
            entry["loadavg"] = [[r["environment"]["loadavg_start"], r["environment"]["loadavg_end"]]
                                for r in runs]
            entry["checks"] = runs[-1]["checks"]["facts"]
        if groups["traced"]:
            t = groups["traced"][-1]
            entry["traced_seed"] = t["seed"]
            entry["per_layer"] = {k: v["value"] for k, v in t["per_layer"].items()}
            entry["accounting"] = {k: v for k, v in t["accounting"].items() if k != "functions"}
            entry["properties"] = t["properties"]
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("records", nargs="+")
    p.add_argument("--out", required=True)
    p.add_argument("--note", default="")
    args = p.parse_args(argv)
    records = []
    for path in args.records:
        with open(path) as fh:
            records.append(json.load(fh))
    with open(args.out, "w") as fh:
        json.dump({"note": args.note, "workloads": summarize(records)}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
