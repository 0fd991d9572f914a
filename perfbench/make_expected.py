"""Write the reference outputs in ``perfbench/expected/`` from the current program.

    PYTHONPATH=src python3 -m perfbench.make_expected

The references were made once, at the commit that introduced the benchmark,
and the checks compare every later commit against them.  Running this again
after a verdict changes would hide that change: do so only once the new
verdicts have been shown correct and the change is written up.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import tempfile

import rothlab.graphs

from . import checks, inputs, workloads

ANALYZE_SEEDS = range(10)


def _dump(name: str, obj) -> None:
    # one line per innermost list keeps the files short and diffable
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + ", ".join(v.strip() for v in m.group(1).split(",")) + "]",
                  json.dumps(obj, indent=1))
    with open(os.path.join(checks.EXPECTED_DIR, name), "w") as fh:
        fh.write(text + "\n")


def main() -> None:
    os.makedirs(checks.EXPECTED_DIR, exist_ok=True)
    reports = workloads._run_sweep({})
    _dump("sweep.json", {
        r["kind"]: {"checked": r["checked"],
                    "counterexamples": sorted(checks._cx_key(c) for c in r["counterexamples"])}
        for r in reports})

    with tempfile.TemporaryDirectory() as tmp:
        state = {"out_dir": tmp, "g": rothlab.graphs.complete_graph(workloads.CENSUS_T), "jobs": 1}
        row = workloads._run_census(state)
        name = f"classify_t{workloads.CENSUS_T}_s{workloads.CENSUS_S}.csv"
        shutil.copyfile(os.path.join(tmp, name), os.path.join(checks.EXPECTED_DIR, name))
    _dump("census.json", {"t": row.t, "s": row.s, "summary": [
        row.total, row.n_s_roth, row.n_harmcond, row.n_m_matrix, row.n_inv_positive]})

    seeds = {}
    for seed in ANALYZE_SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            out = workloads._run_analyze({"batch": inputs.make_batch(seed, tmp)})
        verdicts = {}
        for file, code, text, _ in out:
            rep = json.loads(text)
            verdicts[file] = [code, rep["s_roth"], rep["reason"], rep["multiplicity"]]
        seeds[str(seed)] = verdicts
    _dump("analyze.json", {"fields": ["exit_code", "s_roth", "reason", "multiplicity"],
                           "seeds": seeds})


if __name__ == "__main__":
    main()
