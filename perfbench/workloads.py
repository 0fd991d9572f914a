"""The four workloads: how each is set up, run (the timed part) and checked.

Every callable into rothlab is looked up on its module at call time, so that
a tracer installed after set-up sees the call.  See README.md for why each
workload exists.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import rothlab.census
import rothlab.cli
import rothlab.graphs

from . import checks, inputs

CENSUS_T, CENSUS_S = 4, 7


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool  # False: exhaustive, the seed is recorded and ignored
    setup: Callable  # (seed, workdir) -> state
    run: Callable  # (state) -> outputs; the timed region
    check: Callable  # (state, outputs) -> (attempted, failed, details, facts)
    expected_ops: int  # operations counted as failed if run raises
    # False: the timed region runs in forked pool workers, which take the
    # host speed probes instead of this process (see hostspeed.py)
    probe_inside: bool = True


# sweep: conjecture sweeps from a cold all_graphs cache.  The tree sweep uses
# the criterion-9 parameters.  The maxdeg sweep stops at t = 7: with t = 8 one
# repeat takes 20-30 s, a run holds a single sample, and on a shared host its
# run-to-run spread exceeded the regression bound.


def _setup_sweep(seed, workdir):
    return {}


def _run_sweep(state):
    sweep = rothlab.census.conjecture_sweep
    return [sweep("maxdeg", range(6, 8), range(7, 8)), sweep("tree", range(6, 9), range(7, 10))]


def _check_sweep(state, reports):
    attempted, failed, details = checks.check_sweep(reports, checks.load_expected("sweep.json"))
    return attempted, failed, details, {}


# census: (4, 7) with G = K4, serial, empty output directory


def _setup_census(seed, workdir, cached=False):
    out_dir = os.path.join(workdir, "census")
    os.makedirs(out_dir)
    if cached:
        rothlab.census.load_scaffolds(CENSUS_T, CENSUS_S, out_dir)
    return {"out_dir": out_dir, "g": rothlab.graphs.complete_graph(CENSUS_T),
            "jobs": 2 if cached else 1}


def _run_census(state):
    return rothlab.census.run_census(CENSUS_T, CENSUS_S, g=state["g"],
                                     out_dir=state["out_dir"], jobs=state["jobs"])


def _check_census(state, row):
    out_dir = state["out_dir"]
    attempted, failed, details, facts = checks.check_census(
        out_dir, row, checks.load_expected("census.json"), CENSUS_T, CENSUS_S)
    facts["detail_csv_bytes"] = os.path.getsize(os.path.join(out_dir, f"classify_t{CENSUS_T}_s{CENSUS_S}.csv"))
    facts["g6_cache_bytes"] = os.path.getsize(os.path.join(out_dir, f"bipartite_t{CENSUS_T}_s{CENSUS_S}.g6"))
    return attempted, failed, details, facts


# analyze: one CLI report per input file, in-process, stdout captured


def _setup_analyze(seed, workdir):
    batch = inputs.make_batch(seed, os.path.join(workdir, "analyze"))
    stored = checks.load_expected("analyze.json")["seeds"].get(str(seed))
    return {"batch": batch, "stored": stored}


def _run_analyze(state):
    main = rothlab.cli.main
    clock = time.perf_counter
    out = []
    for item in state["batch"]:
        buf, err = io.StringIO(), io.StringIO()
        start = clock()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = main(item["argv"])
        except Exception:  # an operation that raises is a failed operation
            code, buf = -1, io.StringIO(traceback.format_exc())
        out.append((item["file"], code, buf.getvalue(), (start, clock())))
    return out


def _check_analyze(state, out):
    attempted, failed, details = checks.check_analyze(
        [(f, code, text) for f, code, text, _ in out], state["stored"])
    facts = {"request_stamps": [stamps for *_, stamps in out],
             "report_bytes": sum(len(text.encode()) for _, _, text, _ in out),
             "verdicts_stored_for_seed": state["stored"] is not None}
    return attempted, failed, details, facts


WORKLOADS = {
    "sweep": Workload("sweep", False, _setup_sweep, _run_sweep, _check_sweep, 1082),
    "census": Workload("census", False, _setup_census, _run_census, _check_census, 5375),
    "census_cached_jobs2": Workload(
        "census_cached_jobs2", False,
        lambda seed, workdir: _setup_census(seed, workdir, cached=True),
        _run_census, _check_census, 5375, probe_inside=False),
    "analyze": Workload("analyze", True, _setup_analyze, _run_analyze, _check_analyze, 128),
}


def input_properties(name: str, state) -> dict:
    """Properties of the inputs known before the run (the traced run adds the verdict side)."""
    if name != "analyze":
        return {}
    batch = state["batch"]
    count = {}
    for item in batch:
        count[item["family"]] = count.get(item["family"], 0) + 1
    n = len(batch)
    return {
        "inputs": n,
        "family_counts": count,
        "graph6_share": sum(item["file"].endswith(".g6") for item in batch) / n,
        "s_vertices_share": sum("--s-vertices" in item["argv"] for item in batch) / n,
        "complete_scaffold_share": sum(item["complete"] for item in batch) / n,
        "max_order": max(item["order"] for item in batch),
    }
