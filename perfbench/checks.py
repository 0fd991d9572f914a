"""Correctness checks of each workload's outputs against stored references.

The references in ``expected/`` were produced by the program itself at the
commit that defined this benchmark (see ``make_expected.py``), not copied from
the README.  Every check returns ``(attempted, failed, details)``, and the
census check adds a dict of recorded facts.  An operation is one instance
verdict (sweep, census) or one report (analyze); it fails if it raised or if
a check rejects it.
"""

from __future__ import annotations

import csv
import json
import os

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")

# census detail columns compared exactly, row for row; mu is compared within MU_ABS_TOL
VERDICT_COLUMNS = ("graph6", "multiplicity", "s_roth", "harmcond", "m_matrix", "inv_positive")
MU_ABS_TOL = 1e-9
# mu may sit exactly on a bound (the cut vector can be the eigenvector)
BOUND_REL_TOL = 1e-9
MAX_DETAILS = 20


def load_expected(name: str):
    with open(os.path.join(EXPECTED_DIR, name)) as fh:
        return json.load(fh)


def _cx_key(c) -> tuple:
    return (int(c["s"]), int(c["t"]), c["g_graph6"], c["reason"])


def check_sweep(reports: list, expected: dict) -> tuple:
    """reports: conjecture_sweep results in order (maxdeg, tree)."""
    attempted = failed = 0
    details = []
    for rep in reports:
        exp = expected[rep["kind"]]
        attempted += exp["checked"]
        if rep["checked"] != exp["checked"]:
            failed += abs(rep["checked"] - exp["checked"])
            details.append(f"{rep['kind']}: checked {rep['checked']} != {exp['checked']}")
        got = {_cx_key(c) for c in rep["counterexamples"]}
        want = {tuple(c) for c in exp["counterexamples"]}
        for key in sorted(got ^ want):
            failed += 1
            side = "unexpected" if key in got else "missing"
            details.append(f"{rep['kind']}: {side} counterexample {key}")
    return attempted, failed, details[:MAX_DETAILS]


def read_detail_csv(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_census_detail(got_rows: list, want_rows: list) -> tuple:
    """Row-for-row comparison of census detail rows; (attempted, failed, details)."""
    failed = abs(len(got_rows) - len(want_rows))
    details = [f"row count {len(got_rows)} != {len(want_rows)}"] if failed else []
    for i, (got, want) in enumerate(zip(got_rows, want_rows)):
        bad = [c for c in VERDICT_COLUMNS if got.get(c) != want[c]]
        try:
            if abs(float(got["mu"]) - float(want["mu"])) > MU_ABS_TOL:
                bad.append("mu")
        except (KeyError, TypeError, ValueError):
            bad.append("mu")
        if bad:
            failed += 1
            details.append(f"row {i} ({want['graph6']}): {','.join(bad)} differ")
    return len(want_rows), failed, details[:MAX_DETAILS]


def check_census(out_dir: str, row, expected: dict, t: int, s: int) -> tuple:
    """Detail CSV row for row, plus the summary from the return value and the summary CSV."""
    detail_path = os.path.join(out_dir, f"classify_t{t}_s{s}.csv")
    want_path = os.path.join(EXPECTED_DIR, f"classify_t{t}_s{s}.csv")
    attempted, failed, details = check_census_detail(read_detail_csv(detail_path),
                                                     read_detail_csv(want_path))
    want_summary = expected["summary"]
    got_summary = [row.total, row.n_s_roth, row.n_harmcond, row.n_m_matrix, row.n_inv_positive]
    with open(os.path.join(out_dir, f"census_t{t}_s{s}.csv"), newline="") as fh:
        summary_rows = list(csv.reader(fh))
    csv_summary = [int(v) for v in summary_rows[1][1:]] if len(summary_rows) == 2 else None
    for label, got in (("returned", got_summary), ("census csv", csv_summary)):
        if got != want_summary:
            failed = max(failed, 1)
            details.append(f"{label} summary {got} != {want_summary}")
    with open(detail_path, "rb") as a, open(want_path, "rb") as b:
        identical = a.read() == b.read()
    return attempted, failed, details[:MAX_DETAILS], {"detail_csv_byte_identical": identical}


def report_problems(code: int, text: str, want) -> list:
    """Problems with one analyze report: exit code, certificates, bounds, stored verdict.

    want is the stored [exit code, s_roth, reason, multiplicity] or None.
    """
    if code not in (0, 3):
        return [f"exit code {code}"]
    try:
        rep = json.loads(text)
    except ValueError:
        return ["report is not JSON"]
    try:
        return _report_problems(code, rep, want)
    except (KeyError, TypeError) as exc:
        return [f"report lacks field {exc}"]


def _report_problems(code: int, rep: dict, want) -> list:
    problems = []
    roth = rep["s_roth"]
    if (code == 0) != roth:
        problems.append(f"exit code {code} but s_roth={roth}")
    cert = rep["certificates"]
    for key in ("harmcond", "gc", "bdeg", "st"):
        if cert[key] and not roth:
            problems.append(f"certificate {key} holds but s_roth is false")
    if cert["gdeg"] in ("A", "B") and not roth:
        problems.append(f"gdeg {cert['gdeg']} holds but s_roth is false")
    bc = cert["boundary"]
    if bc["applicable"] and bc["s_roth"] != roth:
        problems.append(f"boundary says {bc['s_roth']}, oracle says {roth}")
    mu = rep["mu"]
    lo, hi = rep["bounds"]["lower_degrees"], rep["bounds"]["upper_cut"]
    slack = BOUND_REL_TOL * (1.0 + abs(mu))
    if not (lo - slack <= mu <= hi + slack):
        problems.append(f"mu {mu} outside [{lo}, {hi}]")
    got = [code, roth, rep["reason"], rep["multiplicity"]]
    if want is not None and got != list(want):
        problems.append(f"verdict {got} != stored {list(want)}")
    return problems


def check_analyze(results: list, stored) -> tuple:
    """results: [(file, exit code, stdout text)]; stored: {file: verdict} or None."""
    failed = 0
    details = []
    for file, code, text in results:
        problems = report_problems(code, text, None if stored is None else stored.get(file))
        if stored is not None and file not in stored:
            problems.append("no stored verdict for this input")
        if problems:
            failed += 1
            details.append(f"{file}: {'; '.join(problems)}")
    return len(results), failed, details[:MAX_DETAILS]
