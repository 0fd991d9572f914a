"""The correctness checks reject outputs that differ from the stored references."""

import copy
import json

import pytest

from perfbench import checks


@pytest.fixture(scope="module")
def census_rows():
    return checks.read_detail_csv(f"{checks.EXPECTED_DIR}/classify_t4_s7.csv")


def test_census_reference_passes(census_rows):
    attempted, failed, details = checks.check_census_detail(copy.deepcopy(census_rows), census_rows)
    assert (attempted, failed, details) == (5375, 0, [])


def test_census_one_flipped_verdict_is_rejected(census_rows):
    rows = copy.deepcopy(census_rows)
    rows[100]["s_roth"] = "0" if rows[100]["s_roth"] == "1" else "1"
    attempted, failed, details = checks.check_census_detail(rows, census_rows)
    assert failed == 1 and "s_roth" in details[0]


def test_census_mu_tolerance(census_rows):
    rows = copy.deepcopy(census_rows)
    rows[7]["mu"] = repr(float(rows[7]["mu"]) + checks.MU_ABS_TOL / 10)
    rows[8]["mu"] = repr(float(rows[8]["mu"]) + checks.MU_ABS_TOL * 10)
    _, failed, details = checks.check_census_detail(rows, census_rows)
    assert failed == 1 and details[0].startswith("row 8")


def test_census_missing_row_is_rejected(census_rows):
    _, failed, _ = checks.check_census_detail(copy.deepcopy(census_rows[:-1]), census_rows)
    assert failed == 1


def _sweep_reports():
    expected = checks.load_expected("sweep.json")
    reports = []
    for kind in ("maxdeg", "tree"):
        cx = [{"s": s, "t": t, "g_graph6": g6, "reason": reason}
              for s, t, g6, reason in expected[kind]["counterexamples"]]
        reports.append({"kind": kind, "checked": expected[kind]["checked"], "counterexamples": cx})
    return expected, reports


def test_sweep_reference_passes():
    expected, reports = _sweep_reports()
    assert checks.check_sweep(reports, expected) == (1082, 0, [])


def test_sweep_dropped_counterexample_is_rejected():
    expected, reports = _sweep_reports()
    dropped = reports[1]["counterexamples"].pop()
    attempted, failed, details = checks.check_sweep(reports, expected)
    assert failed == 1 and "missing" in details[0] and dropped["g_graph6"] in details[0]


def _report(**changes):
    rep = {"s_roth": True, "reason": "SignedEigenvector", "multiplicity": 1, "mu": 2.0,
           "certificates": {"harmcond": False, "gc": False, "bdeg": False, "st": False,
                            "gdeg": "none", "boundary": {"applicable": False, "s_roth": None}},
           "bounds": {"lower_degrees": 1.0, "upper_cut": 3.0}}
    rep.update(changes)
    return json.dumps(rep)


def test_analyze_report_checks():
    assert checks.report_problems(0, _report(), [0, True, "SignedEigenvector", 1]) == []
    assert checks.report_problems(3, _report(), None)  # exit code disagrees with s_roth
    assert checks.report_problems(1, "", None) == ["exit code 1"]
    lying = _report(s_roth=False, reason="MixedSigns", certificates={
        "harmcond": True, "gc": False, "bdeg": False, "st": False, "gdeg": "A",
        "boundary": {"applicable": True, "s_roth": True}})
    assert len(checks.report_problems(3, lying, None)) == 3
    assert checks.report_problems(0, _report(mu=3.5), None)  # above the cut bound
    assert checks.report_problems(0, _report(), [0, True, "SignedEigenvector", 2])
