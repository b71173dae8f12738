import hashlib
import json
import math
import re

import pytest

from gaugequad import (
    CaseKind,
    Expected,
    IntegralStatus,
    InterchangeVerdict,
    Provenance,
    UnknownCase,
    get_case,
    list_cases,
    run_case,
)

EXPECTED_NAMES = {
    "polynomial-smoke",
    "pathological-derivative",
    "dirichlet-gauge",
    "inv-sqrt",
    "sinc-improper",
    "cauchy-convergent-sin-s0",
    "cauchy-convergent-sin-s1",
    "cauchy-convergent-sin-s2",
    "cauchy-convergent-cos-s0",
    "cauchy-convergent-cos-s1",
    "cauchy-convergent-cos-s2",
    "cauchy-divergent-sin",
    "cauchy-divergent-cos",
    "ftc-square",
    "ftc-sine",
    "ftc-abs",
    "ftc-pathological",
    "dui-smooth",
    "fubini-counterexample",
    "series-exponential",
    "series-telescoping-failure",
}


def test_registry_contents():
    names = [c.name for c in list_cases()]
    assert len(names) == len(set(names))
    assert set(names) == EXPECTED_NAMES


def test_registry_order_is_stable():
    assert [c.name for c in list_cases()] == [c.name for c in list_cases()]


def test_every_case_is_json_describable():
    for case in list_cases():
        d = case.to_json_dict()
        json.dumps(d)  # must not choke on infinities or numpy scalars
        assert d["name"] == case.name
        assert d["provenance"] in {p.value for p in Provenance}
        assert d["kind"] in {k.value for k in CaseKind}
        assert d["note"]


def test_expected_exactly_one_of():
    with pytest.raises(ValueError):
        Expected()
    with pytest.raises(ValueError):
        Expected(value=1.0)  # tol missing
    with pytest.raises(ValueError):
        Expected(value=1.0, tol=1e-3, status=IntegralStatus.CONVERGED)
    with pytest.raises(ValueError):
        Expected(status=IntegralStatus.CONVERGED, verdict=InterchangeVerdict.FAILS)
    with pytest.raises(ValueError):
        Expected(value=1.0, tol=0.0)
    Expected(status=IntegralStatus.DIVERGED)
    Expected(verdict=InterchangeVerdict.HOLDS_ON_SAMPLES)


def test_unknown_case_raises():
    with pytest.raises(UnknownCase):
        get_case("no-such-case")
    with pytest.raises(UnknownCase):
        run_case("no-such-case")


def test_run_case_passes_and_reports():
    rep = run_case("polynomial-smoke")
    assert rep.passed
    assert rep.case.name == "polynomial-smoke"
    assert rep.runtime_seconds >= 0.0
    assert rep.actual["status"] == "CONVERGED"
    assert abs(float(rep.actual["value"])) <= 1e-9
    line = rep.summary_line()
    assert line.startswith("PASS polynomial-smoke")


def test_run_case_json_is_deterministic():
    a = json.dumps(run_case("polynomial-smoke").to_json_dict(), sort_keys=True)
    b = json.dumps(run_case("polynomial-smoke").to_json_dict(), sort_keys=True)
    assert a == b
    assert "runtime" not in a and "trace" not in a


def test_run_case_overrides_engine_but_not_expectation():
    # A looser engine tolerance changes what the integrator computes;
    # the frozen 1e-9 expectation still judges it, and honestly fails.
    rep = run_case("polynomial-smoke", tol=1e-4)
    assert not rep.passed
    assert abs(float(rep.actual["value"])) <= 1e-4
    assert rep.case.base_cfg.tol == 1e-9  # registry untouched


def test_failure_mode_case_reports_fails_verdict():
    rep = run_case("series-telescoping-failure")
    assert rep.passed  # the case EXPECTS the FAILS verdict
    assert rep.actual["overall"] == "FAILS"


def test_case_inputs_match_documented_intervals():
    case = get_case("inv-sqrt")
    assert case.kind is CaseKind.IMPROPER
    assert case.inputs["interval"] == [0.0, 1.0]
    sinc = get_case("sinc-improper")
    assert sinc.inputs["interval"][1] == "inf"
    assert math.isinf(float("inf"))


def test_case_list_json_is_pinned():
    # Key order included: the list is what `corpus list --json` prints.
    text = json.dumps([c.to_json_dict() for c in list_cases()])
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "8371d5f9134b599880c85737c0998a2bf88161760558c0e82acfc2daf1842f2f"


def test_case_inputs_state_the_config_they_run():
    for case in list_cases():
        assert case.inputs["tol"] == case.base_cfg.tol, case.name
        assert case.inputs.get("singular", []) == list(case.base_cfg.singular_points), case.name


def test_dui_smooth_checks_the_window_identity_for_f_itself():
    notes = run_case("dui-smooth").actual["notes"]
    m = re.search(
        r"window identity for f itself: max \|int f1 dx - \(f\(t,y\)-f\(s,y\)\)\| = "
        r"(\S+) over 7 sampled y",
        notes,
    )
    assert m, notes
    assert float(m.group(1)) <= 1e-12
