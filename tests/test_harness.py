import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qdirac import cli
from qdirac import harness as hz
from qdirac import spinor_maps as sm
from qdirac.dirac import FieldData, plane_wave_modes, spinor_to_pair, momentum_symbol
from qdirac.harness import (
    Grid4,
    GridTooSmall,
    SuiteConfig,
    UnknownSuite,
    emit_report,
    fd_apply_D,
    list_suites,
    run_suite,
    sample_quat_mode,
)
from qdirac.quaternion import I1, Quat


def test_fd_constant_field_is_zero():
    values = np.ones((5, 5, 5, 5, 1)) * np.array([1.0, 2.0, 0.5, -1.0])
    grid = Grid4(0.1, values)
    out = fd_apply_D(grid)
    assert np.max(np.abs(out.values)) == 0.0


def test_fd_linear_scalar_field():
    # scalar field growing linearly along axis 1 maps to i1 times the slope
    shape = (5, 6, 5, 5)
    slope = 0.7
    x1 = (np.arange(shape[1]) - (shape[1] - 1) / 2) * 0.1
    values = np.zeros(shape + (4,), dtype=complex)
    values[..., 0] = slope * x1[None, :, None, None]
    out = fd_apply_D(Grid4(0.1, values))
    expected = np.array((I1 * slope).components)
    assert np.max(np.abs(out.values - expected)) < 1e-13
    # the conjugated derivative flips the sign of the spatial part
    out = fd_apply_D(Grid4(0.1, values), conjugate=True)
    assert np.max(np.abs(out.values + expected)) < 1e-13


def test_fd_matches_momentum_symbol_second_order():
    fd = FieldData(0.8)
    mode = plane_wave_modes(np.array([0.4, -0.7, 0.2]), fd)[3]
    pair = spinor_to_pair(mode.amplitude)
    sym, _ = momentum_symbol(mode)

    def interior_error(shape, spacing):
        grid = sample_quat_mode(pair.phi1, mode.energy, mode.momentum, shape, spacing)
        applied = fd_apply_D(grid)
        exact = sample_quat_mode(
            sym * pair.phi1, mode.energy, mode.momentum, shape, spacing
        )
        inner = tuple([slice(1, -1)] * 4 + [slice(None)])
        return np.max(np.abs(applied.values - exact.values[inner]))

    h = 0.05
    coarse = interior_error((9, 9, 9, 9), h)
    fine = interior_error((17, 17, 17, 17), h / 2)
    assert 3.2 <= coarse / fine <= 4.8


def test_fd_grid_guards():
    with pytest.raises(GridTooSmall):
        fd_apply_D(Grid4(0.1, np.zeros((3, 5, 5, 5, 4))))
    with pytest.raises(ValueError):
        Grid4(0.0, np.zeros((5, 5, 5, 5, 4)))
    with pytest.raises(ValueError):
        Grid4(0.1, np.zeros((5, 5, 5, 4)))


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite(SuiteConfig(suite="nonsense", trials=1))


def test_suite_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(suite="algebra", trials=0)
    with pytest.raises(ValueError):
        SuiteConfig(suite="algebra", tol=-1.0)
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError):
            SuiteConfig(suite="algebra", tol=tol)
    with pytest.raises(ValueError):
        SuiteConfig(suite="invariance", n_set=())
    for grid_h in (0.0, -0.05, math.inf):
        with pytest.raises(ValueError):
            SuiteConfig(suite="conservation", grid_h=grid_h)


def test_list_suites():
    names = list_suites()
    for expected in (
        "algebra",
        "maps",
        "blocks",
        "table1",
        "equivalence",
        "invariance",
        "symmetries",
        "current",
        "conservation",
        "radiation",
        "all",
    ):
        assert expected in names


def _strip_elapsed(payload: str) -> dict:
    obj = json.loads(payload)
    obj.pop("elapsed")
    for case in obj["cases"]:
        case.pop("elapsed")
    return obj


def test_report_determinism():
    cfg = SuiteConfig(suite="algebra", seed=11, trials=25, fmt="json")
    first = emit_report(run_suite(cfg), "json")
    second = emit_report(run_suite(cfg), "json")
    assert json.dumps(_strip_elapsed(first)) == json.dumps(_strip_elapsed(second))


def test_report_json_schema():
    cfg = SuiteConfig(suite="maps", seed=2, trials=10)
    report = run_suite(cfg)
    payload = json.loads(emit_report(report, "json"))
    assert payload["suite"] == "maps"
    assert payload["seed"] == 2
    assert payload["pass"] is True
    assert isinstance(payload["elapsed"], float)
    assert payload["config"]["trials"] == 10
    for case, registered in zip(payload["cases"], hz.SUITES["maps"]):
        assert set(case) == {"name", "max_residual", "pass", "tol", "kind", "elapsed"}
        float(case["max_residual"])  # scientific-notation decimal string
        assert case["tol"] == registered.tol and case["kind"] == registered.kind
        assert isinstance(case["elapsed"], float) and case["elapsed"] >= 0.0
    assert len(payload["cases"]) == len(hz.SUITES["maps"])
    text = emit_report(report, "text")
    assert "result: PASS" in text
    with pytest.raises(ValueError):
        emit_report(report, "yaml")


def test_report_with_no_cases_passes():
    from qdirac.harness import VerificationReport

    report = VerificationReport(
        suite="algebra", seed=0, config={"trials": 0}, cases=(), passed=True,
        elapsed=0.0,
    )
    payload = json.loads(emit_report(report, "json"))
    assert payload["pass"] is True
    assert payload["cases"] == []


def test_case_draws_do_not_depend_on_the_run():
    # keyed by (seed, suite, case name), a case reads the same under "all" as
    # under its own suite; keyed by position, dalembertian_fd read 3.518e-03
    # alone and 2.279e-03 under "all" at this seed and trial count
    for trials, suites in ((200, ["radiation"]), (3, list(hz.SUITES))):
        everything = run_suite(SuiteConfig(suite="all", seed=0, trials=trials))
        in_all = {c.name: c.max_residual for c in everything.cases}
        for suite in suites:
            for case in run_suite(SuiteConfig(suite=suite, seed=0, trials=trials)).cases:
                assert in_all["%s/%s" % (suite, case.name)] == case.max_residual, case


def test_unreachable_tolerance_fails():
    cfg = SuiteConfig(suite="algebra", seed=1, trials=5, tol=1e-30)
    report = run_suite(cfg)
    assert not report.passed
    assert any(not case.passed for case in report.cases)


def test_empty_suites_never_happen():
    for name in list_suites():
        if name == "all":
            continue
        report = run_suite(SuiteConfig(suite=name, seed=0, trials=3))
        assert len(report.cases) > 0
        assert report.passed, name


def _case(report, name):
    return {case.name: case for case in report.cases}[name]


def test_nan_residual_fails(monkeypatch):
    # max(0.0, nan) is 0.0: a running max started at 0.0 would pass these
    monkeypatch.setattr(sm, "map_F", lambda q: np.full(2, np.nan, dtype=complex))
    report = run_suite(SuiteConfig(suite="maps", seed=0, trials=5))
    for name in ("fg_identity", "contraction_vector"):
        case = _case(report, name)
        assert math.isnan(case.max_residual) and not case.passed
    assert not report.passed
    cases = json.loads(emit_report(report, "json"))["cases"]
    assert {c["name"]: c["max_residual"] for c in cases}["fg_identity"] == "nan"


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_overflowing_product_fails(monkeypatch, capsys):
    # products are not checked for finiteness: inf - inf reaches the residual
    # as NaN and fails the case
    big = Quat(1e200, 1e200, 1e200, 1e200)
    monkeypatch.setattr(hz, "rand_complex_quat", lambda rng: big)
    code = cli.main(["verify", "algebra", "--trials", "3", "--format", "json"])
    assert code == 1
    cases = {c["name"]: c for c in json.loads(capsys.readouterr().out)["cases"]}
    assert cases["associativity"]["max_residual"] == "nan"
    assert cases["associativity"]["pass"] is False


def test_guard_tolerance_does_not_scale(monkeypatch):
    # with inversion never raising, the guard yields 1.0; at --tol 3e-10 a
    # scaled guard tolerance would be 1.5 and let it pass
    monkeypatch.setattr(Quat, "inverse", lambda self: self.quat_conj())
    report = run_suite(SuiteConfig(suite="algebra", seed=0, trials=3, tol=3e-10))
    guard = _case(report, "null_inversion_guard")
    assert (guard.max_residual, guard.tol, guard.passed) == (1.0, 0.5, False)
    assert cli.main(["verify", "algebra", "--trials", "3", "--tol", "3e-10"]) == 1


def test_order_tolerance_does_not_scale():
    report = run_suite(SuiteConfig(suite="conservation", seed=0, trials=3, tol=1e-12))
    for name in ("fd_divergence_convergence", "fd_symbol_convergence"):
        case = _case(report, name)
        assert case.tol == 0.8 and case.passed, case
    # residual tolerances do scale
    assert _case(report, "two_mode_divergence").tol == pytest.approx(1e-12)


def test_case_without_residuals_fails(monkeypatch, capsys):
    # every momentum below the cut: massless_mode skips all of its draws
    monkeypatch.setattr(hz, "rand_momentum", lambda rng: np.zeros(3))
    report = run_suite(SuiteConfig(suite="equivalence", seed=0, trials=3))
    case = _case(report, "massless_mode")
    assert math.isnan(case.max_residual) and not case.passed
    assert "massless_mode yielded no residuals" in capsys.readouterr().err


@pytest.mark.parametrize("exc_type", [ValueError, RuntimeError])
def test_exception_in_case_is_a_fail_line(monkeypatch, capsys, exc_type):
    def broken(v):
        raise exc_type("injected lift failure")

    monkeypatch.setattr(sm, "lift_G", broken)
    code = cli.main(["verify", "maps", "--trials", "3", "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 1
    payload = json.loads(out)
    cases = {c["name"]: c for c in payload["cases"]}
    assert isinstance(cases["fg_identity"].pop("elapsed"), float)
    assert cases["fg_identity"] == {
        "name": "fg_identity", "max_residual": "inf", "pass": False,
        "tol": 1e-12, "kind": "residual",
    }
    # the remaining cases still ran
    assert cases["nl_identity"]["pass"] is True
    assert len(cases) == len(hz.SUITES["maps"])
    assert "fg_identity raised %s: injected lift failure" % exc_type.__name__ in err


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qdirac.cli", *args],
        capture_output=True,
        text=True,
    )


def test_cli_verify_pass():
    result = _run_cli("verify", "algebra", "--trials", "10", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["pass"] is True


def test_cli_failure_exit_code():
    result = _run_cli("verify", "algebra", "--trials", "5", "--tol", "1e-30")
    assert result.returncode == 1


def test_cli_nonfinite_tol_exit_code():
    result = _run_cli("verify", "conservation", "--trials", "1", "--tol", "inf")
    assert result.returncode == 2
    assert "tol must be positive and finite" in result.stderr


@pytest.mark.parametrize("suite", ["invariance", "current"])
def test_cli_empty_n_set_exit_code(suite):
    result = _run_cli("verify", suite, "--trials", "4", "--n", ",")
    assert result.returncode == 2
    assert "n_set must hold at least one exponent" in result.stderr


def test_cli_unknown_suite_exit_code():
    result = _run_cli("verify", "nonsense", "--trials", "5")
    assert result.returncode == 2
    assert "unknown suite" in result.stderr


def test_cli_list_suites():
    result = _run_cli("list-suites")
    assert result.returncode == 0
    assert "algebra" in result.stdout and "all" in result.stdout


def test_cli_n_set_parsing():
    result = _run_cli(
        "verify", "invariance", "--trials", "8", "--n", "0,1", "--format", "json"
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["config"]["n_set"] == [0, 1]


def test_cli_n_set_accepts_leading_negative():
    result = _run_cli(
        "verify", "invariance", "--trials", "8", "--n", "-1,0,1,2", "--format", "json"
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["config"]["n_set"] == [-1, 0, 1, 2]
