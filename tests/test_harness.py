import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qdirac import cli
from qdirac import current as cur
from qdirac import harness as hz
from qdirac import spinor_maps as sm
from qdirac.harness import (
    Grid4,
    GridTooSmall,
    SuiteConfig,
    UnknownSuite,
    emit_report,
    fd_apply_D,
    list_suites,
    run_suite,
)
from qdirac.quaternion import I1, Quat, _of


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


def test_fd_grid_guards():
    with pytest.raises(GridTooSmall):
        fd_apply_D(Grid4(0.1, np.zeros((3, 5, 5, 5, 4))))
    for spacing in (0.0, -0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="spacing must be positive and finite"):
            Grid4(spacing, np.zeros((5, 5, 5, 5, 4)))
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
    with pytest.raises(ValueError, match="seed must be non-negative"):
        SuiteConfig(suite="algebra", seed=-1)
    # a fractional seed would draw the instances of its integer part
    with pytest.raises(ValueError, match="seed must be an integer"):
        SuiteConfig(suite="algebra", seed=1.5)
    assert type(SuiteConfig(suite="algebra", seed=np.int64(3)).seed) is int
    # the grid spacing of the convergence cases is fixed, not configured
    with pytest.raises(TypeError):
        SuiteConfig(suite="conservation", grid_h=0.05)


def test_exponent_cases_draw_exactly_trials_instances():
    exponent_cases = (("invariance", "n_invariance"), ("conservation", "transformed_divergence"))
    for trials, blocks in ((1, (1, 0, 0, 0)), (3, (1, 1, 1, 0)), (10, (3, 3, 2, 2))):
        cfg = SuiteConfig(suite="all", trials=trials)
        expected = [n for n, size in zip(cfg.n_set, blocks) for _ in range(size)]
        assert hz._n_draws(cfg) == expected
        for suite, name in exponent_cases:
            case = next(c for c in hz.SUITES[suite] if c.name == name)
            assert len(list(case.fn(hz.case_rng(0, suite, name), cfg))) == trials
    # at multiples of the exponent count the draws are the equal blocks
    for trials in (4, 100, 800):
        cfg = SuiteConfig(suite="all", trials=trials)
        assert hz._n_draws(cfg) == [n for n in cfg.n_set for _ in range(trials // 4)]


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
    cfg = SuiteConfig(suite="algebra", seed=11, trials=25)
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
    assert set(payload["config"]) == {"trials", "tol", "n_set"}
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


def test_guards_fail_on_nan(monkeypatch):
    # each guard compares the quantity it guards so that a NaN flags 1.0, not
    # "nonsingular", "moved off the temporal axis" or "non-negative density"
    nan = complex(math.nan)
    monkeypatch.setattr(
        hz, "_smallest_singular_values", lambda systems: np.full(len(systems), np.nan)
    )
    monkeypatch.setattr(Quat, "spatial", property(lambda self: _of(nan, nan, nan, nan)))
    monkeypatch.setattr(cur, "spinor_current", lambda psi: np.full(4, np.nan))
    for suite, name in (
        ("equivalence", "off_eigenvalue_nonsingular"),
        ("invariance", "mass_four_vector"),
        ("current", "current_density_positive"),
    ):
        case = _case(run_suite(SuiteConfig(suite=suite, seed=0, trials=3)), name)
        assert (case.max_residual, case.passed) == (1.0, False), case


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
    def empty(rng, cfg):
        yield from ()

    cases = [
        dataclasses.replace(c, fn=empty) if c.name == "massless_mode" else c
        for c in hz.SUITES["equivalence"]
    ]
    monkeypatch.setitem(hz.SUITES, "equivalence", cases)
    report = run_suite(SuiteConfig(suite="equivalence", seed=0, trials=3))
    case = _case(report, "massless_mode")
    assert math.isnan(case.max_residual) and not case.passed
    assert "massless_mode yielded no residuals" in capsys.readouterr().err


def test_massless_mode_redraws_slow_momenta():
    # the first momentum these seeds draw has |p| < 0.1: it must be redrawn,
    # not skipped, or the one-trial case yields no residual
    for seed in (5330, 8731):
        report = run_suite(SuiteConfig(suite="equivalence", seed=seed, trials=1))
        case = _case(report, "massless_mode")
        assert case.passed and case.max_residual <= 1e-12, (seed, case)


def test_nonfinite_residual_fails_at_any_tolerance(monkeypatch):
    # tol 1e300 scales 1e-12 to inf, and inf <= inf
    def broken(v):
        raise ValueError("injected lift failure")

    monkeypatch.setattr(sm, "lift_G", broken)
    report = run_suite(SuiteConfig(suite="maps", seed=0, trials=3, tol=1e300))
    case = _case(report, "fg_identity")
    assert (case.max_residual, case.tol, case.passed) == (math.inf, math.inf, False)
    assert not report.passed


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


def test_cli_has_no_grid_spacing_option(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["verify", "conservation", "--trials", "1", "--grid-h", "0.05"])
    assert exit_info.value.code == 2
    assert "--grid-h" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["invariance", "current"])
def test_cli_empty_n_set_exit_code(suite):
    result = _run_cli("verify", suite, "--trials", "4", "--n", ",")
    assert result.returncode == 2
    assert "n_set must hold at least one exponent" in result.stderr


def test_seeds_do_not_alias(capsys):
    # every non-negative seed draws its own instances, also past 2**64
    def residuals(seed):
        report = run_suite(SuiteConfig(suite="algebra", seed=seed, trials=5))
        return [c.max_residual for c in report.cases]

    assert residuals(2**64) != residuals(0)
    assert cli.main(["verify", "algebra", "--seed", "-1", "--trials", "3"]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err


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
