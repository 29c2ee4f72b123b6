import dataclasses
import functools
import inspect
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from qdirac import blocks as bl
from qdirac import cli
from qdirac import current as cur
from qdirac import dirac as dr
from qdirac import harness as hz
from qdirac import quaternion as qt
from qdirac import spinor_maps as sm
from qdirac import transforms as tr
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


def _fd_apply_D_point_major(grid, conjugate=False):
    """Reference: ``fd_apply_D`` on the point-major layout, where each
    difference takes all four components and each output component is
    updated through a strided slice."""

    def central_diff(values, axis, out=None):
        hi = [slice(1, -1)] * 4 + [slice(None)]
        lo = [slice(1, -1)] * 4 + [slice(None)]
        hi[axis] = slice(2, None)
        lo[axis] = slice(None, -2)
        out = np.subtract(values[tuple(hi)], values[tuple(lo)], out=out)
        out /= 2.0 * grid.spacing
        return out

    values = grid.values
    out = 1j * central_diff(values, 0)
    diff = np.empty(out.shape, dtype=values.dtype)
    for r in (1, 2, 3):
        central_diff(values, r, out=diff)
        for k, (j, sign) in enumerate(hz._BASIS_LEFT_MUL[r]):
            combine = np.add if (sign > 0) != conjugate else np.subtract
            combine(out[..., k], diff[..., j], out=out[..., k])
    return out


_AMPLITUDE = Quat(0.3 + 0.1j, -1.2, 0.5j, 2.0 - 0.7j)
_ENERGY, _MOMENTUM, _SPACING = 1.7, np.array([0.9, -2.6, 0.4]), 0.05


@pytest.mark.parametrize("conjugate", [False, True])
def test_fd_apply_D_is_bitwise_the_point_major_reference(conjugate):
    rng = np.random.default_rng(11)
    shape = (5, 6, 7, 8, 4)
    c_order = Grid4(0.1, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    sampled = hz.sample_quat_mode(_AMPLITUDE, _ENERGY, _MOMENTUM, (11,) * 4, _SPACING)
    # a time axis longer than the others pins the first and last planes
    long_time = (9, 5, 6, 5, 4)
    t_major = Grid4(0.1, rng.normal(size=long_time) + 1j * rng.normal(size=long_time))
    for grid in (c_order, sampled, t_major):
        expected = _fd_apply_D_point_major(grid, conjugate)
        assert fd_apply_D(grid, conjugate).values.tobytes() == expected.tobytes()
    # the chain of the d'Alembertian case takes a component-major derivative grid
    once = Grid4(_SPACING, _fd_apply_D_point_major(sampled, conjugate=True))
    expected = _fd_apply_D_point_major(once, conjugate)
    chained = fd_apply_D(fd_apply_D(sampled, conjugate=True), conjugate)
    assert chained.values.tobytes() == expected.tobytes()


def test_grids_are_component_major_accurate_and_small():
    shape = (9, 10, 11, 12)
    grid = hz.sample_quat_mode(_AMPLITUDE, _ENERGY, _MOMENTUM, shape, _SPACING)
    for values in (grid.values, fd_apply_D(grid).values):
        assert np.moveaxis(values, -1, 0).flags.c_contiguous
    x = np.meshgrid(*hz.grid_axes(shape, _SPACING), indexing="ij")
    phase = -_ENERGY * x[0] + sum(p * xr for p, xr in zip(_MOMENTUM, x[1:]))
    direct = np.exp(1j * phase)[..., None] * np.array(_AMPLITUDE.components)
    amp = max(abs(c) for c in _AMPLITUDE.components)
    assert np.max(np.abs(grid.values - direct)) <= 1e-14 * amp
    # the output plus one time-plane buffer, and no other grid-size array
    grid = hz.sample_quat_mode(_AMPLITUDE, _ENERGY, _MOMENTUM, (25,) * 4, _SPACING)
    tracemalloc.start()
    try:
        out = fd_apply_D(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * out.values.nbytes


@pytest.mark.parametrize(
    "field, energy, momentum",
    [
        ("energy", math.nan, [0.1, 0.2, 0.3]),
        ("energy", math.inf, [0.1, 0.2, 0.3]),
        ("energy", np.array(math.nan), [0.1, 0.2, 0.3]),
        ("momentum", 1.0, [0.1, -math.inf, 0.3]),
        ("momentum", 1.0, [0.1, 0.2]),
    ],
)
def test_sample_quat_mode_rejects_bad_input(field, energy, momentum):
    with pytest.raises(ValueError, match="^%s must be" % field):
        hz.sample_quat_mode(_AMPLITUDE, energy, momentum, (5,) * 4, _SPACING)


def _current_component_grids(solutions, shape, spacing):
    """Reference: the current grids one component at a time, each cross
    term's plane wave times each component of its ``pair_current``."""
    fields = [np.zeros(shape, dtype=complex) for _ in range(4)]
    for pair_a, mode_a in solutions:
        for pair_b, mode_b in solutions:
            comps = cur.pair_current(pair_a, pair_b)
            de = mode_b.energy - mode_a.energy
            dp = mode_b.momentum - mode_a.momentum
            wave = hz._plane_wave(de, dp, shape, spacing)
            for mu in range(4):
                fields[mu] += comps[mu] * wave
    return fields


def test_current_grid_is_bitwise_the_per_component_loop():
    rng = np.random.default_rng(17)
    fd = hz.rand_field(rng)
    shape = (9,) * 4
    for count in (1, 2, 3):
        solutions = [hz.rand_solution(rng, fd) for _ in range(count)]
        got = hz._current_grid(solutions, shape, _SPACING)
        want = _current_component_grids(solutions, shape, _SPACING)
        assert got.shape == (4, *shape)
        assert got.tobytes() == np.stack(want).tobytes(), count


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
    # n_invariance and transformed_divergence return one residual per draw:
    # test_cases_return_one_row_per_trial holds them to cfg.trials
    for trials, blocks in ((1, (1, 0, 0, 0)), (3, (1, 1, 1, 0)), (10, (3, 3, 2, 2))):
        cfg = SuiteConfig(suite="all", trials=trials)
        expected = [n for n, size in zip(cfg.n_set, blocks) for _ in range(size)]
        assert hz._n_draws(cfg) == expected
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
            report = run_suite(SuiteConfig(suite=suite, seed=0, trials=trials))
            # no suite is empty, and each passes
            assert len(report.cases) > 0 and report.passed, suite
            for case in report.cases:
                assert in_all["%s/%s" % (suite, case.name)] == case.max_residual, case


def test_unreachable_tolerance_fails():
    cfg = SuiteConfig(suite="algebra", seed=1, trials=5, tol=1e-30)
    report = run_suite(cfg)
    assert not report.passed
    assert any(not case.passed for case in report.cases)


def _case(report, name):
    return {case.name: case for case in report.cases}[name]


def test_nan_residual_fails(monkeypatch):
    # max(0.0, nan) is 0.0: a running max started at 0.0 would pass these
    monkeypatch.setattr(
        sm, "map_F", lambda q: np.full(np.shape(q.temporal) + (2,), np.nan, dtype=complex)
    )
    report = run_suite(SuiteConfig(suite="maps", seed=0, trials=5))
    for name in ("fg_identity", "contraction_vector"):
        case = _case(report, name)
        assert math.isnan(case.max_residual) and not case.passed
    assert not report.passed
    cases = json.loads(emit_report(report, "json"))["cases"]
    assert {c["name"]: c["max_residual"] for c in cases}["fg_identity"] == "nan"


def test_overflowing_product_fails(monkeypatch, capsys):
    # products are not checked for finiteness: inf - inf reaches the residual
    # as NaN and fails the case
    big = np.full(4, 1e200 + 0j)
    monkeypatch.setattr(hz, "rand_complex_vec", lambda rng, *shape: np.resize(big, shape))
    code = cli.main(["verify", "algebra", "--trials", "3", "--format", "json"])
    assert code == 1
    cases = {c["name"]: c for c in json.loads(capsys.readouterr().out)["cases"]}
    assert cases["associativity"]["max_residual"] == "nan"
    assert cases["associativity"]["pass"] is False


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_stack_fails_quietly(monkeypatch, capsys):
    # a stacked case overflows as quietly as a scalar one: no NumPy warning,
    # and the inf or NaN residual fails the case instead of raising
    big = Quat(1e200j, 1e200, 1e200, 1e200)
    monkeypatch.setattr(hz, "rand_euclidean_quat", lambda rng: big)
    code = cli.main(["verify", "invariance", "--trials", "3", "--format", "json"])
    assert code == 1
    captured = capsys.readouterr()
    assert "raised" not in captured.err
    cases = {c["name"]: c for c in json.loads(captured.out)["cases"]}
    assert cases["interval_preservation"]["pass"] is False


def test_guards_fail_on_nan(monkeypatch):
    # each guard compares the quantity it guards so that a NaN flags 1.0, not
    # "nonsingular", "moved off the temporal axis" or "non-negative density"
    nan = complex(math.nan)
    monkeypatch.setattr(
        hz, "_smallest_singular_values", lambda systems: np.full(len(systems), np.nan)
    )
    monkeypatch.setattr(Quat, "spatial", property(lambda self: _of(nan, nan, nan, nan)))
    monkeypatch.setattr(cur, "spinor_current", lambda psi: np.full(np.shape(psi), np.nan))
    for suite, name in (
        ("equivalence", "off_eigenvalue_nonsingular"),
        ("invariance", "mass_four_vector"),
        ("current", "current_density_positive"),
    ):
        case = _case(run_suite(SuiteConfig(suite=suite, seed=0, trials=3)), name)
        assert (case.max_residual, case.passed) == (1.0, False), case


def test_guard_tolerance_does_not_scale(monkeypatch):
    # with inversion never raising, the guard returns 1.0; at --tol 3e-10 a
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
        return []

    cases = [
        dataclasses.replace(c, fn=empty) if c.name == "massless_mode" else c
        for c in hz.SUITES["equivalence"]
    ]
    monkeypatch.setitem(hz.SUITES, "equivalence", cases)
    report = run_suite(SuiteConfig(suite="equivalence", seed=0, trials=3))
    case = _case(report, "massless_mode")
    assert math.isnan(case.max_residual) and not case.passed
    assert "massless_mode returned no residuals" in capsys.readouterr().err


def test_massless_mode_redraws_slow_momenta():
    # the first momentum these seeds draw has |p| < 0.1: it must be redrawn,
    # not skipped, or the one-trial case returns no residual
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


# ---------------------------------------------------------------------------
# The cases that draw trials draw all of them and then make one stacked
# library call per check.  These are the loops they replaced, one library call
# per trial.  Both read the generator in the same order, so they must yield the
# same residuals up to rounding.  The loops draw through these copies of the
# per-trial draws that the stacked cases replaced.

def _loop_complex_vec(rng, size: int) -> np.ndarray:
    return rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)


def _loop_complex_quat(rng):
    return Quat(*_loop_complex_vec(rng, 4))


def _loop_real_quat(rng):
    return Quat(*rng.uniform(-1.0, 1.0, 4))


def _loop_invertible_quat(rng):
    while True:
        q = _loop_complex_quat(rng)
        if abs(q.modulus()) > 0.1:
            return q


def _loop_block(rng, cls=None, draw=_loop_complex_quat):
    if cls is None:
        cls = bl.Reflector if rng.integers(2) == 0 else bl.Rotator
    return cls(draw(rng), draw(rng))


def _loop_state(rng, with_potential: bool = True) -> dr.DiracState:
    fd = hz.rand_field(rng, with_potential=with_potential)
    _, mode = hz.rand_solution(rng, fd)
    return dr.state_from_mode(mode, fd)


def _loop_boost_unit_time(rng, cfg):
    unit_time = hz.minkowski_to_quat([1.0, 0, 0, 0])
    for _ in range(cfg.trials):
        axis = hz.rand_unit3(rng)
        w = rng.uniform(-2.0, 2.0)
        moved = tr.four_vector_transform(unit_time, tr.rotor_boost(axis, w))
        out = hz.quat_to_minkowski(moved)
        yield hz._max_abs(out - np.concatenate([[math.cosh(w)], math.sinh(w) * axis]))


def _loop_four_vector_vs_matrix(rng, cfg):
    for _ in range(cfg.trials):
        for draw in (hz.rand_rotation, hz.rand_boost):
            rotor = draw(rng)
            q = hz.rand_euclidean_quat(rng)
            got = hz.quat_to_minkowski(tr.four_vector_transform(q, rotor))
            yield hz._max_abs(got - hz._matrix_oracle(rotor) @ hz.quat_to_minkowski(q))


def _loop_interval_preservation(rng, cfg):
    for _ in range(cfg.trials):
        q = hz.rand_euclidean_quat(rng)
        v = hz.quat_to_minkowski(q)
        v2 = hz.quat_to_minkowski(tr.four_vector_transform(q, hz.rand_boost(rng)))
        yield abs((v[0] ** 2 - v[1:] @ v[1:]) - (v2[0] ** 2 - v2[1:] @ v2[1:]))


def _loop_composition(rng, cfg):
    move = tr.four_vector_transform
    for _ in range(cfg.trials):
        q = hz.rand_euclidean_quat(rng)
        r1, r2 = hz.rand_rotation(rng), hz.rand_rotation(rng)
        yield (move(move(q, r1), r2) - move(q, r2 * r1)).max_abs()
        axis = hz.rand_unit3(rng)
        w1, w2 = rng.uniform(-2, 2, 2)
        b1, b2 = tr.rotor_boost(axis, w1), tr.rotor_boost(axis, w2)
        yield (move(move(q, b1), b2) - move(q, tr.rotor_boost(axis, w1 + w2))).max_abs()
        yield (move(move(q, b1), tr.rotor_boost(axis, -w1)) - q).max_abs()
        # rotation then boost: one mixed rotor, neither a rotation nor a boost
        mixed = move(q, b1 * r1)
        yield (move(move(q, r1), b1) - mixed).max_abs()
        oracle = hz._matrix_oracle(b1) @ hz._matrix_oracle(r1) @ hz.quat_to_minkowski(q)
        yield hz._max_abs(hz.quat_to_minkowski(mixed) - oracle)


def _loop_blocks_vs_vector_path(rng, cfg):
    for _ in range(cfg.trials):
        rotor = hz.rand_rotor(rng)
        q = hz.rand_euclidean_quat(rng)
        r, rc = tr.rotor_blocks(rotor)
        moved = r * bl.Reflector(q, q.quat_conj()) * rc
        direct = tr.four_vector_transform(q, rotor)
        yield (moved.upper - direct).max_abs()
        yield (moved.lower - direct.quat_conj()).max_abs()


def _loop_n_invariance(rng, cfg):
    for n in hz._n_draws(cfg):
        state = _loop_state(rng)
        moved = dr.transform_state(state, tr.TransformSpec(hz.rand_rotor(rng), n))
        yield moved.residual().max_abs()


def _loop_mass_four_vector(rng, cfg):
    for _ in range(cfg.trials):
        fd = hz.rand_field(rng)
        state = dr.state_from_mode(dr.plane_wave_modes(np.zeros(3), fd)[3], fd)
        spec = tr.TransformSpec(hz.rand_boost(rng), 1)
        mass_after = dr.transform_state(state, spec).m.upper
        direct = tr.four_vector_transform(Quat(fd.euclidean_mass), spec.rotor)
        yield (mass_after - direct).max_abs()
        oracle = hz._matrix_oracle(spec.rotor) @ np.array([fd.mass, 0.0, 0.0, 0.0])
        yield hz._max_abs(hz.quat_to_minkowski(mass_after) - oracle)
    # a unit-rapidity boost must push the mass off the temporal axis
    fd = dr.FieldData(1.0)
    state = dr.state_from_mode(dr.plane_wave_modes(np.zeros(3), fd)[3], fd)
    spec = tr.TransformSpec(tr.rotor_boost(np.array([1.0, 0, 0]), 1.0), 1)
    moved = dr.transform_state(state, spec).m.upper
    yield 0.0 if moved.spatial.max_abs() >= 1e-3 else 1.0


def _loop_mass_fixed_n0(rng, cfg):
    for _ in range(cfg.trials):
        state = _loop_state(rng, with_potential=False)
        moved = dr.transform_state(state, tr.TransformSpec(hz.rand_rotor(rng), 0))
        yield (moved.m - state.m).max_abs()


def _loop_translated_residuals(rng, cfg):
    for _ in range(cfg.trials):
        fd = hz.rand_field(rng, with_potential=True)
        for mode in dr.plane_wave_modes(hz.rand_momentum(rng), fd):
            r1, r2 = dr.pair_residual(dr.spinor_to_pair(mode.amplitude), mode, fd)
            yield r1.max_abs()
            yield r2.max_abs()
            yield dr.state_from_mode(mode, fd).residual().max_abs()


def _loop_block_equals_pair(rng, cfg):
    for _ in range(cfg.trials):
        fd = hz.rand_field(rng, with_potential=True)
        energy, p = rng.uniform(-2, 2), hz.rand_momentum(rng)
        mode = dr.PlaneWaveMode(energy, p, rng.normal(size=4) + 1j * rng.normal(size=4))
        r1, r2 = dr.pair_residual(dr.spinor_to_pair(mode.amplitude), mode, fd)
        block = dr.state_from_mode(mode, fd).residual()
        yield (block.upper - r2).max_abs()
        yield (block.lower - r1).max_abs()


def _loop_spinor_roundtrip(rng, cfg):
    for _ in range(cfg.trials):
        psi = _loop_complex_vec(rng, 4)
        for lift in ("G", "L"):
            yield hz._max_abs(dr.pair_to_spinor(dr.spinor_to_pair(psi, lift)) - psi)


def _loop_ideal_membership(rng, cfg):
    factor = sm.ideal_factor(1)
    for _ in range(cfg.trials):
        pair = dr.spinor_to_pair(_loop_complex_vec(rng, 4))
        for phi in (pair.phi1, pair.phi2):
            yield (phi * factor - 2.0 * phi).max_abs()


def _loop_spectra(rng, cfg, with_shift: bool = False):
    """Draw each trial's field, momentum and, ``with_shift``, energy shift in
    turn, then take all the Hamiltonian spectra in one stacked ``eigvalsh``."""
    draws = []
    for _ in range(cfg.trials):
        fd = hz.rand_field(rng, with_potential=True)
        p = hz.rand_momentum(rng)
        draws.append((fd, p, rng.uniform(0.5, 1.5) if with_shift else None))
    spectra = np.linalg.eigvalsh(
        np.stack([dr.dirac_hamiltonian(p, fd) for fd, p, _ in draws])
    )
    return draws, spectra


def _loop_eigenvalue_match(rng, cfg):
    draws, spectra = _loop_spectra(rng, cfg)
    systems = [
        dr.pair_system_matrix(float(e), p, fd, lift)
        for (fd, p, _), energies in zip(draws, spectra)
        for lift in ("G", "L")
        for e in energies
    ]
    yield from np.linalg.svd(np.stack(systems), compute_uv=False)[:, -1].tolist()


def _loop_off_eigenvalue_nonsingular(rng, cfg):
    draws, spectra = _loop_spectra(rng, cfg, with_shift=True)
    systems = [
        dr.pair_system_matrix(float(energies[-1]) + shift, p, fd)
        for (fd, p, shift), energies in zip(draws, spectra)
    ]
    for sigma in np.linalg.svd(np.stack(systems), compute_uv=False)[:, -1]:
        yield 0.0 if sigma >= 1e-3 else 1.0


def _loop_massless_mode(rng, cfg):
    fd = dr.FieldData(0.0)
    factor = sm.ideal_factor(1)
    for _ in range(cfg.trials):
        p = hz.rand_momentum(rng)
        while np.linalg.norm(p) < 0.1:
            p = hz.rand_momentum(rng)
        mode = dr.PlaneWaveMode(float(np.linalg.norm(p)), p, np.zeros(4))
        sym, sym_c = dr.momentum_symbol(mode)
        pair = dr.BispinorPair(sym * factor, sym_c * factor)
        r1, r2 = dr.pair_residual(pair, mode, fd)
        yield r1.max_abs()
        yield r2.max_abs()


def _loop_state_gaps(a: dr.DiracState, b: dr.DiracState):
    yield (a.d - b.d).max_abs()
    yield (a.a - b.a).max_abs()
    yield (a.phi - b.phi).max_abs()
    yield (a.m - b.m).max_abs()


def _loop_preserves_row(kind):
    def case(rng, cfg):
        for _ in range(cfg.trials):
            state = _loop_state(rng)
            yield dr.apply_discrete(state, kind).residual().max_abs()

    case.__name__ = "_loop_%s_preserves" % kind
    return case


def _loop_involutions(rng, cfg):
    for _ in range(cfg.trials):
        state = _loop_state(rng)
        for kind in ("parity", "time_reversal", "charge_conjugation"):
            twice = dr.apply_discrete(dr.apply_discrete(state, kind), kind)
            yield from _loop_state_gaps(twice, state)


def _loop_charge_conjugation_flips_potential(rng, cfg):
    for _ in range(cfg.trials):
        state = _loop_state(rng)
        image = dr.apply_discrete(state, "charge_conjugation")
        yield image.residual().max_abs()
        yield (image.a - (-state.a)).max_abs()


def _loop_current_pipelines(rng, cfg):
    for _ in range(cfg.trials):
        psi = _loop_complex_vec(rng, 4)
        pair = dr.spinor_to_pair(psi)
        from_pair = cur.pair_current(pair)
        # the column bilinears in Euclidean components
        yield hz._max_abs(from_pair - cur.spinor_current(psi) / [1j, 1, 1, 1])
        yield hz._max_abs(cur.block_current(pair) - from_pair)


def _loop_current_scaling(rng, cfg):
    for _ in range(cfg.trials):
        psi = _loop_complex_vec(rng, 4)
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        j1 = cur.pair_current(dr.spinor_to_pair(psi))
        j2 = cur.pair_current(dr.spinor_to_pair(c * psi))
        yield hz._max_abs(j2 - abs(c) ** 2 * j1)
    yield hz._max_abs(cur.pair_current(dr.spinor_to_pair(np.zeros(4, dtype=complex))))


def _loop_current_density_positive(rng, cfg):
    for _ in range(cfg.trials):
        psi = _loop_complex_vec(rng, 4)
        if not cur.spinor_current(psi)[0] >= 0:  # NaN fails too
            yield 1.0
        # Euclidean temporal component is purely imaginary, spatial real
        je = cur.pair_current(dr.spinor_to_pair(psi))
        yield abs(je[0].real)
        yield hz._max_abs(je[1:].imag)


def _loop_single_mode_divergence(rng, cfg):
    for _ in range(max(1, cfg.trials // 10)):
        fd = hz.rand_field(rng)
        yield cur.current_divergence([hz.rand_solution(rng, fd)], fd)


def _loop_two_mode_divergence(rng, cfg):
    for _ in range(cfg.trials):
        fd = hz.rand_field(rng)
        solutions = [hz.rand_solution(rng, fd) for _ in range(2)]
        yield cur.current_divergence(solutions, fd)


def _loop_transformed_draws(rng, cfg):
    """The field, spec and solutions of each trial of the loop below."""
    for n in hz._n_draws(cfg):
        fd = hz.rand_field(rng)
        spec = tr.TransformSpec(hz.rand_rotor(rng), n)
        solutions = [hz.rand_solution(rng, fd) for _ in range(2)]
        yield fd, spec, solutions


def _loop_transformed_divergence(rng, cfg):
    for fd, spec, solutions in _loop_transformed_draws(rng, cfg):
        yield cur.current_divergence(solutions, fd, spec=spec)


def _loop_radiation_field(rng, count=3) -> tuple[cur.RadiationMode, ...]:
    modes = []
    for _ in range(count):
        while True:
            omega = rng.uniform(-2.0, 2.0)
            k = hz.rand_momentum(rng)
            s = omega**2 - float(k @ k)
            if abs(s) > 0.05:
                break
        modes.append(cur.RadiationMode(hz.rand_euclidean_quat(rng), omega, k))
    return tuple(modes)


def _loop_radiation_solve(rng, cfg):
    for _ in range(cfg.trials):
        source = _loop_radiation_field(rng)
        yield cur.radiation_residual(source, cur.solve_potential(source))


def _loop_radiation_transformed(rng, cfg):
    for _ in range(cfg.trials):
        source = _loop_radiation_field(rng)
        potential = cur.solve_potential(source)
        yield cur.radiation_residual(source, potential, hz.rand_rotor(rng))


def _loop_associativity(rng, cfg):
    for _ in range(cfg.trials):
        a, b, c = (_loop_complex_quat(rng) for _ in range(3))
        yield ((a * b) * c - a * (b * c)).max_abs()


def _loop_conjugation_anti_homomorphism(rng, cfg):
    for _ in range(cfg.trials):
        a, b = _loop_complex_quat(rng), _loop_complex_quat(rng)
        ab = a * b
        yield (ab.quat_conj() - b.quat_conj() * a.quat_conj()).max_abs()
        yield (ab.herm_conj() - b.herm_conj() * a.herm_conj()).max_abs()
        yield (ab.complex_conj() - a.complex_conj() * b.complex_conj()).max_abs()
        yield (a.quat_conj().complex_conj() - a.herm_conj()).max_abs()
        yield (a.complex_conj().quat_conj() - a.herm_conj()).max_abs()


def _loop_dot_two_routes(rng, cfg):
    for _ in range(cfg.trials):
        a, b = _loop_complex_quat(rng), _loop_complex_quat(rng)
        sandwich = (a.quat_conj() * b + b.quat_conj() * a) * 0.5
        yield abs(qt.dot(a, b) - sandwich.temporal)
        yield sandwich.spatial.max_abs()
        yield abs(qt.dot(a, a) - a.modulus())


def _loop_matrix_homomorphism(rng, cfg):
    for _ in range(cfg.trials):
        a, b = _loop_complex_quat(rng), _loop_complex_quat(rng)
        yield hz._max_abs(qt.to_matrix(a * b) - qt.to_matrix(a) @ qt.to_matrix(b))


def _loop_matrix_roundtrip(rng, cfg):
    for _ in range(cfg.trials):
        q = _loop_complex_quat(rng)
        yield (qt.from_matrix(qt.to_matrix(q)) - q).max_abs()


def _loop_matrix_trace(rng, cfg):
    for _ in range(cfg.trials):
        q = _loop_complex_quat(rng)
        yield abs(np.trace(qt.to_matrix(q)) - 2.0 * q.temporal)


def _loop_real_conjugations_coincide(rng, cfg):
    for _ in range(cfg.trials):
        q = _loop_real_quat(rng)
        yield (q.quat_conj() - q.herm_conj()).max_abs()


def _loop_modulus_inverse(rng, cfg):
    for _ in range(cfg.trials):
        q = _loop_invertible_quat(rng)
        inv = q.inverse()
        yield (inv * q - qt.ONE).max_abs()
        yield (q * inv - qt.ONE).max_abs()


def _loop_lift_identity_row(roundtrip):
    def case(rng, cfg):
        for _ in range(cfg.trials):
            v = _loop_complex_vec(rng, 2)
            yield hz._max_abs(roundtrip(v) - v)

    return case


def _loop_lift_real_components(rng, cfg):
    for _ in range(cfg.trials):
        v = _loop_complex_vec(rng, 2)
        for lifted in (sm.lift_G(v), sm.lift_L(v)):
            yield hz._max_abs(np.imag(lifted.components))


def _loop_scalar_shift(rng, cfg):
    for _ in range(cfg.trials):
        q = _loop_complex_quat(rng)
        yield hz._max_abs(sm.map_F(q * (-qt.I3)) - 1j * sm.map_F(q))
        yield hz._max_abs(sm.map_N(q * qt.I3) - 1j * sm.map_N(q))


def _loop_ideal_double(rng, cfg):
    for _ in range(cfg.trials):
        q = _loop_complex_quat(rng)
        yield hz._max_abs(sm.map_F(q * sm.ideal_factor(1)) - 2.0 * sm.map_F(q))
        yield hz._max_abs(sm.map_N(q * sm.ideal_factor(-1)) - 2.0 * sm.map_N(q))


def _loop_lift_commutation(rng, cfg):
    for _ in range(cfg.trials):
        q = _loop_real_quat(rng)
        basis = qt.BASIS[int(rng.integers(4))]
        col = qt.to_matrix(basis) @ sm.map_F(q)
        yield (sm.lift_G(col) - basis * q).max_abs()
        yield (sm.lift_G(1j * col) - basis * q * (-qt.I3)).max_abs()


def _loop_gf_ideal(rng, cfg):
    factor = sm.ideal_factor(1)
    for _ in range(cfg.trials):
        q = _loop_complex_quat(rng)
        yield (sm.lift_G(sm.map_F(q)) * factor - q * factor).max_abs()


def _loop_contraction_row(matrices, right):
    def case(rng, cfg):
        for _ in range(cfg.trials):
            q, u = _loop_real_quat(rng), _loop_real_quat(rng)
            fq, fu = sm.map_F(q), sm.map_F(u)
            for matrix, basis in zip(matrices, qt.BASIS[1:]):
                lhs = np.vdot(fq, matrix @ fu).real
                yield abs(lhs - qt.dot(q, basis * u * right))

    return case


def _loop_bijection_roundtrip(rng, cfg):
    for _ in range(cfg.trials):
        v = _loop_complex_vec(rng, 4)
        yield hz._max_abs(sm.quat_to_vec(sm.vec_to_quat(v)) - v)


def _loop_product_vs_embedding(rng, cfg):
    for _ in range(cfg.trials):
        x, y = _loop_block(rng), _loop_block(rng)
        yield hz._max_abs(hz.embed4(x * y) - hz.embed4(x) @ hz.embed4(y))


def _loop_rotator_conj_anti_homomorphism(rng, cfg):
    for _ in range(cfg.trials):
        x, y = _loop_block(rng, bl.Rotator), _loop_block(rng, bl.Rotator)
        lhs = hz.embed4((x * y).quat_conj())
        yield hz._max_abs(lhs - hz.embed4(y.quat_conj() * x.quat_conj()))


def _loop_trace_embedding(rng, cfg):
    for _ in range(cfg.trials):
        x = _loop_block(rng, bl.Rotator)
        yield abs(np.trace(hz.embed4(x)) - 2.0 * x.trace().temporal)
        yield _loop_block(rng, bl.Reflector).trace().max_abs()


def _loop_trace_temporal_similarity(rng, cfg):
    for _ in range(cfg.trials):
        x = _loop_block(rng, bl.Rotator)
        r, rc = tr.rotor_blocks(hz.rand_rotor(rng))
        y = r * x * rc
        yield abs(y.trace().temporal - x.trace().temporal)
        # per-block temporal components are individually preserved
        yield abs(y.upper.temporal - x.upper.temporal)
        yield abs(y.lower.temporal - x.lower.temporal)


def _loop_reflector_draws(rng, cfg):
    """The blocks of each trial of the loop below, and its rotor blocks."""
    for _ in range(cfg.trials):
        q = _loop_invertible_quat(rng)
        p = _loop_invertible_quat(rng)
        qq = bl.Reflector(q, q.quat_conj())
        pp = bl.Reflector(p, p.quat_conj())
        ww = pp.inverse() * qq * pp
        yield (qq, pp, ww), tr.rotor_blocks(hz.rand_rotor(rng))


def _loop_reflector_equation_invariance(rng, cfg):
    for (qq, pp, ww), (r, rc) in _loop_reflector_draws(rng, cfg):
        yield (qq * pp - pp * ww).max_abs()
        qq2, pp2, ww2 = (r * x * rc for x in (qq, pp, ww))
        yield (qq2 * pp2 - pp2 * ww2).max_abs()


def _reflector_scale(blocks, rotor_blocks):
    """The sizes of the products that the two residuals of one trial of
    ``reflector_equation_invariance`` compare, at least 1."""
    (qq, pp, _), (r, rc) = blocks, rotor_blocks
    qq2, pp2 = r * qq * rc, r * pp * rc
    return [max(1.0, (qq * pp).max_abs()), max(1.0, (qq2 * pp2).max_abs())]


def _loop_block_inverse(rng, cfg):
    ident = hz.embed4(bl.identity_rotator())
    for _ in range(cfg.trials):
        x = _loop_block(rng, draw=_loop_invertible_quat)
        yield hz._max_abs(hz.embed4(x.inverse() * x) - ident)


def _loop_pattern_row(pattern):
    coeff_s, coeff_t = hz._PATTERN_COEFFS[pattern]

    def case(rng, cfg):
        for _ in range(cfg.trials):
            angle = rng.uniform(0.05, math.pi - 0.05)
            axis = hz.rand_unit3(rng)
            rotor = tr.rotor_spatial(axis, angle)
            spatial = hz.rotation_matrix4(axis, coeff_s * angle)
            want = hz.temporal_rotation_matrix4(axis, coeff_t * angle) @ spatial
            # column k is the pattern applied to the basis quaternion k
            got = [tr.pattern_rotate(pattern, rotor, b).components for b in qt.BASIS]
            yield hz._max_abs(np.array(got).T - want)

    return case


_LOOPS = {
    ("invariance", "boost_unit_time"): _loop_boost_unit_time,
    ("invariance", "four_vector_vs_matrix"): _loop_four_vector_vs_matrix,
    ("invariance", "interval_preservation"): _loop_interval_preservation,
    ("invariance", "composition"): _loop_composition,
    ("invariance", "blocks_vs_vector_path"): _loop_blocks_vs_vector_path,
    ("invariance", "n_invariance"): _loop_n_invariance,
    ("invariance", "mass_four_vector"): _loop_mass_four_vector,
    ("invariance", "mass_fixed_n0"): _loop_mass_fixed_n0,
    ("equivalence", "translated_residuals"): _loop_translated_residuals,
    ("equivalence", "block_equals_pair"): _loop_block_equals_pair,
    ("equivalence", "spinor_roundtrip"): _loop_spinor_roundtrip,
    ("equivalence", "ideal_membership"): _loop_ideal_membership,
    ("equivalence", "eigenvalue_match"): _loop_eigenvalue_match,
    ("equivalence", "off_eigenvalue_nonsingular"): _loop_off_eigenvalue_nonsingular,
    ("equivalence", "massless_mode"): _loop_massless_mode,
    ("symmetries", "parity_preserves"): _loop_preserves_row("parity"),
    ("symmetries", "time_reversal_preserves"): _loop_preserves_row("time_reversal"),
    ("symmetries", "involutions"): _loop_involutions,
    ("symmetries", "charge_conjugation_flips_potential"): (
        _loop_charge_conjugation_flips_potential
    ),
    ("current", "current_pipelines"): _loop_current_pipelines,
    ("current", "current_scaling"): _loop_current_scaling,
    ("current", "current_density_positive"): _loop_current_density_positive,
    ("conservation", "single_mode_divergence"): _loop_single_mode_divergence,
    ("conservation", "two_mode_divergence"): _loop_two_mode_divergence,
    ("conservation", "transformed_divergence"): _loop_transformed_divergence,
    ("radiation", "radiation_solve"): _loop_radiation_solve,
    ("radiation", "radiation_transformed"): _loop_radiation_transformed,
    ("algebra", "associativity"): _loop_associativity,
    ("algebra", "conjugation_anti_homomorphism"): _loop_conjugation_anti_homomorphism,
    ("algebra", "dot_two_routes"): _loop_dot_two_routes,
    ("algebra", "matrix_homomorphism"): _loop_matrix_homomorphism,
    ("algebra", "matrix_roundtrip"): _loop_matrix_roundtrip,
    ("algebra", "matrix_trace"): _loop_matrix_trace,
    ("algebra", "real_conjugations_coincide"): _loop_real_conjugations_coincide,
    ("algebra", "modulus_inverse"): _loop_modulus_inverse,
    ("maps", "fg_identity"): _loop_lift_identity_row(lambda v: sm.map_F(sm.lift_G(v))),
    ("maps", "nl_identity"): _loop_lift_identity_row(lambda v: sm.map_N(sm.lift_L(v))),
    ("maps", "lift_real_components"): _loop_lift_real_components,
    ("maps", "scalar_shift"): _loop_scalar_shift,
    ("maps", "ideal_double"): _loop_ideal_double,
    ("maps", "lift_commutation"): _loop_lift_commutation,
    ("maps", "gf_ideal"): _loop_gf_ideal,
    ("maps", "contraction_vector"): _loop_contraction_row(
        [qt.to_matrix(b) for b in qt.BASIS[1:]], qt.ONE
    ),
    ("maps", "contraction_pauli"): _loop_contraction_row(sm.SIGMA, -qt.I3),
    ("maps", "bijection_roundtrip"): _loop_bijection_roundtrip,
    ("blocks", "product_vs_embedding"): _loop_product_vs_embedding,
    ("blocks", "rotator_conj_anti_homomorphism"): _loop_rotator_conj_anti_homomorphism,
    ("blocks", "trace_embedding"): _loop_trace_embedding,
    ("blocks", "trace_temporal_similarity"): _loop_trace_temporal_similarity,
    ("blocks", "reflector_equation_invariance"): _loop_reflector_equation_invariance,
    ("blocks", "block_inverse"): _loop_block_inverse,
    **{
        ("table1", "pattern_" + pattern.lower()): _loop_pattern_row(pattern)
        for pattern in tr.ROTATION_PATTERNS
    },
}


_FIXED_INSTANCE_CASES = {
    # these draw nothing
    ("algebra", "null_inversion_guard"),
    ("maps", "idempotent"),
    ("blocks", "block_guards"),
    ("equivalence", "rest_frame_values"),
    ("current", "current_rest_frame"),
    ("conservation", "off_shell_guard"),
    ("radiation", "lightlike_guard"),
    # these draw one instance, or one per fixed step
    ("algebra", "basis_products"),
    ("blocks", "parity_rule"),
    ("table1", "identity_pattern"),
    ("radiation", "radiation_example"),
    ("conservation", "fd_divergence_convergence"),
    ("conservation", "fd_symbol_convergence"),
    ("radiation", "dalembertian_fd"),
}


def test_every_stacked_case_has_its_loop():
    cases = {(suite, case.name) for suite in hz.SUITES for case in hz.SUITES[suite]}
    assert cases - set(_LOOPS) == _FIXED_INSTANCE_CASES | {
        # still a loop: its oracle, _matrix_oracle, runs per trial
        ("current", "current_covariance"),
    }


# the cases that draw trials but return other than one row per trial;
# current_density_positive would append one 1.0 more were a density to fail,
# which |psi|^2 never does
_ROW_COUNTS = {
    ("conservation", "single_mode_divergence"): lambda trials: max(1, trials // 10),
    # the trials' two checks, flattened, and one fixed check
    ("invariance", "mass_four_vector"): lambda trials: 2 * trials + 1,
    ("current", "current_scaling"): lambda trials: trials + 1,
}


def test_cases_return_one_row_per_trial():
    # a case returns its residuals in one array, trials first, for the runner
    # to reduce: no case is a generator
    for suite, cases in hz.SUITES.items():
        for case in cases:
            assert not inspect.isgeneratorfunction(case.fn), case.name
            if (suite, case.name) in _FIXED_INSTANCE_CASES:
                continue
            # 1, 3 and 10 trials split unevenly over the four exponents
            for trials in (1, 3, 10):
                cfg = SuiteConfig(suite=suite, trials=trials)
                result = case.fn(hz.case_rng(0, suite, case.name), cfg)
                rows = _ROW_COUNTS.get((suite, case.name), lambda trials: trials)
                assert len(result) == rows(trials), (case.name, trials)


class _Recorder:
    """A generator that keeps the values that each of its methods returned."""

    def __init__(self, rng):
        self.rng = rng
        self.values = {}

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def call(*args, **kwargs):
            out = method(*args, **kwargs)
            self.values.setdefault(name, []).append(np.ravel(out))
            return out

        return call

    def drawn(self) -> dict:
        """Per method, the bytes of all the values it returned, in order."""
        return {name: np.concatenate(v).tobytes() for name, v in self.values.items()}


@pytest.mark.parametrize("suite, name", list(_LOOPS))
def test_stacked_cases_match_their_loops(suite, name):
    # the residuals of an identity are rounding whatever the draws, so the
    # draws are compared as well: each generator method must return the
    # loop's values in the loop's order, however many calls it takes, and
    # leave the generator in the loop's state.  A draw pass that reads the
    # field and the momentum in the other order keeps every residual but
    # n_invariance's within 1e-14
    case = next(c for c in hz.SUITES[suite] if c.name == name)
    for seed in (0, 1, 5):
        cfg = SuiteConfig(suite=suite, seed=seed, trials=200)
        rng, loop_rng = (_Recorder(hz.case_rng(seed, suite, name)) for _ in range(2))
        got = np.ravel(case.fn(rng, cfg))
        want = list(_LOOPS[suite, name](loop_rng, cfg))
        assert rng.drawn() == loop_rng.drawn(), seed
        # the Philox state holds arrays: compare their printed values
        states = (repr(r.rng.bit_generator.state) for r in (rng, loop_rng))
        assert len(set(states)) == 1, seed
        assert len(got) == len(want), seed
        gap = np.abs(np.subtract(got, want))
        if name == "transformed_divergence":
            # its residuals are rounding amplified by |R|^(2|n|), up to 4e-13
            # at n = 2: each trial against the size of the terms that cancel
            draws = _loop_transformed_draws(hz.case_rng(seed, suite, name), cfg)
            tol = 1e-14 * np.array([_divergence_scale(*draw) for draw in draws])
        elif name == "reflector_equation_invariance":
            # its products reach some hundreds, where one rounding is 1e-14:
            # each residual against the size of the products it compares
            draws = _loop_reflector_draws(hz.case_rng(seed, suite, name), cfg)
            tol = 1e-14 * np.ravel([_reflector_scale(*draw) for draw in draws])
        else:
            tol = 1e-14
        assert np.all(gap <= tol), (seed, np.max(gap))


def _divergence_scale(fd, spec, solutions):
    """The largest sum of |left[a, mu]| |right[b]| (|P_a| + |P_b|)_mu over the
    mode pairs of one ``current_divergence``: the size of the terms that
    cancel in its coefficients."""
    syms, phi = cur._check_solutions(solutions, fd)
    left, right = cur._current_factors(phi, spec)
    sizes = np.abs(syms)[None] + np.abs(syms)[:, None]
    return np.max(np.einsum("amk,bk,abm->ab", abs(left), abs(right), sizes))


@pytest.mark.parametrize("with_potential", [True, False])
def test_stacked_states_are_the_loops_states(with_potential):
    # the states of a stack are those that a loop over the trials draws,
    # trial by trial, and not only as good solutions
    count = 50
    rng, loop_rng = hz.case_rng(3, "test", "states"), hz.case_rng(3, "test", "states")
    draw = functools.partial(hz._draw_state, with_potential=with_potential)
    stack = hz._states(*hz._trials(rng, count, draw))
    states = [_loop_state(loop_rng, with_potential) for _ in range(count)]
    for field in ("d", "a", "phi", "m"):
        for part in ("upper", "lower"):
            got = np.stack(getattr(getattr(stack, field), part).components, axis=-1)
            want = [getattr(getattr(s, field), part).components for s in states]
            want = np.array(want)
            gap = np.max(np.abs(got - want))
            assert gap <= 1e-14 * np.max(np.abs(want)), (field, part)
