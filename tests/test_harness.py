import dataclasses
import functools
import hashlib
import inspect
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
    # a short last axis and a long middle one pin the rows whose differences
    # read across a row end, which are discarded
    long_middle = (6, 9, 7, 5, 4)
    rows = Grid4(0.1, rng.normal(size=long_middle) + 1j * rng.normal(size=long_middle))
    # a strided view of a larger grid is copied once into the flat layout
    strided = Grid4(_SPACING, sampled.values[::2, 1:, ::-1, 1:-1])
    assert not np.moveaxis(strided.values, -1, 0).flags.c_contiguous
    for grid in (c_order, sampled, t_major, rows, strided):
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
    # the output plus two time-plane buffers, and no other grid-size array
    grid = hz.sample_quat_mode(_AMPLITUDE, _ENERGY, _MOMENTUM, (25,) * 4, _SPACING)
    tracemalloc.start()
    try:
        out = fd_apply_D(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * out.values.nbytes


def _workers(monkeypatch, count):
    """Split every grid kernel between ``count`` workers, down to one row;
    one worker is the serial path."""
    monkeypatch.setattr(hz, "_cpu_count", lambda: count)
    monkeypatch.setattr(hz, "_WORKER_FLOOR", 1)


@pytest.mark.parametrize("workers", [2, 3, 8])
def test_parallel_grid_kernels_are_bitwise_serial(monkeypatch, workers):
    rng = np.random.default_rng(29)
    sampled = hz.sample_quat_mode(_AMPLITUDE, _ENERGY, _MOMENTUM, (11,) * 4, _SPACING)
    grids = [
        # the minimal grid: 3 interior rows, fewer than 8 workers
        Grid4(0.1, rng.normal(size=(5,) * 4 + (4,)) + 1j * rng.normal(size=(5,) * 4 + (4,))),
        # 7 interior rows, divisible by neither 2 nor 3 workers
        Grid4(0.1, rng.normal(size=(6, 9, 7, 5, 4)) + 1j * rng.normal(size=(6, 9, 7, 5, 4))),
        # a strided view, copied once into the flat layout
        Grid4(_SPACING, sampled.values[::2, 1:, ::-1, 1:-1]),
        sampled,
    ]
    shapes = [(5,) * 4, (6, 9, 7, 5), (7, 11, 6, 5), (6, 4, 5, 5)]

    def run():
        fd = [fd_apply_D(grid, conjugate).values.tobytes() for grid in grids
              for conjugate in (False, True)]
        modes = [hz.sample_quat_mode(_AMPLITUDE, _ENERGY, _MOMENTUM, shape, _SPACING)
                 for shape in shapes]
        return fd, [mode.values.tobytes() for mode in modes]

    _workers(monkeypatch, 1)
    serial = run()
    # the serial mode is the whole-grid product
    comps = np.array(_AMPLITUDE.components)[:, None, None, None, None]
    for shape, got in zip(shapes, serial[1]):
        wave = hz._plane_wave(_ENERGY, _MOMENTUM, shape, _SPACING)
        assert got == np.moveaxis(comps * wave, 0, -1).tobytes()
    _workers(monkeypatch, workers)
    assert run() == serial


def test_parallel_fd_apply_D_allocates_two_planes(monkeypatch):
    # each worker holds buffers of its own rows only
    _workers(monkeypatch, 3)
    grid = hz.sample_quat_mode(_AMPLITUDE, _ENERGY, _MOMENTUM, (25,) * 4, _SPACING)
    tracemalloc.start()
    try:
        out = fd_apply_D(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * out.values.nbytes


def test_parallel_workers_keep_the_callers_errstate(monkeypatch):
    rng = np.random.default_rng(31)
    values = rng.normal(size=(6, 9, 7, 5, 4)) + 1j * rng.normal(size=(6, 9, 7, 5, 4))
    # infinite points on the last rows only, which a thread computes and the
    # caller does not: inf - inf there is invalid
    values[:, -3:] = np.inf
    grid = Grid4(0.1, values)
    _workers(monkeypatch, 1)
    with np.errstate(invalid="ignore"):
        serial = fd_apply_D(grid).values
    assert np.isnan(serial).any()
    _workers(monkeypatch, 2)
    with np.errstate(invalid="ignore"):
        assert fd_apply_D(grid).values.tobytes() == serial.tobytes()
    # pytest turns the thread's warning into an error, raised in the caller
    with pytest.raises(RuntimeWarning, match="invalid value"):
        fd_apply_D(grid)


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
    fd = hz.rand_field(rng, 1)
    shape = (9,) * 4
    for count in (1, 2, 3):
        modes = hz._modes({"fd": fd, "modes": hz._mode_draws(count)(rng, 1)})
        solutions = [hz._solution(hz._member(mode, 0)) for mode in modes]
        got = hz._current_grid(solutions, shape, _SPACING)
        want = _current_component_grids(solutions, shape, _SPACING)
        assert got.shape == (4, *shape)
        assert got.tobytes() == np.stack(want).tobytes(), count


def test_fd_divergence_max_is_the_temporal_component_of_fd_apply_D():
    rng = np.random.default_rng(23)
    fd = hz.rand_field(rng, 1)
    modes = hz._modes({"fd": fd, "modes": hz._mode_draws(2)(rng, 1)})
    solutions = [hz._solution(hz._member(mode, 0)) for mode in modes]
    fields = [hz._current_grid(solutions, (side,) * 4, _SPACING) for side in (9, 17)]
    fields.append(rng.normal(size=(4, 6, 9, 7, 5)) + 1j * rng.normal(size=(4, 6, 9, 7, 5)))
    for field in fields:
        grid = Grid4(_SPACING, np.moveaxis(field, 0, -1))
        want = np.max(np.abs(fd_apply_D(grid, conjugate=True).values[..., 0]))
        assert hz._fd_divergence_max(field, _SPACING) == want


@pytest.mark.parametrize("run_planes", [0, 1, 3, 5, 9])
def test_fd_divergence_max_takes_runs_of_any_length(monkeypatch, run_planes):
    # 5 interior time planes in runs of one (below one plane), 3 + 2 and all
    rng = np.random.default_rng(37)
    field = rng.normal(size=(4, 7, 9, 7, 5)) + 1j * rng.normal(size=(4, 7, 9, 7, 5))
    field[:, -2] *= 10.0  # the largest value on the last interior plane
    monkeypatch.setattr(hz, "_FD_RUN", run_planes * 9 * 7 * 5)
    grid = Grid4(_SPACING, np.moveaxis(field, 0, -1))
    want = np.max(np.abs(fd_apply_D(grid, conjugate=True).values[..., 0]))
    assert hz._fd_divergence_max(field, _SPACING) == want


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite(SuiteConfig(suite="nonsense", trials=1))


def test_suite_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(suite="algebra", trials=0)
    # a fractional trial count or exponent would fail or be truncated
    with pytest.raises(ValueError, match="trials must be an integer"):
        SuiteConfig(suite="algebra", trials=2.5)
    with pytest.raises(ValueError, match="n_set must hold integers"):
        SuiteConfig(suite="invariance", n_set=(1.5,))
    cfg = SuiteConfig(suite="invariance", trials=np.int64(3), n_set=(np.int64(2),))
    assert (type(cfg.trials), type(cfg.n_set[0])) == (int, int)
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
    # n_invariance and transformed_divergence draw one exponent per trial
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

    def huge(draw):
        # every four-vector the case draws, q, q1 or q2, is huge
        def draw_huge(rng, cfg):
            draws = draw(rng, cfg)
            stack = big * np.ones(cfg.trials)
            return {k: stack if k[0] == "q" else v for k, v in draws.items()}

        return draw_huge

    cases = [dataclasses.replace(c, draw=huge(c.draw)) for c in hz.SUITES["invariance"]]
    monkeypatch.setitem(hz.SUITES, "invariance", cases)
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
        ("invariance", "unit_boost_moves_mass"),
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
    def empty(draws):
        return []

    cases = [
        dataclasses.replace(c, check=empty) if c.name == "massless_mode" else c
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
# Every case is a draw, which makes all of its generator calls, and a check,
# which returns one row of residuals per drawn instance.

_CASES = {(suite, case.name): case for suite in hz.SUITES for case in hz.SUITES[suite]}
_DIGESTS = json.loads((Path(__file__).parent / "draw_digests.json").read_text())


def test_cases_return_one_row_per_trial():
    # a check returns its residuals in one array, one row per instance, for
    # the runner to reduce: no check is a generator
    for (suite, name), case in _CASES.items():
        assert not inspect.isgeneratorfunction(case.check), name
        # 1, 3 and 10 trials split unevenly over the four exponents
        for trials in (1, 3, 10):
            cfg = SuiteConfig(suite=suite, trials=trials)
            draws = case.draw(hz.case_rng(0, suite, name), cfg)
            assert len(case.check(draws)) == hz._instances(draws), (name, trials)


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


def _draw_digest(suite, name) -> str:
    """SHA-256 of the values that each generator method returned to the
    case's draw, in order, and of the generator's end state, at seeds 0, 1
    and 5 and 200 trials.  It hashes the generator's own output, not values
    derived from it, which depend on libm."""
    digest = hashlib.sha256()
    for seed in (0, 1, 5):
        rng = _Recorder(hz.case_rng(seed, suite, name))
        _CASES[suite, name].draw(rng, SuiteConfig(suite=suite, seed=seed, trials=200))
        for method, values in rng.drawn().items():
            digest.update(b"%s %d\n" % (method.encode(), len(values)))
            digest.update(values)
        state = rng.rng.bit_generator.state
        state = json.dumps(state, sort_keys=True, default=np.ndarray.tolist)
        digest.update(state.encode())
    return digest.hexdigest()


def test_every_case_has_one_digest():
    assert list(_DIGESTS) == ["%s/%s" % key for key in _CASES]


@pytest.mark.parametrize("suite, name", list(_CASES))
def test_draws_match_their_digests(suite, name):
    # a deliberate change of a case's draws is the one line of
    # draw_digests.json that this prints
    key = "%s/%s" % (suite, name)
    digest = _draw_digest(suite, name)
    assert digest == _DIGESTS.get(key), 'new line: "%s": "%s"' % (key, digest)


def _block_ends(draws) -> list[int]:
    """The first and last instance of each exponent of the column ``n``, or
    of the whole draw."""
    n = draws.get("n", np.zeros(hz._instances(draws)))
    return sorted({k for value in set(n) for k in np.flatnonzero(n == value)[[0, -1]]})


@pytest.mark.parametrize("suite, name", list(_CASES))
def test_stacked_cases_match_their_loops(suite, name):
    # each instance's row is what a loop over the trials would get: it does
    # not depend on the other instances it is checked with, alone, in the
    # reversed stack or in a shuffled one, whose exponents are out of order
    # and interleaved
    case = _CASES[suite, name]
    for seed in (0, 1):
        cfg = SuiteConfig(suite=suite, seed=seed, trials=200)
        draws = case.draw(hz.case_rng(seed, suite, name), cfg)
        rows = np.asarray(case.check(draws), dtype=float)
        count = hz._instances(draws)
        shuffled = np.random.default_rng(seed).permutation(count)
        for order in (np.arange(count)[::-1], shuffled):
            moved = case.check(hz._member(draws, order))
            assert np.all(np.abs(np.asarray(moved) - rows[order]) <= 1e-14), seed
        for k in _block_ends(draws):
            alone = case.check(hz._member(draws, slice(k, k + 1)))
            assert np.all(np.abs(np.asarray(alone)[0] - rows[k]) <= 1e-14), (seed, k)


def test_sliced_checks_give_the_whole_report(monkeypatch):
    # checked seven instances at a time, every case checks each of its
    # instances once, gives the verdict and, within the members' bound, the
    # residual of one whole check, and leaves its generator in the same state
    case_rng, sizes = hz.case_rng, {}

    def counted(suite, case):
        def check(draws):
            sizes.setdefault((suite, case.name), []).append(hz._instances(draws))
            return case.check(draws)

        return dataclasses.replace(case, check=check)

    for suite, cases in hz.SUITES.items():
        monkeypatch.setitem(hz.SUITES, suite, [counted(suite, case) for case in cases])

    def run():
        rngs = []

        def recorded(*key):
            rngs.append(case_rng(*key))
            return rngs[-1]

        monkeypatch.setattr(hz, "case_rng", recorded)
        sizes.clear()
        report = run_suite(SuiteConfig(suite="all", trials=50))
        return report, [repr(rng.bit_generator.state) for rng in rngs]

    whole, whole_states = run()
    counts = {key: size for key, (size,) in sizes.items()}
    monkeypatch.setattr(hz, "_SLICE", 7)
    sliced, sliced_states = run()
    assert sliced.passed and sliced_states == whole_states
    assert len(counts) == len(_CASES)
    for key, count in counts.items():
        assert sum(sizes[key]) == count and max(sizes[key]) <= 7, key
    for a, b in zip(whole.cases, sliced.cases, strict=True):
        assert (a.name, a.passed) == (b.name, b.passed)
        assert abs(a.max_residual - b.max_residual) <= 1e-14, a.name


def _trial_state(draws, k: int) -> dr.DiracState:
    """Trial k's state of the draws ``fd`` and one of ``modes``, by one
    library call per trial."""
    fd, (p, pick) = hz._member(draws["fd"], k), draws["modes"]
    mode = dr.plane_wave_modes(p[k, 0], fd)[pick[k, 0]]
    return dr.state_from_mode(mode, fd)


@pytest.mark.parametrize("with_potential", [True, False])
def test_stacked_states_are_the_loops_states(with_potential):
    # the states of a stack are those that a loop over the trials builds
    # from the same draws, trial by trial, and not only as good solutions
    cfg = SuiteConfig(suite="test", trials=50)
    field = functools.partial(hz.rand_field, with_potential=with_potential)
    draw = hz._draw(fd=field, modes=hz._mode_draws(1))
    draws = draw(hz.case_rng(3, "test", "states"), cfg)
    stack = hz._state(draws)
    states = [_trial_state(draws, k) for k in range(cfg.trials)]
    for field in ("d", "a", "phi", "m"):
        for part in ("upper", "lower"):
            got = np.stack(getattr(getattr(stack, field), part).components, axis=-1)
            want = [getattr(getattr(s, field), part).components for s in states]
            want = np.array(want)
            gap = np.max(np.abs(got - want))
            assert gap <= 1e-14 * np.max(np.abs(want)), (field, part)
