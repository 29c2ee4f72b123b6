"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them live) and asserts the pinned tolerance.  Criteria reuse the seeded
suite cases so that the acceptance run and the CLI harness exercise the
same code paths.
"""

import json
import subprocess
import sys

import numpy as np

from qdirac import harness as hz

SEED = 2026


def _run_cases(suite: str, names, trials: int, n_set=(-1, 0, 1, 2)) -> float:
    cfg = hz.SuiteConfig(suite=suite, seed=SEED, trials=trials, n_set=n_set)
    by_name = {case.name: case for case in hz.SUITES[suite]}
    residuals = [
        hz._run_case(by_name[name], hz.case_rng(SEED, suite, name), cfg).max_residual
        for name in names
    ]
    return float(np.max(residuals))  # a NaN residual stays NaN and fails


def _report(number: int, label: str, residual: float, tol: float) -> None:
    verdict = "PASS" if residual <= tol else "FAIL"
    print(
        "ACCEPTANCE %2d %-28s %s  max_residual=%.3e  tol=%.1e"
        % (number, label, verdict, residual, tol)
    )
    assert residual <= tol


def test_criterion_01_algebra_representation():
    worst = _run_cases(
        "algebra",
        ["matrix_homomorphism", "conjugation_anti_homomorphism", "dot_two_routes"],
        trials=1000,
    )
    _report(1, "algebra/representation", worst, 1e-12)


def test_criterion_02_maps():
    worst = _run_cases(
        "maps",
        [
            "fg_identity",
            "nl_identity",
            "scalar_shift",
            "ideal_double",
            "lift_commutation",
            "contraction_vector",
            "contraction_pauli",
        ],
        trials=1000,
    )
    _report(2, "maps and lifts", worst, 1e-12)


def test_criterion_03_rotation_table():
    names = ["pattern_%s" % p.lower() for p in hz.tr.ROTATION_PATTERNS]
    worst = _run_cases("table1", names, trials=200)
    _report(3, "rotation table rows", worst, 1e-9)


def test_criterion_04_boost_correctness():
    worst = _run_cases(
        "invariance",
        [
            "boost_unit_time",
            "four_vector_vs_matrix",
            "interval_preservation",
            "composition",
        ],
        trials=200,
    )
    _report(4, "boost correctness", worst, 1e-10)


def test_criterion_05_equation_equivalence():
    residuals = _run_cases("equivalence", ["translated_residuals"], trials=100)
    roundtrip = _run_cases("equivalence", ["spinor_roundtrip"], trials=100)
    eigen = _run_cases("equivalence", ["eigenvalue_match"], trials=100)
    _report(5, "equivalence residuals", residuals, 1e-10)
    _report(5, "equivalence roundtrip", roundtrip, 1e-12)
    _report(5, "equivalence eigenvalues", eigen, 1e-10)


def test_criterion_06_invariance_general_n():
    # 200 draws per exponent
    worst = _run_cases("invariance", ["n_invariance"], trials=800)
    _report(6, "invariance for n in set", worst, 1e-8)
    mass = _run_cases("invariance", ["mass_four_vector"], trials=200)
    _report(6, "mass boost for n=1", mass, 1e-10)


def test_criterion_07_discrete_symmetries():
    worst = _run_cases(
        "symmetries",
        [
            "parity_preserves",
            "time_reversal_preserves",
            "charge_conjugation_flips_potential",
            "involutions",
        ],
        trials=100,
    )
    _report(7, "discrete symmetries", worst, 1e-10)


def test_criterion_08_current_identity():
    worst = _run_cases("current", ["current_pipelines"], trials=1000)
    _report(8, "current pipelines agree", worst, 1e-12)


def test_criterion_09_conservation():
    worst = _run_cases(
        "conservation",
        ["two_mode_divergence", "transformed_divergence"],
        trials=800,
    )
    _report(9, "divergence vanishes", worst, 1e-10)
    ratio_gap = _run_cases(
        "conservation", ["fd_divergence_convergence"], trials=1
    )
    _report(9, "fd divergence order 2", ratio_gap, 0.8)


def test_criterion_10_radiation():
    solve = _run_cases("radiation", ["radiation_solve"], trials=200)
    _report(10, "radiation residual", solve, 1e-12)
    guard = _run_cases("radiation", ["lightlike_guard"], trials=1)
    _report(10, "lightlike rejection", guard, 0.5)
    moved = _run_cases("radiation", ["radiation_transformed"], trials=200)
    _report(10, "radiation transformed", moved, 1e-10)


def test_criterion_11_determinism():
    args = [
        sys.executable,
        "-m",
        "qdirac.cli",
        "verify",
        "all",
        "--seed",
        "5",
        "--trials",
        "25",
        "--format",
        "json",
    ]
    first = subprocess.run(args, capture_output=True, text=True)
    second = subprocess.run(args, capture_output=True, text=True)
    assert first.returncode == 0 and second.returncode == 0
    a, b = json.loads(first.stdout), json.loads(second.stdout)
    for report in (a, b):
        report.pop("elapsed")
        for case in report["cases"]:
            case.pop("elapsed")
    gap = 0.0 if json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True) else 1.0
    _report(11, "deterministic reports", gap, 0.5)
