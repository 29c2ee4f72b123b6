"""Self-tests of the benchmark: failure accounting, count repeatability,
seeds, and the refusal to run without the library sources.

Run with ``python -m pytest bench``.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import layertrace  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402


class SmallConservation(workloads.ConservationModes):
    SIZES = (4, 6, 8)
    cycle = len(SIZES)


class SmallGrid(workloads.GridOracle):
    SIDES = (7, 9)
    cycle = len(SIDES)


class SmallVerify(workloads.VerifyAll):
    cycle = 1
    trials = 1


@pytest.fixture(scope="module")
def qd():
    return bench_run.import_qdirac()


def test_qdirac_comes_from_this_checkout(qd):
    assert bench_run.SRC.resolve() in Path(qd.__file__).resolve().parents


def test_missing_sources_refused(monkeypatch, tmp_path):
    monkeypatch.setattr(bench_run, "SRC", tmp_path / "src")
    with pytest.raises(bench_run.SourceMissing):
        bench_run.import_qdirac()


def test_wrong_output_and_exception_count_as_failed(qd):
    workload = SmallConservation(qd, 1)
    honest = workload.run

    def faulty(i):
        if i == 1:
            return 1.0  # a residual far above the tolerance
        if i == 2:
            raise RuntimeError("injected")
        return honest(i)

    workload.run = faulty
    loop = bench_run.Loop(workload)
    loop.cycles(seconds=0.0, min_ops=2 * workload.cycle)
    assert loop.attempted == 2 * workload.cycle
    assert loop.failed == 2
    assert len(loop.latencies) == loop.attempted
    result = bench_run._result(loop, {})
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (6, 2)


def test_grid_check_rejects_a_wrong_sign(qd):
    workload = SmallGrid(qd, 1)
    result = workload.run(0)
    assert workload.check(0, result) == workload.inputs[0][0] ** 4
    flipped = type(result)(result.spacing, result.values.conj())
    with pytest.raises(workloads.WrongOutput):
        workload.check(0, flipped)


def test_verify_check_rejects_a_failed_case(qd):
    workload = SmallVerify(qd, 1)
    code, text = workload.run(0)
    assert workload.check(0, (code, text)) > 0
    with pytest.raises(workloads.WrongOutput):
        workload.check(0, (1, text.replace('"pass": true', '"pass": false', 1)))


@pytest.mark.parametrize("cls", [SmallConservation, SmallGrid, SmallVerify])
def test_traced_counts_repeat_exactly(cls):
    runs = []
    for _ in range(2):
        record = {}
        result = bench_run.traced(cls, 5, 0.0, record)
        assert result["correct"]
        assert record["spans"] and record["spans"][0][0] == "setup"
        runs.append(
            {k: m["value"] for k, m in result["metrics"].items() if m["unit"] != "s"}
        )
    assert runs[0] == runs[1]
    counts = runs[0]
    if cls is SmallConservation:
        assert counts["current.mode_pairs"] == sum(n * n for n in cls.SIZES)
        assert counts["blocks.mul_count"] > 0 and counts["quaternion.mul_count"] > 0
    if cls is SmallGrid:
        assert counts["harness.fd_points"] == sum(n**4 for n in cls.SIDES)
    if cls is SmallVerify:
        assert counts["harness.case_count"] > 0 and counts["cli.calls"] > 0


def test_calibration_takes_out_the_wrapper_cost():
    # a parent whose only work is calling an empty child: nearly all of the
    # raw self time of both is the tracer's
    tracer = layertrace.Tracer(record=False)
    child = tracer._wrapper(lambda a, b: None, "quaternion", "quaternion.child")

    def loop():
        for _ in range(2000):
            child(1, 2)

    parent = tracer._wrapper(loop, "blocks", "blocks.parent")
    for _ in range(5):
        tracer.calibrate()
        parent()
    metrics = tracer.layer_metrics()
    assert metrics["trace.per_call_s"][0] > 0
    assert metrics["quaternion.calls"][0] == 10000
    for layer in ("quaternion", "blocks"):
        assert abs(metrics[layer + ".self_s"][0]) < 0.5 * tracer.self_s[layer]


def test_seeds_give_distinct_inputs(qd):
    def energies(seed):
        workload = SmallConservation(qd, seed)
        return [[mode.energy for _, mode in sol] for sol, _, _ in workload.inputs]

    assert energies(1) == energies(1)
    assert energies(1) != energies(2)
    assert SmallVerify(qd, 1).argv(0) != SmallVerify(qd, 2).argv(0)


@pytest.mark.parametrize(
    "n, p", [(20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (200, 95.0)]
)
def test_tail_percentile_leaves_ten_samples(n, p):
    assert bench_run.tail_percentile(n) == p


@pytest.mark.parametrize(
    "sizes, percentiles",
    [
        (workloads.ConservationModes.SIZES, (50.0, 75.0, 90.0)),
        (workloads.GridOracle.SIDES, (50.0, 90.0)),
    ],
)
def test_ranks_land_inside_a_group_of_equal_ops(sizes, percentiles):
    # over 2-10 whole cycles, the op at each reported rank and both its
    # neighbours have one size, so a rank never sits on a jump between sizes
    for cycles in range(2, 11):
        ordered = sorted(sizes * cycles)
        for p in percentiles:
            rank = math.ceil(p / 100.0 * len(ordered))
            assert ordered[rank - 2] == ordered[rank - 1] == ordered[rank], (cycles, p)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid_oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
