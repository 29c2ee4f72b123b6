"""Benchmark of the qdirac library: one closed-loop client, one process.

Run from the root of a source checkout:

    python3 bench/run.py --workload verify_all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced passes over one cycle of the workload and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record of the run, with the machine,
the per-op samples and, when traced, the spans, is written under
``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import numpy  # noqa: E402

import layertrace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS_PER_CYCLE = 2  # besides the one before the first op
MAX_SETUPS = 15
MIN_OPS = 20  # the median needs 10 samples on each side
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class SourceMissing(RuntimeError):
    """The checkout has no qdirac sources under src/."""


def import_qdirac():
    """Import ``qdirac`` afresh from this checkout's ``src/``.

    Any qdirac modules already loaded are dropped first, so each call pays
    the package's own import cost (numpy stays loaded).
    """
    if not (SRC / "qdirac" / "__init__.py").is_file():
        raise SourceMissing("no qdirac package under %s" % SRC)
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == "qdirac" or k.startswith("qdirac.")]:
        del sys.modules[key]
    qd = importlib.import_module("qdirac")
    importlib.import_module("qdirac.cli")
    location = Path(qd.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise SourceMissing("qdirac imported from %s, not from %s" % (location, SRC))
    return qd


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def setup(workload_cls, seed: int):
    """Import qdirac afresh and build the workload; return it and the time."""
    start = time.perf_counter()
    workload = workload_cls(import_qdirac(), seed)
    return workload, time.perf_counter() - start


class Loop:
    """Closed-loop op runner; a failed op is counted and the run goes on."""

    def __init__(self, workload=None):
        self.workload = workload
        self.latencies: list[float] = []
        self.work = 0
        self.failed = 0
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def op(self, i: int, span=None) -> None:
        start = time.perf_counter()
        try:
            if span is None:
                result = self.workload.run(i)
            else:
                with span("op %d" % i):
                    result = self.workload.run(i)
        except Exception as exc:  # an op that raises is a failed op
            self.latencies.append(time.perf_counter() - start)
            self._fail(i, "raised %s: %s" % (type(exc).__name__, exc))
            return
        self.latencies.append(time.perf_counter() - start)
        try:
            self.work += self.workload.check(i, result)
        except Exception as exc:  # WrongOutput, or output that cannot be read
            self._fail(i, "wrong output: %s: %s" % (type(exc).__name__, exc))

    def _fail(self, i: int, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append("op %d %s" % (i, message))
            print("%s op %d %s" % (self.workload.name, i, message), file=sys.stderr)

    def cycles(self, seconds: float, min_ops: int = MIN_OPS, between=None) -> None:
        """Run whole cycles until ``seconds`` have passed and ``min_ops`` ran.

        ``between``, if given, is called after each cycle.
        """
        start = time.perf_counter()
        i = 0
        while i < min_ops or time.perf_counter() - start < seconds:
            for _ in range(self.workload.cycle):
                self.op(i)
                i += 1
            if between is not None:
                between()


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile that leaves at least 10 samples beyond it."""
    best = None
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def end_to_end(workload_cls, seed: int, seconds: float, record: dict) -> dict:
    workload, first = setup(workload_cls, seed)
    setup_times = [first]

    def more_setups():
        # spread over the run, the set-ups see the same machine as the ops
        for _ in range(SETUPS_PER_CYCLE):
            if len(setup_times) < MAX_SETUPS:
                setup_times.append(setup(workload_cls, seed)[1])

    loop = Loop(workload)
    loop.cycles(seconds, between=more_setups)
    tail_p = tail_percentile(loop.attempted)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "latency_p50_s": statistics.median(loop.latencies),
        "latency_tail_s": nearest_rank(loop.latencies, tail_p),
        "work_per_s": loop.work / sum(loop.latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record.update(
        setup_times_s=setup_times,
        latencies_s=loop.latencies,
        tail_percentile=tail_p,
        samples=loop.attempted,
        work=loop.work,
        work_unit=workload.unit,
        fail_ratio=loop.failed / loop.attempted,
        errors=loop.errors,
    )
    print(
        "# %s: %d ops, %d %s, latency_tail_s is p%g of %d samples, "
        "fail_ratio %d/%d = %g"
        % (workload.name, loop.attempted, loop.work, workload.unit, tail_p,
           loop.attempted, loop.failed, loop.attempted, loop.failed / loop.attempted)
    )
    return _result(loop, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()})


def _pass(qd, workload_cls, seed: int, loop: Loop, tracer=None) -> float:
    """Build the workload and run its first cycle; return the wall time.

    A traced pass calibrates the tracer between its ops; that time is left out.
    """
    start = time.perf_counter()
    if tracer is None:
        loop.workload = workload_cls(qd, seed)
        for i in range(loop.workload.cycle):
            loop.op(i)
        return time.perf_counter() - start
    tracer.install(qd)
    try:
        tracer.calibrate()
        with tracer.span("setup"):
            loop.workload = workload_cls(qd, seed)
        for i in range(loop.workload.cycle):
            tracer.calibrate()
            loop.op(i, tracer.span)
        tracer.calibrate()
    finally:
        tracer.uninstall()
    return time.perf_counter() - start - tracer.calibration_s


def traced(workload_cls, seed: int, seconds: float, record: dict) -> dict:
    """Alternate untraced and traced passes while another pair fits in ``seconds``.

    Counts come from the first traced pass; every pass does the same work,
    so they repeat exactly from run to run.  Times are medians over passes.
    """
    qd = import_qdirac()
    loop = Loop()
    untraced_s, traced_s, tracers = [], [], []
    start = time.perf_counter()
    # stop before a pair that would end after ``seconds``; at least one pair runs
    while not tracers or time.perf_counter() - start + untraced_s[-1] + traced_s[-1] <= seconds:
        untraced_s.append(_pass(qd, workload_cls, seed, loop))
        tracers.append(layertrace.Tracer(record=not tracers))
        traced_s.append(_pass(qd, workload_cls, seed, loop, tracers[-1]))
    passes = [t.layer_metrics() for t in tracers]
    metrics = {}
    for name, (value, unit) in passes[0].items():
        if unit == "s":
            value = statistics.median(p[name][0] for p in passes)
        metrics[name] = (value, unit)
    metrics["trace.untraced_s"] = (statistics.median(untraced_s), "s")
    metrics["trace.traced_s"] = (statistics.median(traced_s), "s")
    metrics["trace.overhead_s"] = (
        metrics["trace.traced_s"][0] - metrics["trace.untraced_s"][0], "s"
    )
    counts = [{k: v for k, (v, u) in p.items() if u != "s"} for p in passes]
    repeat = all(c == counts[0] for c in counts)
    wrapped_calls = sum(metrics[layer + ".calls"][0] for layer in layertrace.LAYERS)
    record.update(
        passes=len(tracers),
        counts_repeat_across_passes=repeat,
        case_names=tracers[0].case_names,
        spans=tracers[0].spans,
        fail_ratio=loop.failed / loop.attempted,
        errors=loop.errors,
    )
    print(
        "# %s traced: %d passes, overhead %.3f s per pass (%.3f s traced, "
        "%.3f s untraced); %d wrapped calls at %.3g s each make %.3f s of it; "
        "counts repeat across passes: %s"
        % (workload_cls.name, len(tracers), metrics["trace.overhead_s"][0],
           metrics["trace.traced_s"][0], metrics["trace.untraced_s"][0],
           wrapped_calls, metrics["trace.per_call_s"][0],
           wrapped_calls * metrics["trace.per_call_s"][0], repeat)
    )
    return _result(loop, metrics)


def _result(loop: Loop, metrics: dict) -> dict:
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _write_record(record: dict) -> None:
    name = "%s-seed%d-trace%d.json" % (record["workload"], record["seed"], record["trace"])
    try:
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / name, "w") as fh:
            json.dump(record, fh, separators=(",", ":"))
    except OSError as exc:
        print("warning: could not write %s: %s" % (name, exc), file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    try:
        import_qdirac()
    except (SourceMissing, ImportError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    record["environment"] = env = environment()
    print("# environment: %s" % json.dumps(env, sort_keys=True))
    measure = traced if args.trace else end_to_end
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, record)
    record["result"] = result
    _write_record(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
