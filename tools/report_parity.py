"""Compare the verification reports of two checkouts of qdirac.

    python tools/report_parity.py [--verdicts] PARENT CHANGE

Runs ``qdirac verify --format json`` on every suite, ``all`` included, at
seeds 0, 1 and 5 and trials 25, 100 and 200, and ``all`` once more at each
seed and trial count with ``--n=-3,-2,-1,0,1,2,3``, whose lines carry the n
set in their head: cases that group their trials by exponent differ from a
per-trial loop only under n sets other than the default.  Each checkout
runs in one child process that imports ``qdirac`` from the checkout's
``src/``.  The ``elapsed`` fields, top-level and per case, are dropped, and
each report becomes one line per case and one line for the rest.  The lines
that differ are printed as a unified diff, PARENT first.  Exits 0 when the
reports are identical and 1 when they are not.  Exits 2, with one line on
stderr, when a checkout's child process cannot start or fails, for example
when it cannot import ``qdirac``.

With ``--verdicts`` the reports must agree in everything but the cases'
``max_residual``: the same lines in the same order, each case with the same
name, ``pass``, ``tol`` and ``kind``.  The lines that disagree are printed
in pairs, PARENT first, and then, for every case name, the largest
``max_residual`` shift over all runs.  Exits 0 when the verdicts agree and
1 when they do not.
"""

from __future__ import annotations

import difflib
import json
import math
import os
import pathlib
import subprocess
import sys

SEEDS = (0, 1, 5)
TRIALS = (25, 100, 200)
WIDE_N = "-3,-2,-1,0,1,2,3"

_CHILD = r"""
import contextlib, io, json, pathlib, sys
import qdirac
from qdirac import cli, harness

src = pathlib.Path(sys.argv[1]).resolve()
if src not in pathlib.Path(qdirac.__file__).resolve().parents:
    sys.exit("qdirac imported from %s, not from %s" % (qdirac.__file__, src))
seeds, trial_counts, wide_n = json.loads(sys.argv[2])
for seed in seeds:
    for trials in trial_counts:
        runs = [(suite, []) for suite in harness.list_suites()]
        for suite, n_args in runs + [("all", ["--n=" + wide_n])]:
            out = io.StringIO()
            argv = ["verify", suite, "--seed", str(seed), "--trials", str(trials),
                    "--format", "json", *n_args]
            with contextlib.redirect_stdout(out):
                cli.main(argv)
            report = json.loads(out.getvalue())
            report.pop("elapsed")
            head = " ".join(["%s seed=%d trials=%d" % (suite, seed, trials), *n_args])
            for case in report.pop("cases"):
                case.pop("elapsed")
                print(head, json.dumps(case, sort_keys=True))
            print(head, json.dumps(report, sort_keys=True))
"""


class CheckoutFailed(Exception):
    """A checkout's child process did not run to the end."""


def report_lines(checkout: pathlib.Path) -> list[str]:
    """The report lines of every suite, seed and trial count of ``checkout``."""
    src = checkout / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    try:
        done = subprocess.run(
            [sys.executable, "-c", _CHILD, str(src), json.dumps([SEEDS, TRIALS, WIDE_N])],
            cwd=checkout, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
    except OSError as exc:  # a missing checkout: the child never started
        raise CheckoutFailed("%s: %s" % (checkout, exc.strerror)) from exc
    if done.returncode != 0:
        last = (done.stderr.strip().splitlines() or ["no output"])[-1]
        raise CheckoutFailed(
            "%s: child exited with status %d: %s" % (checkout, done.returncode, last)
        )
    return done.stdout.splitlines()


def verdict_lines(parent: list[str], change: list[str]) -> tuple[list[str], dict]:
    """The lines on which ``change`` disagrees with ``parent`` in anything but
    ``max_residual``, and the largest ``max_residual`` shift of each case."""
    mismatched, shifts = [], {}
    if len(parent) != len(change):
        mismatched.append("%d report lines against %d" % (len(parent), len(change)))
    for p_line, c_line in zip(parent, change):
        p_head, p_json = p_line.split(" {", 1)
        c_head, c_json = c_line.split(" {", 1)
        p_case, c_case = json.loads("{" + p_json), json.loads("{" + c_json)
        p_res, c_res = p_case.pop("max_residual", None), c_case.pop("max_residual", None)
        if p_head != c_head or p_case != c_case:
            mismatched += [p_line, c_line]
        elif p_res is not None:
            # "all" reports name their cases suite/case, suite reports case
            name = p_case["name"]
            key = name if "/" in name else "%s/%s" % (p_head.split()[0], name)
            shift = 0.0 if p_res == c_res else abs(float(c_res) - float(p_res))
            prev = shifts.setdefault(key, shift)
            # a NaN shift, from a NaN residual on one side, stays the largest
            if not math.isnan(prev) and (math.isnan(shift) or shift > prev):
                shifts[key] = shift
    return mismatched, shifts


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    verdicts = argv[:1] == ["--verdicts"]
    paths = argv[1:] if verdicts else argv
    if len(paths) != 2:
        print("usage: report_parity.py [--verdicts] PARENT CHANGE", file=sys.stderr)
        return 2
    parent, change = (pathlib.Path(a).resolve() for a in paths)
    try:
        lines = report_lines(parent), report_lines(change)
    except CheckoutFailed as exc:
        print("report_parity.py: %s" % exc, file=sys.stderr)
        return 2
    if verdicts:
        mismatched, shifts = verdict_lines(*lines)
        for line in mismatched:
            print(line)
        for name, shift in sorted(shifts.items()):
            print("%-48s %.3e" % (name, shift))
        return 1 if mismatched else 0
    diff = list(
        difflib.unified_diff(*lines, str(parent), str(change), n=0, lineterm="")
    )
    for line in diff:
        print(line)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
