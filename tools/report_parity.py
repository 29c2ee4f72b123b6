"""Compare the verification reports of two checkouts of qdirac.

    python tools/report_parity.py PARENT CHANGE

Runs ``qdirac verify --format json`` on every suite, ``all`` included, at
seeds 0, 1 and 5 and trials 25, 100 and 200.  Each checkout runs in one
child process that imports ``qdirac`` from the checkout's ``src/``.  The
``elapsed`` fields, top-level and per case, are dropped, and each report
becomes one line per case and one line for the rest.  The lines that differ
are printed as a unified diff, PARENT first.  Exits 0 when the reports are
identical and 1 when they are not.
"""

from __future__ import annotations

import difflib
import json
import os
import pathlib
import subprocess
import sys

SEEDS = (0, 1, 5)
TRIALS = (25, 100, 200)

_CHILD = r"""
import contextlib, io, json, pathlib, sys
import qdirac
from qdirac import cli, harness

src = pathlib.Path(sys.argv[1]).resolve()
if src not in pathlib.Path(qdirac.__file__).resolve().parents:
    sys.exit("qdirac imported from %s, not from %s" % (qdirac.__file__, src))
seeds, trial_counts = json.loads(sys.argv[2])
for seed in seeds:
    for trials in trial_counts:
        for suite in harness.list_suites():
            out = io.StringIO()
            argv = ["verify", suite, "--seed", str(seed), "--trials", str(trials),
                    "--format", "json"]
            with contextlib.redirect_stdout(out):
                cli.main(argv)
            report = json.loads(out.getvalue())
            report.pop("elapsed")
            head = "%s seed=%d trials=%d" % (suite, seed, trials)
            for case in report.pop("cases"):
                case.pop("elapsed")
                print(head, json.dumps(case, sort_keys=True))
            print(head, json.dumps(report, sort_keys=True))
"""


def report_lines(checkout: pathlib.Path) -> list[str]:
    """The report lines of every suite, seed and trial count of ``checkout``."""
    src = checkout / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(src), json.dumps([SEEDS, TRIALS])],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return done.stdout.splitlines()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: report_parity.py PARENT CHANGE", file=sys.stderr)
        return 2
    parent, change = (pathlib.Path(a).resolve() for a in argv)
    diff = list(
        difflib.unified_diff(
            report_lines(parent), report_lines(change),
            str(parent), str(change), n=0, lineterm="",
        )
    )
    for line in diff:
        print(line)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
