"""Command-line entry point for the verification suites.

Exit codes: 0 when every case passes, 1 when any case fails (an exception
inside a case counts as a failed case), 2 for usage or configuration
errors, such as a non-finite ``--tol`` or an empty ``--n``.  The JSON
report is a single object on stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys

from .harness import SuiteConfig, UnknownSuite, emit_report, list_suites, run_suite


def _parse_n_set(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a comma-separated list of integers, got %r" % text
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdirac",
        description="Verify the quaternion Dirac/radiation algebra property suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run one suite (or 'all') and report")
    verify.add_argument("suite", help="suite name; see `qdirac list-suites`")
    verify.add_argument(
        "--seed", type=int, default=0, help="non-negative integer seed (default 0)"
    )
    verify.add_argument(
        "--trials", type=int, default=200, help="random draws per case (default 200)"
    )
    verify.add_argument(
        "--tol",
        type=float,
        default=1e-10,
        help="tolerance knob; residual tolerances scale with tol/1e-10, guard and "
        "convergence-order tolerances do not (default 1e-10)",
    )
    verify.add_argument(
        "--n",
        type=_parse_n_set,
        default=(-1, 0, 1, 2),
        metavar="N1,N2,...",
        help="spinor transformation exponents (default -1,0,1,2)",
    )
    verify.add_argument(
        "--grid-h", type=float, default=0.05, help="grid spacing (default 0.05)"
    )
    verify.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )

    sub.add_parser("list-suites", help="print the available suite names")
    return parser


def _join_n_flag(argv: list[str]) -> list[str]:
    # argparse mistakes "-1,0,1,2" for an option; splice it onto the flag
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--n" and i + 1 < len(argv):
            out.append("--n=" + argv[i + 1])
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(_join_n_flag(argv))
    if args.command == "list-suites":
        for name in list_suites():
            print(name)
        return 0

    try:
        cfg = SuiteConfig(
            suite=args.suite,
            seed=args.seed,
            trials=args.trials,
            tol=args.tol,
            n_set=args.n,
            grid_h=args.grid_h,
        )
        report = run_suite(cfg)
    except (UnknownSuite, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(emit_report(report, args.format))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
