"""Command-line interface.

    scw verify <file> [--suite NAME] [--seed N] [--report PATH]
    scw paper-suite [--seed N] [--report PATH]
    scw h0 <file> <surface-id> <class-json> [--seed N]
    scw lefschetz <key> [--seed N] [--report PATH]

`paper-suite` runs every check of every bundled file: the two Inoue cover
workbenches and `named.json`, the paper's numeric claims.  `lefschetz` runs
the checks of `named.json` whose name is <key> or starts with <key>/.

Exit codes: 0 all checks pass, 1 verification failure, 2 input error.
The seed defaults to the SCW_SEED environment variable (then 0); the
--seed flag overrides both.  With SCW_DEBUG=1, an unexpected exception also
prints its traceback to stderr; exit codes and stdout stay the same.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from . import workbench
from .checks import resolve_class
from .report import VerificationReport
from .workbench import SpecError

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


def _default_seed() -> int:
    raw = os.environ.get("SCW_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise SpecError(f"SCW_SEED must be an integer, got {raw!r}")


def _emit(report: VerificationReport, report_path: str | None) -> int:
    sys.stdout.write(report.to_text())
    if report_path:
        with open(report_path, "w") as fh:
            fh.write(report.to_json())
    return EXIT_OK if report.all_passed else EXIT_VERIFICATION


def _cmd_verify(args) -> int:
    wf = workbench.parse_spec(args.file)
    report = workbench.run_suite(wf, suite=args.suite, seed=args.seed)
    return _emit(report, args.report)


def _cmd_paper_suite(args) -> int:
    report = workbench.paper_suite(seed=args.seed)
    return _emit(report, args.report)


def _cmd_h0(args) -> int:
    wf = workbench.parse_spec(args.file)
    wb = workbench.Workbench(wf, seed=args.seed)
    surface = wb.surface(args.surface_id)
    try:
        mapping = json.loads(args.class_json)
    except json.JSONDecodeError as exc:
        raise SpecError(f"class argument is not valid JSON: {exc.msg}")
    cls = resolve_class(surface.lattice, mapping, "class argument")
    sys.stdout.write(f"{surface.h0(cls)}\n")
    if args.audit:
        from .oracle import realization_to_json

        payload = [realization_to_json(surface.realization(s))
                   for s in surface.seed_policy.seeds()]
        with open(args.audit, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def _cmd_lefschetz(args) -> int:
    report = workbench.run_named(args.key, seed=args.seed)
    return _emit(report, args.report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scw",
        description="Exact verification workbench for blowup surfaces and abelian covers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="base oracle seed (default: SCW_SEED or 0)")
        p.add_argument("--report", default=None, help="write a JSON report to this path")

    p_verify = sub.add_parser("verify", help="run a workbench file's checks")
    p_verify.add_argument("file")
    p_verify.add_argument("--suite", default="all", choices=workbench.SUITES)
    add_common(p_verify)
    p_verify.set_defaults(fn=_cmd_verify)

    p_paper = sub.add_parser("paper-suite", help="run every bundled check")
    add_common(p_paper)
    p_paper.set_defaults(fn=_cmd_paper_suite)

    p_h0 = sub.add_parser("h0", help="section count of a class on a surface")
    p_h0.add_argument("file")
    p_h0.add_argument("surface_id")
    p_h0.add_argument("class_json", help='e.g. \'{"L": 2, "E1": -1}\'')
    p_h0.add_argument("--audit", default=None,
                      help="write the exact realizations used to this JSON path")
    add_common(p_h0)
    p_h0.set_defaults(fn=_cmd_h0)

    p_lef = sub.add_parser("lefschetz", help="run the numeric checks of one key")
    p_lef.add_argument("key", help=f"one of: {', '.join(workbench.named_keys())}")
    add_common(p_lef)
    p_lef.set_defaults(fn=_cmd_lefschetz)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _default_seed()
        return args.fn(args)
    except SpecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except Exception as exc:  # input errors must never escape as tracebacks
        if os.environ.get("SCW_DEBUG") == "1":
            traceback.print_exc(file=sys.stderr)
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
