"""Command-line front end.

    posterior-dynamics psi <scenario.json> [--mode auto|exact|float] [--out DIR]
    posterior-dynamics audit <suite> [--seed N] [--out DIR]
    posterior-dynamics figures <1|2|3|all> [--out DIR]

Exit codes: 0 success, 1 audit assertion failure, 2 schema/usage problems,
3 numeric failures, 4 IO errors.  Scenario names bundled with the package
(figure1, figure2, figure3, beta71) are accepted in place of a path.
The exact numeric mode is honoured only on Bernoulli routes; asking for it
on a normal or exponential scenario is a numeric failure (exit code 3).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import audit as audit_mod
from . import engine
from . import figures as fig
from . import priors as pr
from .families import DomainError
from .scenario import ScenarioError, load_scenario

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _resolve_scenario(token: str):
    if os.path.exists(token):
        return load_scenario(token)
    if token in fig.BUNDLED:
        return fig.bundled_scenario(token)
    raise ScenarioError(f"no such scenario file or bundled name: {token!r}")


def _emit(scenarios, out: str) -> int:
    """Write the outputs of each scenario, drawn from the iterable
    ``scenarios`` inside the error mapping, then print their paths."""
    try:
        batches = [fig.emit_scenario_files(s, out) for s in scenarios]
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (pr.UnsupportedConjugacyError, pr.ImpossibleObservationError, DomainError,
            OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    for batch in batches:
        for path in batch:
            print(path)
    return EXIT_OK


def cmd_psi(args: argparse.Namespace) -> int:
    def scenarios():
        scenario = _resolve_scenario(args.scenario)
        yield dataclasses.replace(scenario, numeric_mode=args.mode) if args.mode else scenario

    return _emit(scenarios(), args.out)


def _print_suite_table(report: dict) -> None:
    suites = report.get("suites", [report])
    for suite in suites:
        print(f"suite {suite['suite']}: {'PASS' if suite['pass'] else 'FAIL'}")
        for check in suite["checks"]:
            mark = "ok " if check["pass"] else "FAIL"
            print(f"  [{mark}] {check['name']}")


def cmd_audit(args: argparse.Namespace) -> int:
    try:
        report = audit_mod.run_suite(args.suite, seed=args.seed)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_SCHEMA
    report = {"schema": 1, **report}
    _print_suite_table(report)
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"audit_{args.suite}.json")
            fig.atomic_write(path, [fig.render_json(report)])
            print(path)
        except OSError as exc:
            print(f"io error: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK if report["pass"] else EXIT_FAIL


def cmd_figures(args: argparse.Namespace) -> int:
    names = ("figure1", "figure2", "figure3") if args.which == "all" else (f"figure{args.which}",)
    return _emit(map(fig.bundled_scenario, names), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posterior-dynamics",
        description="Expected-posterior sequences: computation, diagnostics, audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_psi = sub.add_parser("psi", help="run one scenario file and emit its outputs")
    p_psi.add_argument("scenario", help="scenario JSON path or bundled name")
    p_psi.add_argument("--mode", choices=engine.NUMERIC_MODES, default=None)
    p_psi.add_argument("--out", default=".", help="output directory")
    p_psi.set_defaults(fn=cmd_psi)

    p_audit = sub.add_parser("audit", help="run a property-audit suite")
    p_audit.add_argument(
        "suite",
        choices=sorted(audit_mod.SUITES) + sorted(audit_mod.SUITE_ALIASES) + ["all"],
    )
    p_audit.add_argument("--seed", type=int, default=42)
    p_audit.add_argument("--out", default=None, help="directory for the JSON report")
    p_audit.set_defaults(fn=cmd_audit)

    p_fig = sub.add_parser("figures", help="emit the bundled scenario figures")
    p_fig.add_argument("which", choices=("1", "2", "3", "all"))
    p_fig.add_argument("--out", default=".", help="output directory")
    p_fig.set_defaults(fn=cmd_figures)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
