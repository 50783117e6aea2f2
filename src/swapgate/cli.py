"""Command-line front end.

    swapgate run <scenario-file-or-bundled-name> [--seed N] [--trace PATH]
    swapgate check <trace-file>
    swapgate list-scenarios

Exit codes: 0 all assertions and invariants hold, 1 a check failed,
2 invalid scenario, malformed trace or a trace that cannot be written (to
its file or to stdout, a closed pipe included).
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources
from pathlib import Path

from .errors import InvalidScenario, MalformedTrace
from .scenario import Runner, Scenario
from .trace import check_trace, write_records, write_trace


def bundled_scenario_names() -> list[str]:
    root = resources.files("swapgate") / "scenarios"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_scenario(spec: str) -> Scenario:
    path = Path(spec)
    if path.exists():
        return Scenario.load(path)
    bundled = resources.files("swapgate") / "scenarios" / f"{spec}.json"
    if not bundled.is_file():
        raise InvalidScenario(
            f"{spec!r} is neither a scenario file nor a bundled scenario "
            f"(see `swapgate list-scenarios`)")
    return Scenario.load(bundled)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except InvalidScenario as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 2
    result = Runner(scenario, seed=args.seed).run()
    if result.exit_code == 2:
        print(f"invalid scenario: {result.error}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            write_trace(result.records, args.trace)
        else:
            write_records(result.records, sys.stdout)
            sys.stdout.flush()
    except OSError as exc:
        if not args.trace:
            # a closed pipe: what stdout still buffers goes nowhere, so
            # that the interpreter's flush at exit does not fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"cannot write trace: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        print(f"trace written to {args.trace}", file=sys.stderr)
    for violation in result.violations:
        print(f"violation [{violation['invariant']}]: {violation['detail']}",
              file=sys.stderr)
    verdict = "ok" if result.exit_code == 0 else "failed"
    print(f"scenario {scenario.name!r}: {verdict}", file=sys.stderr)
    return result.exit_code


def cmd_check(args: argparse.Namespace) -> int:
    try:
        exit_code, violations = check_trace(args.trace)
    except (MalformedTrace, OSError) as exc:
        print(f"malformed trace: {exc}", file=sys.stderr)
        return 2
    for violation in violations:
        print(f"violation [{violation['invariant']}]: {violation['detail']}",
              file=sys.stderr)
    print("trace ok" if exit_code == 0 else "trace failed", file=sys.stderr)
    return exit_code


def cmd_list(_args: argparse.Namespace) -> int:
    for name in bundled_scenario_names():
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swapgate",
        description="deterministic two-chain token gateway simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and emit its trace")
    p_run.add_argument("scenario", help="scenario file path or bundled name")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--trace", default=None,
                       help="write the trace to this file instead of stdout")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check",
                             help="re-verify invariants over an existing trace")
    p_check.add_argument("trace", help="trace file (one JSON record per line)")
    p_check.set_defaults(func=cmd_check)

    p_list = sub.add_parser("list-scenarios", help="list bundled scenarios")
    p_list.set_defaults(func=cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
