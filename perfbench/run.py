"""Benchmark of the swapgate simulator, measured strictly from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from `src/` beside this directory, never from an
installed copy; without it the benchmark exits 1 and prints no result.
Workloads, metrics and their predictions are described in
perfbench/README.md.

--trace 0 repeats the workload for about S seconds with no instrumentation
and prints the end-to-end metrics; peak RSS comes from one fresh child
process that runs the workload once. --trace 1 installs the span recorder
of perfbench/spans.py and prints the per-layer metrics of at least two
traced repetitions, whose exact counts must agree.

Every execution passes the correctness gate: the run exits 0 with no
invariant violation, `check_trace_text` agrees, and the trace digest is the
same in every repetition. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the exit code
is 1 when the gate fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PACKAGE = HERE.parent / "src" / "swapgate"
WORKLOADS = ["swap_dense", "history_long", "reorg_byzantine", "bundled_suite"]


def import_program() -> None:
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no swapgate sources at {PACKAGE}")
    sys.path[:0] = [str(HERE), str(PACKAGE.parent)]
    import swapgate
    if Path(swapgate.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"perfbench: imported swapgate from "
                         f"{swapgate.__file__}, not from {PACKAGE}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    import bench
    if args.rss_child:
        bench.rss_child(bench.Workload(args.workload, args.seed))
        return 0
    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
