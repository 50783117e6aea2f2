"""Peak memory of the command line on the happy scaling curve.

    python3 tools/cli_peak.py [SWAPS ...]    (default: 800 1600)

For each size N it writes `random_happy_scenario(seed=1, swaps=N)` (from
tests/scenario_gen.py) to a temporary directory, then runs
`swapgate run <scenario> --trace <file>` and `swapgate check <file>`, each
as its own child process, and prints one JSON line per size: each child's
own peak RSS (getrusage max RSS, as `os.wait4` reports it for that child),
its wall time and exit code, and the trace size. Exits 1 if a child
exited non-zero. Information only: it sets no threshold.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from scenario_gen import random_happy_scenario  # noqa: E402


def child(*args: str) -> tuple[float, float, int]:
    """Run `python -m swapgate.cli ARGS`; returns its peak RSS in MB, its
    wall seconds and its exit code."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable,
                         [sys.executable, "-m", "swapgate.cli", *args], env)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    # Linux reports ru_maxrss in KiB
    return usage.ru_maxrss / 1024, seconds, os.waitstatus_to_exitcode(status)


def point(swaps: int, workdir: Path) -> dict:
    scenario = workdir / f"happy_{swaps}.json"
    trace = workdir / f"happy_{swaps}.jsonl"
    scenario.write_text(json.dumps(random_happy_scenario(1, swaps).to_json()),
                        encoding="utf-8")
    run_mb, run_s, run_exit = child("run", str(scenario), "--trace", str(trace))
    check_mb, check_s, check_exit = child("check", str(trace))
    out = {
        "swaps": swaps,
        "trace_mb": round(trace.stat().st_size / 1e6, 2) if trace.exists() else None,
        "run_peak_rss_mb": round(run_mb, 1),
        "run_s": round(run_s, 2),
        "run_exit": run_exit,
        "check_peak_rss_mb": round(check_mb, 1),
        "check_s": round(check_s, 2),
        "check_exit": check_exit,
    }
    trace.unlink(missing_ok=True)
    return out


def main(argv: list[str]) -> int:
    sizes = [int(arg) for arg in argv] or [800, 1600]
    failed = False
    with tempfile.TemporaryDirectory() as workdir:
        for swaps in sizes:
            out = point(swaps, Path(workdir))
            print(json.dumps(out), flush=True)
            failed |= out["run_exit"] != 0 or out["check_exit"] != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
