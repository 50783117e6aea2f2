"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For every workload, one process after another, it runs the traced
benchmark twice on seed 11 and once on seed 12, and the untraced benchmark
once on seed 12, each for one second. It checks that

- every run exits 0 and passes the correctness gate (run.py also fails a
  traced run whose workload no longer exercises the layers it exists for,
  such as reorg_byzantine without reorgs or stuck swaps);
- the two seed-11 runs, in separate processes, print the same trace digest
  and identical exact counters;
- every run reports exactly the metrics that BENCHMARK.json names.

Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED_A, SEED_B = 11, 12
SECONDS = 1.0


def bench(workload: str, seed: int, traced: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(traced)],
        capture_output=True, text=True, timeout=600, cwd=ROOT, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {traced} exited "
                           f"{proc.returncode}:\n{proc.stdout[-3000:]}"
                           f"{proc.stderr[-3000:]}")
    digest = next(line.rsplit(" ", 1)[1] for line in lines
                  if "trace sha256" in line)
    return json.loads(lines[-1]), digest


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}

    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [(SEED_A, 1), (SEED_A, 1), (SEED_B, 1), (SEED_B, 0)]
        results = []
        for seed, traced in runs:
            try:
                result, digest = bench(workload, seed, traced)
            except RuntimeError as exc:
                failures.append(str(exc))
                results.append(None)
                continue
            if set(result["metrics"]) != names[traced]:
                failures.append(f"{workload} trace {traced}: metrics differ "
                                f"from BENCHMARK.json")
            results.append((result, digest))
        if results[0] and results[1]:
            (first, d1), (second, d2) = results[0], results[1]
            if d1 != d2:
                failures.append(f"{workload}: trace digest differs between "
                                f"two processes on seed {SEED_A}")
            changed = sorted(
                name for name, m in first["metrics"].items()
                if m["unit"] == "count"
                and m["value"] != second["metrics"][name]["value"])
            if changed:
                failures.append(f"{workload}: exact counters differ between "
                                f"two runs on seed {SEED_A}: {changed}")
        print(f"{workload}: {'ok' if all(results) else 'FAILED'}", flush=True)

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest passed" if not failures else "selftest failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
