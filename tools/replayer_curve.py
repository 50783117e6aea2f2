"""Run time of the happy scaling curve with a replayer in the roster.

    python3 tools/replayer_curve.py [SWAPS ...]    (default: 800 1600 3200)

For each size N it times `Runner(scenario).run()` on
`random_happy_scenario(seed=1, swaps=N)` (from tests/scenario_gen.py) with
the roster set to 4 honest oracles plus one `replayer`, threshold 4. Each
size runs in its own child process. The harness leaves the garbage
collector on; `Runner.run` pauses the cyclic collector for the run itself,
as it does for every caller. It prints one JSON line: the seconds per size
and, for each size that doubles the one before it, the ratio t(2N)/t(N). A
replayer endorses everything extracted before, so this is the curve on
which a per-round cost that grows with history shows. Exits 1 if a child
fails or a run exits non-zero. Information only: it sets no threshold.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

ROSTER = {"count": 5, "threshold": 4, "behaviors": ["honest"] * 4 + ["replayer"]}


def child(swaps: int) -> None:
    """Time one run of size `swaps` and print its seconds and exit code."""
    from scenario_gen import random_happy_scenario
    from swapgate.scenario import OracleConfig, Runner

    scenario = random_happy_scenario(seed=1, swaps=swaps)
    scenario.oracles = OracleConfig(**ROSTER)
    start = time.perf_counter()
    result = Runner(scenario).run()
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds, "exit": result.exit_code}))


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        child(int(argv[1]))
        return 0
    sizes = [int(arg) for arg in argv] or [800, 1600, 3200]
    seconds: dict[int, float] = {}
    failed = False
    for swaps in sizes:
        done = subprocess.run(
            [sys.executable, __file__, "--child", str(swaps)],
            capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            failed = True
            continue
        point = json.loads(done.stdout.splitlines()[-1])
        failed |= point["exit"] != 0
        seconds[swaps] = point["seconds"]
    slopes = {f"t({2 * n})/t({n})": round(seconds[2 * n] / seconds[n], 2)
              for n in seconds if 2 * n in seconds}
    print(json.dumps({"roster": "4 honest + 1 replayer, threshold 4",
                      "seconds": {str(n): round(s, 3)
                                  for n, s in seconds.items()},
                      "slopes": slopes}), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
