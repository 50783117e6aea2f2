"""Mutants that a check is known to catch, or known to miss, checked in.

    python3 tools/mutants.py

Each entry names a file under src/, an exact snippet of it, the snippet
that replaces it, an oracle and the outcome recorded for that mutant. For
each entry the script copies src/ to a temporary directory, applies the
edit there (the old snippet must occur exactly once) and runs the oracle
on the copy in a child process. The tree itself is never edited. It exits
1 if a snippet no longer matches or an outcome differs from the recorded
one: a refactor that silently stops catching a mutant shows up, and so
does one that starts catching a known hole, whose entry is then updated.

Oracles:
  selfcheck  the number of tests/scenario_gen.reorg_scenario seeds 1-10
             whose run raises the reorg self-check's RuntimeError, the one
             that names the state fields differing ("differing: ..."); any
             other RuntimeError counts as not caught. It is deterministic,
             so the outcome is an exact count. The unmutated tree must
             give 0.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/, old snippet, new snippet, oracle, outcome)
MUTANTS = [
    ("port swaps shared", "swapgate/ports.py",
     "return type(self)(dict(self.swaps), self.next_seq)",
     "return type(self)(self.swaps, self.next_seq)",
     "selfcheck", 10),
    ("per-token balances shared", "swapgate/ledger.py",
     "balances={sym: dict(per) for sym, per in self.balances.items()},",
     "balances=dict(self.balances),",
     "selfcheck", 10),
    ("locked shared", "swapgate/ledger.py",
     "locked=dict(self.locked),",
     "locked=self.locked,",
     "selfcheck", 10),
    # a relay's pulse and its reveal land in one block, so no clone ever
    # holds an open pulse for a later block to consume: a known hole
    ("NebulaState.pulses shared", "swapgate/nebula.py",
     "self.pulse_count, dict(self.pulses))",
     "self.pulse_count, self.pulses)",
     "selfcheck", 0),
    ("GatewayState.tokens shared", "swapgate/gateway.py",
     "return GatewayState(self.ledger.clone(), dict(self.tokens),",
     "return GatewayState(self.ledger.clone(), self.tokens,",
     "selfcheck", 2),
]

SELFCHECK = """
from swapgate.scenario import Runner
from scenario_gen import reorg_scenario

caught = 0
for seed in range(1, 11):
    try:
        Runner(reorg_scenario(seed)).run()
    except RuntimeError as exc:
        caught += "differing:" in str(exc)
print(caught)
"""

ORACLES = {"selfcheck": SELFCHECK}


def run_oracle(oracle: str, src: Path) -> int | str:
    """The oracle's outcome on the tree at `src`, or its error output."""
    # no bytecode: a mutant and the next one of the same file may share
    # its size and modification time, and so a stale cache entry
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "tests")]))
    done = subprocess.run([sys.executable, "-c", ORACLES[oracle]], env=env,
                          cwd=src, capture_output=True, text=True)
    if done.returncode != 0:
        return done.stderr.strip().splitlines()[-1]
    return int(done.stdout)


def main() -> int:
    failures = 0

    def report(name: str, oracle: str, outcome: int | str,
               expected: int) -> None:
        nonlocal failures
        ok = outcome == expected
        failures += not ok
        print(f"{'ok' if ok else 'FAIL':4}  {name}: {oracle} {outcome} "
              f"(recorded {expected})", flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        for oracle in sorted({entry[4] for entry in MUTANTS}):
            report("unmutated", oracle, run_oracle(oracle, src), 0)
        for name, file, old, new, oracle, expected in MUTANTS:
            path = src / file
            original = path.read_text(encoding="utf-8")
            if original.count(old) != 1:
                failures += 1
                print(f"FAIL  {name}: the old snippet occurs "
                      f"{original.count(old)} times in src/{file}, not once")
                continue
            path.write_text(original.replace(old, new), encoding="utf-8")
            try:
                report(name, oracle, run_oracle(oracle, src), expected)
            finally:
                path.write_text(original, encoding="utf-8")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
