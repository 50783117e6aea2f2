"""Trace bytes pinned by SHA-256.

The determinism criterion compares two runs with each other; these pins
compare every run with a digest checked in under tests/golden/, so a
refactor that changes a single trace byte fails here. A change that moves
a digest on purpose updates trace_digests.json and says why.

The digest is the SHA-256 of the trace file that `swapgate run --trace`
writes: one canonical JSON record per line, each ending in a newline.

Covered runs: the 12 bundled scenarios, random_happy_scenario seeds 1-5 at
200 swaps, and one adversarial roster of seven oracles with two Byzantine
members (f = 2 < n/3): an equivocator at index 1 and a wrong_receiver at
index 4, both of whose forged payloads compete with the honest quorum.
reorg_scenario seed 3 adds forks on both chains under a Byzantine
minority: orphaned registrations, reverted mints, stuck swaps and their
re-attestation. The regression scenarios under tests/scenarios/ are
pinned too; they are not bundled, so that the benchmark's bundled suite
stays as it is. One of them, rejected_transfers, pins the receipt detail
of rejected locks and burns between accepted ones.
"""

import hashlib
import json
from pathlib import Path

import pytest

from swapgate.cli import bundled_scenario_names, load_scenario
from swapgate.scenario import Runner

from scenario_gen import (adversarial_scenario, random_happy_scenario,
                          reorg_scenario)

HERE = Path(__file__).parent
GOLDEN = json.loads((HERE / "golden" / "trace_digests.json").read_text())
REGRESSION_SCENARIOS = sorted((HERE / "scenarios").glob("*.json"))

ADVERSARIAL_ROSTER = ["honest", "equivocator", "honest", "honest",
                      "wrong_receiver", "honest", "honest"]
RANDOM_SEEDS = range(1, 6)
RANDOM_SWAPS = 200
REORG_SEED = 3


def trace_digest(scenario) -> str:
    result = Runner(scenario).run()
    assert result.exit_code == 0, (result.error, result.violations)
    body = "".join(line + "\n" for line in result.trace_lines())
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def pinned_runs():
    for name in bundled_scenario_names():
        yield f"bundled/{name}", lambda name=name: load_scenario(name)
    for path in REGRESSION_SCENARIOS:
        yield (f"scenarios/{path.stem}",
               lambda path=path: load_scenario(str(path)))
    for seed in RANDOM_SEEDS:
        yield (f"random_happy/seed{seed}_swaps{RANDOM_SWAPS}",
               lambda seed=seed: random_happy_scenario(seed, RANDOM_SWAPS))
    yield ("adversarial/" + "-".join(ADVERSARIAL_ROSTER),
           lambda: adversarial_scenario(ADVERSARIAL_ROSTER))
    yield f"reorg/seed{REORG_SEED}", lambda: reorg_scenario(REORG_SEED)


RUNS = dict(pinned_runs())


def test_every_pinned_run_has_a_digest():
    assert len(RUNS) == 12 + len(REGRESSION_SCENARIOS) + len(RANDOM_SEEDS) + 2
    assert sorted(RUNS) == sorted(GOLDEN)


@pytest.mark.parametrize("key", sorted(RUNS))
def test_trace_digest_is_pinned(key):
    assert trace_digest(RUNS[key]()) == GOLDEN[key], key
