"""A run makes no reference cycles, and it pauses the cyclic collector for
its length (Runner.run).

Reference counting frees everything a run drops only while the run builds
trees. A change that adds a cycle fails here, instead of quietly holding
memory until the run ends: mend the cycle, do not loosen the test.
"""

import gc
from pathlib import Path

import pytest

from swapgate.cli import bundled_scenario_names, load_scenario
from swapgate.scenario import Runner, Scenario

from scenario_gen import random_happy_scenario, reorg_scenario

SCENARIO_DIR = Path(__file__).parent / "scenarios"
UNFINAL = SCENARIO_DIR / "failing" / "unfinal_lock_reorged.json"


def deep_fork() -> Scenario:
    """happy_path with an origin fork below the final height, which the
    chain refuses with BeyondFinality: the run exits 2."""
    scenario = load_scenario("happy_path").to_json()
    scenario["timeline"] = [
        {"op": "user_lock", "sender": "alice", "token": "T", "amount": 10,
         "receiver": "bob"},
        {"op": "produce_block", "chain": 0, "count": 10},
        {"op": "fork_at", "chain": 0, "height": 1, "name": "deep"},
    ]
    return Scenario.from_json(scenario)


# id -> (the scenario, built on demand, and the run's exit code)
CASES = {
    **{name: (lambda name=name: load_scenario(name), 0)
       for name in bundled_scenario_names()},
    **{path.relative_to(SCENARIO_DIR).as_posix():
       (lambda path=path: Scenario.load(path), 1 if path == UNFINAL else 0)
       for path in sorted(SCENARIO_DIR.glob("**/*.json"))},
    "happy_200": (lambda: random_happy_scenario(1, 200), 0),
    "reorg_1_40": (lambda: reorg_scenario(1, 40), 0),
    "reorg_3": (lambda: reorg_scenario(3), 0),
    "deep_fork": (deep_fork, 2),
}


@pytest.fixture
def collector():
    """Gives the collector back as the test found it, whatever the test
    turned it to."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("name", CASES)
def test_run_leaves_nothing_for_the_collector(name, collector):
    make, exit_code = CASES[name]
    scenario = make()
    gc.disable()
    gc.collect()
    runner = Runner(scenario)
    result = runner.run()
    assert result.exit_code == exit_code, (result.error, result.violations)
    del runner, result
    assert gc.collect() == 0


def fails_in_a_step(self, index, step):
    raise RuntimeError("a step failed")


# id -> (the scenario, built on demand, and the run's exit code, or None
# for a run whose first step raises)
ENDINGS = {
    "exit_0": (lambda: load_scenario("happy_path"), 0),
    "exit_1": (lambda: Scenario.load(UNFINAL), 1),
    "exit_2": (deep_fork, 2),
    "raises": (lambda: load_scenario("happy_path"), None),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("ending", ENDINGS)
def test_run_gives_the_collector_back(ending, enabled, collector,
                                      monkeypatch):
    make, exit_code = ENDINGS[ending]
    scenario = make()
    if enabled:
        gc.enable()
    else:
        gc.disable()
    if exit_code is None:
        monkeypatch.setattr(Runner, "_execute_step", fails_in_a_step)
        with pytest.raises(RuntimeError, match="a step failed"):
            Runner(scenario).run()
    else:
        assert Runner(scenario).run().exit_code == exit_code
    assert gc.isenabled() is enabled


def test_a_step_runs_with_the_collector_paused(collector, monkeypatch):
    seen = []
    execute = Runner._execute_step

    def watched(self, index, step):
        seen.append(gc.isenabled())
        execute(self, index, step)

    monkeypatch.setattr(Runner, "_execute_step", watched)
    gc.enable()
    assert Runner(load_scenario("happy_path")).run().exit_code == 0
    assert seen and not any(seen)
