"""The benchmark's hooks still find what they patch.

perfbench/spans.py wraps callables through `owner.__dict__[attr]`, and
perfbench/measure.py replaces a method on the runner instance it measures.
A rename or a method moved to a base class breaks the traced benchmark
only when it runs; these checks read both files, unchanged, and fail at
once instead. The counter hooks read state fields (`.pulses`, `.swaps`,
`.last_reorg`), so they are also run once over two bundled scenarios.
perfbench/measure.py reads its swap and tx facts back from trace fields,
so `facts()` runs over two runs' records too: a format change that drops
a field it reads fails here.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

from swapgate import Runner
from swapgate.cli import load_scenario

from scenario_gen import reorg_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    """perfbench/<name>.py, unchanged, as its own module; registered
    before it runs, as its dataclasses need."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_perfbench("spans")


def test_every_span_target_is_defined_on_its_owner():
    spans = load_spans()
    targets = spans._targets(spans.Recorder())
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in targets
               if not callable(owner.__dict__.get(attr))]
    assert missing == []


def test_runner_defines_the_methods_measure_replaces():
    tree = ast.parse((PERFBENCH / "measure.py").read_text())
    replaced = {target.attr for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                for target in node.targets
                if isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "runner"}
    assert "_execute_step" in replaced
    assert all(callable(Runner.__dict__.get(attr)) for attr in replaced)


def bench_counter_names() -> tuple[list[str], list[str]]:
    """The call counts and the counters that bench.py's `exact_counts`
    reads from a recorder: its CALL_COUNTS and SPAN_COUNTS lists and every
    `recorder.counts["..."]` it reads by name."""
    tree = ast.parse((PERFBENCH / "bench.py").read_text())
    lists = {node.targets[0].id: ast.literal_eval(node.value)
             for node in tree.body if isinstance(node, ast.Assign)
             and isinstance(node.targets[0], ast.Name)
             and node.targets[0].id in ("CALL_COUNTS", "SPAN_COUNTS")}
    by_name = {node.slice.value for node in ast.walk(tree)
               if isinstance(node, ast.Subscript)
               and isinstance(node.value, ast.Attribute)
               and node.value.attr == "counts"
               and isinstance(node.slice, ast.Constant)}
    return lists["CALL_COUNTS"], lists["SPAN_COUNTS"] + sorted(by_name)


def test_every_counter_the_benchmark_reads_is_recorded():
    """The hooks run against the live classes over a run with a reorg and
    one with a replaying oracle. Every counter bench.py reads must then be
    recorded, zero included."""
    spans = load_spans()
    calls, counters = bench_counter_names()
    assert "nebula.clone.pulses_copied" in counters
    recorder = spans.Recorder()
    with spans.installed(recorder):
        for name in ("reorg_before_conf", "byzantine_replayer"):
            assert Runner(load_scenario(name)).run().exit_code == 0
    assert [name for name in calls if name not in recorder.calls] == []
    assert [name for name in counters if name not in recorder.counts] == []


@pytest.mark.parametrize("make, executed, pulses, applied", [
    (lambda: load_scenario("happy_path"), 1, 1, 3),
    (lambda: reorg_scenario(1, 20), 33, 18, 80),
], ids=["happy_path", "reorg_scenario"])
def test_measure_facts_read_the_trace(make, executed, pulses, applied):
    """The swaps executed, the tx counters by kind and status, and the
    latencies that measure.facts() reads from a run's records; every tx
    of both runs is applied, and each submitted round's pulse and reveal
    accepted."""
    facts = load_perfbench("measure").facts
    scenario = make()
    result = Runner(scenario).run()
    assert result.exit_code == 0
    found = facts(result.records, scenario.timeline)
    assert found["executed"] == executed
    counts = found["counts"]
    for kind in ("pulse", "reveal"):
        assert counts[f"nebula.{kind}.txs"] == pulses
        assert counts[f"nebula.{kind}.accepted"] == pulses
    assert counts["chain.tx.applied"] == applied
    assert not any(name.startswith("chain.tx.rejected.") for name in counts)
    assert len(found["latencies"]) == executed
