"""The benchmark's hooks still find what they patch.

perfbench/spans.py wraps callables through `owner.__dict__[attr]`, and
perfbench/measure.py replaces a method on the runner instance it measures.
A rename or a method moved to a base class breaks the traced benchmark
only when it runs; these checks read both files, unchanged, and fail at
once instead. The counter hooks read state fields (`.pulses`, `.swaps`,
`.last_reorg`), so they are also run once over two bundled scenarios.
"""

import ast
import importlib.util
from pathlib import Path

from swapgate import Runner
from swapgate.cli import load_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
