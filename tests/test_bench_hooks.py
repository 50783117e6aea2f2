"""The benchmark's hooks still find what they patch.

perfbench/spans.py wraps callables through `owner.__dict__[attr]`, and
perfbench/measure.py replaces a method on the runner instance it measures.
A rename or a method moved to a base class breaks the traced benchmark
only when it runs; these checks read both files, unchanged, and fail at
once instead.
"""

import ast
import importlib.util
from pathlib import Path

from swapgate import Runner

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
