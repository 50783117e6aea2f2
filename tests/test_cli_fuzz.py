"""The command line fuzzed: a mutated bundled scenario or trace gives an
exit code, never a traceback.

A mutant is a bundled scenario file (also with its roster given by its
count alone), or the trace of a bundled scenario, with one to three values
replaced, deleted or duplicated anywhere in its JSON. A third of the time
the value is drawn among the scalar leaves alone, where one field's value
is what matters, and a third of the time among the integers at a key that
validation bounds, which it replaces by an edge of a bound or an integer
past 64 bits: so a lost or raised bound shows up as a failing example.
`swapgate run` of a scenario mutant exits 0, 1 or 2, and an exit 2 prints
exactly one stderr line; when it exits 0 or 1, `swapgate check` of the
trace it wrote exits with the same code. `swapgate check` of a trace
mutant exits 0, 1 or 2. Each example runs under a wall-clock bound kept by
an interval timer (SIGALRM), which starts no thread or process, so that a
run that never ends fails the example instead of hanging the suite.
"""

import contextlib
import copy
import io
import json
import signal
from functools import cache

import pytest
from hypothesis import given, strategies as st

from swapgate import cli
from swapgate.cli import bundled_scenario_names, load_scenario
from swapgate.scenario import ORACLE_COUNT, STEP_BLOCKS, Runner

# far above any example's run time, which is milliseconds
EXAMPLE_SECONDS = 30

# replacement values: every JSON type, and the edges of the ranges the
# validation bounds (counts, amounts, depths, symbols, branch names)
VALUES = st.one_of(
    st.sampled_from([None, True, False, 0, 1, -1, 1000, 1001, 2**63, 2**64,
                     1.5, "", "T", "swT", "main", "alice", [], {}]),
    st.integers(-3, 1001),
    st.text(max_size=4),
)

# the keys whose integer validation bounds, and the values tried there: the
# edges of each such range and two integers past 64 bits. None lies between
# the upper bounds and 2**63, where a count whose bound is lost would
# allocate gigabytes (["honest"] * count) before it failed.
BOUNDED_KEYS = {"count"}
EDGES = sorted({edge for low, high, _ in (ORACLE_COUNT, STEP_BLOCKS)
                for edge in (low - 1, low, high, high + 1)} | {2**63, 2**64})

# the slots a mutation draws from, by (value, key): every one, the scalar
# leaves, or the integers at a bounded key, which it sets to an edge
AMONG = {
    "any": lambda value, key: True,
    "leaf": lambda value, key: not isinstance(value, (dict, list)),
    "bounded": lambda value, key: key in BOUNDED_KEYS and type(value) is int,
}


@contextlib.contextmanager
def bounded(seconds):
    """Raise TimeoutError in the body once it has run `seconds`."""
    def expire(_signum, _frame):
        raise TimeoutError(f"example still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def cli_exit(*argv):
    """`swapgate *argv` in process, bounded: (exit code, stderr text)."""
    stderr = io.StringIO()
    with bounded(EXAMPLE_SECONDS), contextlib.redirect_stderr(stderr):
        code = cli.main(list(argv))
    return code, stderr.getvalue()


def slots(value, found):
    """Every (container, key) under `value`, depth first."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))
    else:
        return found
    for key, item in items:
        found.append((value, key))
        slots(item, found)
    return found


def mutate(data, doc):
    """Replace, delete or duplicate one to three values of `doc` in place."""
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        found = slots(doc, [])
        if not found:
            return
        among = data.draw(st.sampled_from(list(AMONG)), label="slot among")
        pool = [(container, key) for container, key in found
                if AMONG[among](container[key], key)] or found
        container, key = pool[data.draw(
            st.integers(0, len(pool) - 1), label="slot")]
        if among == "bounded" and AMONG[among](container[key], key):
            container[key] = data.draw(st.sampled_from(EDGES), label="edge")
            continue
        how = data.draw(st.sampled_from(["replace", "delete", "duplicate"]),
                        label="how")
        if how == "replace":
            if data.draw(st.booleans(), label="from the document"):
                other, other_key = found[data.draw(
                    st.integers(0, len(found) - 1), label="source")]
                container[key] = copy.deepcopy(other[other_key])
            else:
                container[key] = data.draw(VALUES, label="value")
        elif how == "delete":
            del container[key]
        elif isinstance(container, list):
            container.insert(key, copy.deepcopy(container[key]))
        else:       # a key occurs once in an object: copy to a sibling key
            sibling = data.draw(st.sampled_from(list(container)),
                                label="sibling")
            container[sibling] = copy.deepcopy(container[key])


@cache
def bundled_documents():
    """Each bundled scenario, and the same with its roster given by its
    count alone, as a scenario file may give it: all honest, at the
    default threshold."""
    documents = {}
    for name in bundled_scenario_names():
        doc = documents[name] = load_scenario(name).to_json()
        documents[f"{name}, oracles by count"] = {
            **doc, "oracles": {"count": doc["oracles"]["count"]}}
    return documents


@cache
def bundled_traces():
    return {name: Runner(load_scenario(name)).run().trace_lines()
            for name in bundled_scenario_names()}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(data=st.data())
def test_mutated_scenario_exits_cleanly(workdir, data):
    name = data.draw(st.sampled_from(sorted(bundled_documents())),
                     label="scenario")
    doc = copy.deepcopy(bundled_documents()[name])
    mutate(data, doc)
    scenario = workdir / "scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    trace = workdir / "trace.jsonl"
    trace.unlink(missing_ok=True)

    code, stderr = cli_exit("run", str(scenario), "--trace", str(trace))
    assert code in (0, 1, 2)
    if code == 2:
        assert stderr.count("\n") == 1 and stderr.endswith("\n"), stderr
    else:
        assert cli_exit("check", str(trace))[0] == code


@given(data=st.data())
def test_mutated_trace_exits_cleanly(workdir, data):
    name = data.draw(st.sampled_from(sorted(bundled_traces())),
                     label="trace of")
    records = [json.loads(line) for line in bundled_traces()[name]]
    mutate(data, records)
    trace = workdir / "mutated.jsonl"
    trace.write_text("".join(json.dumps(r) + "\n" for r in records),
                     encoding="utf-8")
    assert cli_exit("check", str(trace))[0] in (0, 1, 2)
