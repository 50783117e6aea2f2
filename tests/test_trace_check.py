"""The one-pass trace check against the multi-pass reference evaluator.

`tests/reference_evaluate.py` keeps the evaluator that built the whole
record list and walked it five times. The streaming one in `swapgate.trace`
must report the very same violations, in the same order, on the Runner's
record list and through `check_trace_text` on the text, for clean traces
and for traces tampered with one fault or several.
"""

import functools
import json
import random
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from swapgate.cli import load_scenario
from swapgate.errors import MalformedTrace
from swapgate import trace
from swapgate.scenario import Runner, Scenario
from swapgate.trace import (
    canonical_block_lists,
    check_trace_text,
    evaluate_records,
    parse_trace,
)

import reference_evaluate as reference
from scenario_gen import random_happy_scenario, reorg_scenario
from test_scenarios import BUNDLED


def trace_text(result) -> str:
    return "".join(line + "\n" for line in result.trace_lines())


def run_text(scenario) -> str:
    return trace_text(Runner(scenario).run())


@functools.lru_cache(maxsize=None)
def base_text(name: str) -> str:
    kind, _, arg = name.partition(":")
    if kind == "happy":
        return run_text(random_happy_scenario(int(arg), 12))
    if kind == "reorg":
        return run_text(reorg_scenario(int(arg), 30))
    return run_text(load_scenario(name))


def assert_agrees(records: list[dict], text: str) -> list[dict]:
    """Both evaluators agree on the records and on the text, and both
    canonical walks on the records; returns the violations."""
    expected = reference.evaluate_records(records)
    assert evaluate_records(records) == expected
    assert canonical_block_lists(records) == \
        reference.canonical_block_lists(records)
    assert reference.evaluate_records(reference.parse_trace(text)) == expected
    assert check_trace_text(text) == ((1 if expected else 0), expected)
    return expected


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_agree(name):
    result = Runner(load_scenario(name)).run()
    assert evaluate_records(result.records[:-1]) == \
        reference.evaluate_records(result.records[:-1]) == []
    assert_agrees(result.records, trace_text(result))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_scenarios_agree(seed):
    for scenario in (random_happy_scenario(seed, 40), reorg_scenario(seed, 60)):
        result = Runner(scenario).run()
        assert_agrees(result.records, trace_text(result))


def test_header_only_trace_agrees():
    """With no block and no canonical section, each chain's walk is its
    genesis block alone."""
    records = [reference.parse_trace(base_text("happy_path"))[0], {"op": "end"}]
    text = "".join(json.dumps(r) + "\n" for r in records)
    assert assert_agrees(records, text) == []
    chains, _ = canonical_block_lists(records)
    assert sorted(chains) == [0, 1]


# --- tampering ---------------------------------------------------------------
# Each tamper edits freshly parsed records in place, picks its target with
# `rng`, and returns the invariant it must make the reference report.


def all_blocks(records):
    return [block for record in records for block in record.get("blocks", [])]


def canonical_blocks(records):
    chains, _ = reference.canonical_block_lists(records)
    return [block for blocks in chains.values() for block in blocks[1:]]


def break_conservation(records, rng):
    accountings = [rng.choice([b for b in all_blocks(records)
                               if b["accounting"]])["accounting"]]
    if rng.random() < 0.5:
        # the genesis too: it is reported after every other block
        accountings.append(rng.choice([
            info["accounting"] for _, info in
            sorted(records[0]["genesis"].items()) if info["accounting"]]))
    for accounting in accountings:
        accounting[rng.choice(sorted(accounting))]["supply"] += 1
    return "conservation"


def double_execution(records, rng):
    executing = [b for b in canonical_blocks(records) if any(
        e["kind"] in reference.EXECUTION_EVENT_KINDS for e in b["events"])]
    # every execution of up to two blocks, so that several swaps are doubled
    for block in rng.sample(executing, min(2, len(executing))):
        block["events"] += [dict(e) for e in block["events"]
                            if e["kind"] in reference.EXECUTION_EVENT_KINDS]
    return "exactly_once"


def illegal_transition(records, rng):
    transition = rng.choice([t for r in records if r["op"] == "tick"
                             for t in r["transitions"] if not t["revert"]])
    if rng.random() < 0.5:
        # a status the swap never had
        transition["from"] = "finalized"
    else:
        transition["to"] = {None: "processed", "registered": "finalized",
                            "processed": "registered"}[transition["from"]]
    return "status_machine"


def insert_revert(records, rng, finalizing, to):
    """A revert right after a transition, retracting the status it set."""
    tick = rng.choice([r for r in records if r["op"] == "tick" and any(
        not t["revert"] and (t["to"] == "finalized") == finalizing
        for t in r["transitions"])])
    transitions = tick["transitions"]
    index = rng.choice([i for i, t in enumerate(transitions)
                        if not t["revert"]
                        and (t["to"] == "finalized") == finalizing])
    done = transitions[index]
    transitions.insert(index + 1, {
        "chain": done["chain"], "from": done["to"], "reason": "tampered",
        "revert": True, "swap_id": done["swap_id"], "to": to})
    return "status_machine"


def retract_finalized(records, rng):
    return insert_revert(records, rng, True, None)


def revert_to_processed(records, rng):
    return insert_revert(records, rng, False, "processed")


def fail_assert(records, rng):
    asserts = [r for r in records if r["op"] == "assert"]
    if asserts:
        record = rng.choice(asserts)
    else:
        record = {"op": "assert", "step": 999, "check": "supply"}
        records.insert(len(records) - 1, record)
    record["ok"], record["detail"] = False, "tampered"
    return "assertion"


def submitters(records):
    """step -> (kind, chain) of each tx a user or relay_round record
    submitted."""
    out = {}
    for record in records:
        if record["op"] in ("user_lock", "user_burn"):
            out[record["step"]] = (record["op"][len("user_"):],
                                   record["tx"]["chain"])
        elif record["op"] == "relay_round" \
                and record["report"]["outcome"] == "submitted":
            out[record["step"]] = ("send_data", record["report"]["target"])
    return out


def receipts_of(records, kinds):
    """(block chain, tx) of each receipt of a tx of one of `kinds`."""
    return [(block["chain"], receipt["tx"]) for block in all_blocks(records)
            for receipt in block["txs"] if receipt["tx"]["kind"] in kinds]


def unsubmitted_steps(records, kind, chain):
    """The steps of the records that submitted no tx of `kind` to `chain`."""
    named = submitters(records)
    return [r["step"] for r in records
            if "step" in r and named.get(r["step"]) != (kind, chain)]


# each reference tamper leaves its reference broken, whether it was sound
# or already broken by an earlier pick


def dangling_user_ref(records, rng):
    chain, tx = rng.choice(receipts_of(records, ("lock", "burn")))
    other = {"lock": "burn", "burn": "lock"}[tx["kind"]]
    if rng.random() < 0.5 and \
            submitters(records).get(tx["step"]) != (other, chain):
        # the kind the step's record did not submit: the wrong kind
        tx["kind"] = other
    else:
        tx["step"] = rng.choice(unsubmitted_steps(records, tx["kind"], chain))
    return "tx_reference"


def dangling_round_ref(records, rng):
    chain, tx = rng.choice(receipts_of(records, ("send_data",)))
    tx["round"] = rng.choice(unsubmitted_steps(records, "send_data", chain))
    return "tx_reference"


def unback_wrapped_supply(records, rng):
    # a wrapped token (swT in the bundled bases) minted beyond what the
    # origin locks, in one canonical section, with its holdings raised
    # alike so that the section still conserves
    acct = rng.choice([
        acct for r in records if "canonical" in r
        for symbol, acct in r["canonical"]["1"]["accounting"].items()
        if symbol.startswith("sw")])
    acct["supply"] += 10**6
    acct["balances_sum"] += 10**6
    return "backing"


def drop_block(records, rng):
    # a block with no tx, so no execution or reference, and no
    # conservation fault, so that the other tampers' faults stay in the
    # trace
    gone = rng.choice([
        b for b in canonical_blocks(records) if not b["txs"]
        and all(a["supply"] == a["locked"] + a["balances_sum"]
                for a in b["accounting"].values())])["hash"]
    for record in records:
        if "blocks" in record:
            record["blocks"] = [b for b in record["blocks"] if b["hash"] != gone]
    return "block_linkage"


def self_parent(records, rng):
    # a canonical block names itself as its parent
    block = rng.choice(canonical_blocks(records))
    block["parent"] = block["hash"]
    return "block_linkage"


def parent_cycle(records, rng):
    # a canonical block names its child as its parent: a cycle of two
    chains, _ = reference.canonical_block_lists(records)
    lower, upper = rng.choice([pair for blocks in chains.values()
                               for pair in zip(blocks[1:], blocks[2:])])
    lower["parent"] = upper["hash"]
    return "block_linkage"


# tampers run in this order: a revert picks a transition that
# illegal_transition may change, and each cut ends the canonical walk that
# the tampers before it pick from
CUTS = [drop_block, self_parent, parent_cycle]
TAMPERS = [break_conservation, double_execution, retract_finalized,
           revert_to_processed, illegal_transition, fail_assert,
           dangling_user_ref, dangling_round_ref, unback_wrapped_supply, *CUTS]
BASES = ["happy_path", "round_trip", "reorg_before_conf", "happy:5",
         "reorg:4"]


def tampered(name, tampers, rng):
    records = reference.parse_trace(base_text(name))
    invariants = {tamper(records, rng) for tamper in tampers}
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    return records, text, invariants


@pytest.mark.parametrize("tamper", TAMPERS, ids=lambda t: t.__name__)
@pytest.mark.parametrize("name", BASES)
def test_one_fault_agrees(name, tamper):
    for seed in range(3):
        records, text, invariants = tampered(name, [tamper], random.Random(seed))
        reported = {v["invariant"] for v in assert_agrees(records, text)}
        assert invariants <= reported


@pytest.mark.parametrize("name", BASES)
def test_several_faults_agree(name):
    faults = TAMPERS[:-len(CUTS)]
    for seed in range(8):
        rng = random.Random(seed)
        chosen = rng.sample(faults, rng.randint(1, len(faults)))
        chosen.append(rng.choice(faults))
        chosen.sort(key=TAMPERS.index)
        # one cut at most, and last, after the others have picked
        cut = rng.choice([None, *CUTS])
        if cut:
            chosen.append(cut)
        records, text, invariants = tampered(name, chosen, rng)
        if cut:
            # the walk stops at the cut, so no execution below it counts
            invariants.discard("exactly_once")
        reported = {v["invariant"] for v in assert_agrees(records, text)}
        assert invariants <= reported


@pytest.mark.parametrize("tamper,detail", [
    (retract_finalized, "finalized status retracted"),
    (revert_to_processed, "revert to unexpected status processed"),
])
def test_revert_tampers_are_named(tamper, detail):
    records, text, _ = tampered("happy_path", [tamper], random.Random(0))
    [violation] = assert_agrees(records, text)
    assert violation["invariant"] == "status_machine"
    assert violation["detail"].endswith(detail)


@pytest.mark.parametrize("tamper,named", [
    (dangling_user_ref, "(lock|burn) tx names step"),
    (dangling_round_ref, "(send_data) tx names round"),
])
def test_reference_tampers_are_named(tamper, named):
    """happy_path's one lock and one reveal, each referring to a record
    that submitted no such tx to its block's chain."""
    for seed in range(3):
        records, text, _ = tampered("happy_path", [tamper], random.Random(seed))
        [violation] = assert_agrees(records, text)
        assert violation["invariant"] == "tx_reference"
        assert re.search(rf": {named} \d+, but no earlier record at that "
                         rf"step submitted a \1 tx to this chain$",
                         violation["detail"])


def test_backing_tamper_is_named():
    """happy_path's one mint, raised in one canonical section beyond the
    origin's lock, its holdings alike: backing is broken, and nothing
    else."""
    for seed in range(3):
        records, text, _ = tampered("happy_path", [unback_wrapped_supply],
                                    random.Random(seed))
        [violation] = assert_agrees(records, text)
        assert violation["invariant"] == "backing"
        assert re.search(r": swT supply 1000100 > locked 100 of T at origin "
                         r"tip [0-9a-f]{16}, destination tip [0-9a-f]{16}$",
                         violation["detail"])


@pytest.mark.parametrize("version", [None, 1, 3, "2"])
def test_a_trace_of_another_format_is_malformed(version):
    """A run's text with the header's format removed, as the traces
    written before it was added, or set to another one."""
    records = reference.parse_trace(base_text("happy_path"))
    if version is None:
        del records[0]["format"]
    else:
        records[0]["format"] = version
    text = "".join(json.dumps(r) + "\n" for r in records)
    message = (f"trace format {version!r} in the header, expected "
               f"{trace.TRACE_FORMAT}")
    for read in (check_trace_text, reference.parse_trace):
        with pytest.raises(MalformedTrace) as raised:
            read(text)
        assert str(raised.value) == message


def test_forged_quorum_fails_no_forged_accepted():
    """Two of three oracles double every amount and meet threshold 2, so
    their forged payload is delivered and minted: both evaluators report
    the wrapped supply the lock does not back, and the assertion, which
    names the forged pulse."""
    scenario = load_scenario("happy_path").to_json()
    scenario["oracles"] = {"count": 3, "threshold": 2, "behaviors": [
        "honest", "wrong_amount", "wrong_amount"]}
    scenario["timeline"] = [
        {"op": "user_lock", "sender": "alice", "token": "T", "amount": 100,
         "receiver": "bob"},
        {"op": "produce_block", "chain": 0, "count": 7},
        {"op": "relay_round", "source": 0, "target": 1},
        {"op": "produce_block", "chain": 1},
        {"op": "assert", "check": "no_forged_accepted"},
    ]
    result = Runner(Scenario.from_json(scenario)).run()
    assert result.exit_code == 1
    backing, assertion = assert_agrees(result.records, trace_text(result))
    assert backing["invariant"] == "backing"
    assert backing["detail"].startswith("step 3: swT supply 200 > locked 100 ")
    assert assertion["invariant"] == "assertion"
    assert assertion["detail"] == ("step 4: no_forged_accepted failed: "
                                   "forged pulse 1 accepted on chain 1")


def test_compromised_committee_breaks_backing_in_run_and_check():
    """byzantine_minority with threshold 3 and its asserts stripped: the
    three oracles that double every amount meet the threshold alone, which
    the paper's trust assumption excludes but validation accepts. Nothing
    is asserted, yet the run and the check both fail with the same backing
    violation."""
    scenario = load_scenario("byzantine_minority").to_json()
    scenario["oracles"]["threshold"] = 3
    scenario["timeline"] = [step for step in scenario["timeline"]
                            if step["op"] != "assert"]
    result = Runner(Scenario.from_json(scenario)).run()
    assert result.exit_code == 1
    [violation] = result.violations
    assert violation["invariant"] == "backing"
    assert violation["detail"].startswith("step 3: swT supply 200 > locked 100 ")
    assert assert_agrees(result.records, trace_text(result)) == \
        result.violations


def test_self_parent_block_at_the_tip_is_named():
    """A block recorded as its own parent, made the final tip: the walk
    stops at it instead of going round for ever."""
    records = reference.parse_trace(base_text("happy_path"))
    tip = records[-1]["canonical"]["0"]
    loop = "ab" * 32
    records[-1]["blocks"] = [{"chain": 0, "hash": loop, "parent": loop,
                              "height": tip["height"] + 1}]
    tip["tip"] = loop
    text = "".join(json.dumps(r) + "\n" for r in records)
    [violation] = assert_agrees(records, text)
    assert violation == {
        "invariant": "block_linkage",
        "detail": f"chain 0: block {loop} at height {tip['height'] + 1} "
                  f"has parent {loop} at height {tip['height'] + 1}"}


def test_malformed_event_in_an_orphaned_block_is_malformed():
    """Every block's events are read as the block arrives, so a malformed
    one is found off the canonical branch too; the multi-pass check read
    the events of canonical blocks only, and passed this trace."""
    records = reference.parse_trace(base_text("reorg_before_conf"))
    chains, _ = reference.canonical_block_lists(records)
    canonical = {b["hash"] for blocks in chains.values() for b in blocks}
    orphan = next(b for b in all_blocks(records) if b["hash"] not in canonical)
    orphan["events"].append({"swap_id": None})
    text = "".join(json.dumps(r) + "\n" for r in records)
    assert reference.evaluate_records(records) == []
    with pytest.raises(MalformedTrace, match="KeyError\\('kind'\\)"):
        check_trace_text(text)


def test_first_fault_in_file_order_is_reported():
    """A record lacking a field comes before a later unparsable line; the
    multi-pass check parsed every line first and named the later fault."""
    records = reference.parse_trace(base_text("happy_path"))
    del all_blocks(records)[0]["hash"]
    lines = [json.dumps(r) for r in records]
    lines[-2] = lines[-2][:-1]
    text = "\n".join(lines) + "\n"
    with pytest.raises(MalformedTrace, match=f"line {len(lines) - 1}:"):
        reference.parse_trace(text)
    with pytest.raises(MalformedTrace, match="KeyError\\('hash'\\)"):
        check_trace_text(text)


# --- the reader ----------------------------------------------------------------

BOUNDARIES = ["\n", "\r\n", "\r", "\n\n", "\x0b", "\x0c", "\x1c", "\x85",
              " ", "\r\r\n", "\n  \n"]

# what a fault makes of the line it hits: cut short (not JSON), JSON that is
# not an object, an object with no `op`, or a record other than the header
# (a fault only as the first record, or as the last, which must be `end`)
FAULTS = {"cut": lambda line: line[:-1], "not_an_object": lambda _: '"op"',
          "no_op": lambda _: '{"x": 1}',
          "not_the_header": lambda _: '{"op": "tick"}'}


@example(seps=["\n\n", "\r\n", "\x85"], bad=3, trailing="\n", chunk=1,
         fault="cut")
@example(seps=["\n", "\r\n"], bad=1, trailing="\n", chunk=7,
         fault="not_an_object")
@example(seps=["\n", "\n"], bad=1, trailing="", chunk=3, fault="no_op")
@example(seps=["\r\n", "\n"], bad=0, trailing="", chunk=5,
         fault="not_the_header")
@given(seps=st.lists(st.sampled_from(BOUNDARIES), min_size=1, max_size=40),
       bad=st.one_of(st.none(), st.integers(0, 40)),
       trailing=st.sampled_from(["", "\n", "\r\n", "\n\n"]),
       chunk=st.integers(1, 4000), fault=st.sampled_from(sorted(FAULTS)))
def test_reader_numbers_lines_as_the_reference(seps, bad, trailing, chunk,
                                               fault):
    """Any mix of line boundaries and blank lines, split into chunks of any
    size, at line ends (a text) or anywhere (a file read a chunk at a time):
    the records agree, or the one fault is reported with the same line
    number."""
    lines = base_text("happy_path").splitlines()
    lines = lines[:len(seps)] + lines[-1:] if len(seps) < len(lines) else lines
    if bad is not None and bad < len(lines):
        lines[bad] = FAULTS[fault](lines[bad])
    text = "".join(line + sep for line, sep in zip(lines, seps + ["\n"] * len(lines)))
    text = text.rstrip("\n") + trailing
    cut = [text[i:i + chunk] for i in range(0, len(text), chunk)]
    readers = [lambda: parse_trace(text), lambda: list(trace.iter_trace(cut))]
    with mock.patch.object(trace, "_CHUNK", chunk):
        try:
            expected = reference.parse_trace(text)
        except MalformedTrace as exc:
            for read in readers:
                with pytest.raises(MalformedTrace) as raised:
                    read()
                assert str(raised.value) == str(exc)
        else:
            for read in readers:
                assert read() == expected


def test_check_memory_stays_below_three_times_the_trace():
    """The check keeps a few fields per block, not the parsed records; the
    multi-pass check peaked at about 5.4 times the text."""
    text = run_text(random_happy_scenario(1, 200))
    tracemalloc.start()
    try:
        assert check_trace_text(text) == (0, [])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(text)
