"""Bundled and regression scenarios, trace determinism, the check command,
CLI surface."""

import json
import copy
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import swapgate
from swapgate import cli
from swapgate.cli import bundled_scenario_names, load_scenario, main
from swapgate.crypto import canonical_json, parse_json
from swapgate.errors import InvalidScenario, MalformedTrace
from swapgate.scenario import Runner, Scenario
from swapgate.trace import check_trace_text, parse_trace

import reference_evaluate as reference
from scenario_gen import random_happy_scenario, reorg_scenario

BUNDLED = [
    "happy_path", "reverse_path", "round_trip", "byzantine_minority",
    "byzantine_wrong_receiver", "byzantine_silent", "byzantine_replayer",
    "byzantine_equivocator", "equivocation", "reorg_before_conf",
    "stuck_swap_recovery", "replay_attack",
]


SCENARIO_DIR = Path(__file__).parent / "scenarios"
REGRESSION_SCENARIOS = sorted(SCENARIO_DIR.glob("*.json"))


def run_bundled(name, seed=None):
    return Runner(load_scenario(name), seed=seed).run()


def test_bundle_is_complete():
    assert set(bundled_scenario_names()) == set(BUNDLED)


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenario_passes(name):
    result = run_bundled(name)
    assert result.exit_code == 0, result.violations


@pytest.mark.parametrize("name", BUNDLED)
def test_replay_determinism(name):
    first = run_bundled(name)
    second = run_bundled(name)
    assert "\n".join(first.trace_lines()) == "\n".join(second.trace_lines())


def test_seed_override_changes_oracle_keys_not_verdict():
    base = run_bundled("happy_path")
    reseeded = run_bundled("happy_path", seed=999)
    assert reseeded.exit_code == 0
    assert base.trace_lines() != reseeded.trace_lines()
    again = run_bundled("happy_path", seed=999)
    assert reseeded.trace_lines() == again.trace_lines()


@pytest.mark.parametrize("name", BUNDLED)
def test_check_agrees_with_run(name):
    result = run_bundled(name)
    text = "\n".join(result.trace_lines()) + "\n"
    exit_code, violations = check_trace_text(text)
    assert exit_code == result.exit_code
    assert violations == []


@pytest.mark.parametrize("path", REGRESSION_SCENARIOS, ids=lambda p: p.stem)
def test_regression_scenario_passes_and_checks(path):
    result = Runner(load_scenario(str(path))).run()
    assert result.exit_code == 0, result.violations
    text = "\n".join(result.trace_lines()) + "\n"
    assert check_trace_text(text) == (0, [])


def test_unfinal_lock_reorged_pins_the_unsafe_depth_hole():
    """A known hole, pinned and not fixed: with confirmation depth 2 below
    finality depth 3, a lock is relayed, minted and finalized while a legal
    origin reorg can still orphan it. The run and the check both fail with
    exactly a wrapped supply the origin no longer backs, once, at the tips
    of the reorg's step; a retracted finalized status; and the scenario's
    own backing assert."""
    path = SCENARIO_DIR / "failing" / "unfinal_lock_reorged.json"
    result = Runner(load_scenario(str(path))).run()
    assert result.exit_code == 1
    [tips] = [r["canonical"] for r in result.records if r.get("step") == 7]
    assert [(v["invariant"], v["detail"].split(": ", 1)[1])
            for v in result.violations] == [
        ("backing", f"swT supply 100 > locked 0 of T at origin tip "
                    f"{tips['0']['tip'][:16]}, destination tip "
                    f"{tips['1']['tip'][:16]}"),
        ("status_machine", "finalized status retracted"),
        ("assertion", "backing failed: locked 0 vs wrapped supply 100"),
    ]
    text = "\n".join(result.trace_lines()) + "\n"
    assert check_trace_text(text) == (1, result.violations)
    assert reference.evaluate_records(reference.parse_trace(text)) == \
        result.violations


def test_check_flags_duplicate_execution(tmp_path):
    result = run_bundled("happy_path")
    records = [copy.deepcopy(r) for r in result.records]
    for record in records:
        for block in record.get("blocks", []):
            mints = [e for e in block["events"] if e["kind"] == "MintExecuted"]
            if mints:
                block["events"].append(copy.deepcopy(mints[0]))
                break
    text = "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
    exit_code, violations = check_trace_text(text)
    assert exit_code == 1
    assert any(v["invariant"] == "exactly_once" for v in violations)


def test_check_flags_conservation_tampering():
    result = run_bundled("happy_path")
    records = [copy.deepcopy(r) for r in result.records]
    for record in records:
        for block in record.get("blocks", []):
            if block["accounting"].get("swT"):
                block["accounting"]["swT"]["supply"] += 1
    text = "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
    exit_code, violations = check_trace_text(text)
    assert exit_code == 1
    assert any(v["invariant"] == "conservation" for v in violations)


def test_truncated_trace_is_malformed():
    result = run_bundled("happy_path")
    lines = result.trace_lines()
    with pytest.raises(MalformedTrace):
        parse_trace("\n".join(lines[:-1]))
    with pytest.raises(MalformedTrace):
        parse_trace(lines[0][: len(lines[0]) // 2])
    with pytest.raises(MalformedTrace):
        parse_trace("")


def test_fork_deeper_than_finality_is_invalid_scenario():
    scenario = load_scenario("happy_path").to_json()
    scenario["name"] = "deep_fork"
    scenario["timeline"] = [
        {"op": "user_lock", "sender": "alice", "token": "T", "amount": 10,
         "receiver": "bob"},
        {"op": "produce_block", "chain": 0, "count": 10},
        {"op": "fork_at", "chain": 0, "height": 1, "name": "deep"},
    ]
    result = Runner(Scenario.from_json(scenario)).run()
    assert result.exit_code == 2
    assert "finality depth" in result.error


def stale_branch_overtakes(main_height):
    """happy_path's chains (finality depth 6), with an origin branch forked
    at genesis 6 below the tip. The main branch then grows to
    `main_height`, and the fork overtakes it, abandoning every main block."""
    scenario = load_scenario("happy_path").to_json()
    timeline = [
        {"op": "user_lock", "sender": "alice", "token": "T", "amount": 10,
         "receiver": "bob"},
        {"op": "produce_block", "chain": 0, "count": 6},
        {"op": "fork_at", "chain": 0, "height": 0, "name": "late"},
    ]
    if main_height > 6:
        timeline.append({"op": "produce_block", "chain": 0,
                         "count": main_height - 6})
    timeline.append({"op": "extend_branch", "chain": 0, "branch": "late",
                     "count": main_height + 1})
    scenario["timeline"] = timeline
    return Runner(Scenario.from_json(scenario)).run()


def test_reorg_deeper_than_finality_is_invalid_scenario():
    result = stale_branch_overtakes(7)
    assert result.exit_code == 2
    assert "finality depth" in result.error


def test_reorg_at_finality_depth_runs():
    result = stale_branch_overtakes(6)
    assert result.exit_code == 0, result.error
    reorgs = [r["reorg"] for r in result.records if r.get("reorg")]
    assert [r["abandoned_depth"] for r in reorgs] == [6]


@pytest.mark.parametrize("scenario", [
    random_happy_scenario(seed=1, swaps=200),
    reorg_scenario(seed=1, rounds=200),
], ids=["happy", "reorg"])
def test_chains_keep_only_states_a_reorg_can_reach(scenario):
    """Memory guard: a long run keeps genesis and the blocks at or above
    the final height. The happy run kept 156 and 108 states before the
    canonical ones below the depth were dropped, and the reorg run kept 56
    and 77 while it still kept every orphaned block."""
    runner = Runner(scenario)
    result = runner.run()
    assert result.exit_code == 0, result.violations
    for cid, chain in runner.chains.items():
        depth = scenario.chains[cid].finality_depth
        assert len(chain.states) <= depth + 2, cid


def test_fork_beyond_tip_is_invalid_scenario():
    scenario = load_scenario("happy_path").to_json()
    scenario["timeline"] = [
        {"op": "fork_at", "chain": 0, "height": 3, "name": "ahead"},
    ]
    result = Runner(Scenario.from_json(scenario)).run()
    assert result.exit_code == 2


@pytest.mark.parametrize("mutate, message", [
    (lambda s: s.update(chains=[{}]), "exactly two chains"),
    (lambda s: s["oracles"].update(behaviors=["honest"] * 4 + ["bogus"]),
     "unknown oracle behavior"),
    (lambda s: s["oracles"].update(threshold=9), "threshold"),
    (lambda s: s.update(tokens=["swX"]), "wrapped prefix"),
    (lambda s: s.update(tokens=[]), "at least one token"),
    (lambda s: s["balances"].append({"token": "NOPE", "amount": 5,
                                     "account": "x"}), "unknown token"),
    (lambda s: s["timeline"].append({"op": "warp"}), "unknown op"),
    (lambda s: s["timeline"].append({"op": "relay_round", "source": 0,
                                     "target": 0}), "relay direction"),
    (lambda s: s["timeline"].append({"op": "extend_branch", "chain": 0,
                                     "branch": "ghost", "count": 1}),
     "unknown branch"),
    (lambda s: s["timeline"].append({"op": "assert", "check": "status",
                                     "swap": 99, "expect": "registered"}),
     "swap index"),
    (lambda s: s["chains"][0].update(recovery_timeout=5), "recovery timeout"),
    (lambda s: s["chains"][1].update(relevance_window=6, finality_depth=6),
     "chain 1: relevance window must exceed finality depth"),
    (lambda s: s["chains"][0].update(finality_dept=1),
     "chain 0: unknown key 'finality_dept'"),
])
def test_invalid_scenarios_rejected(mutate, message):
    scenario = load_scenario("happy_path").to_json()
    mutate(scenario)
    with pytest.raises(InvalidScenario, match=message):
        Scenario.from_json(scenario)


def test_canonical_json_is_json_dumps_of_every_record():
    """canonical_json writes the bytes of json.dumps, and parse_json reads
    each line as json.loads does, for every record of the bundled
    scenarios, the regression scenarios and two generated ones, also for a
    record whose block and canonical sections share one accounting dict
    (the Runner computes it once per state). rejected_transfers holds
    amounts of 2**64, which orjson refuses to write, so the stdlib
    fallback runs inside a real run."""
    scenarios = ([load_scenario(name) for name in BUNDLED]
                 + [Scenario.load(path) for path in REGRESSION_SCENARIOS]
                 + [random_happy_scenario(seed=2), reorg_scenario(seed=2)])
    shared = refused = 0
    for scenario in scenarios:
        for record in Runner(scenario).run().records:
            line = canonical_json(record)
            assert line == json.dumps(record, sort_keys=True,
                                      separators=(",", ":"))
            assert repr(parse_json(line)) == repr(json.loads(line))
            refused += "18446744073709551616" in line
            for block in record.get("blocks", []):
                canonical = record["canonical"][str(block["chain"])]
                shared += block["accounting"] is canonical["accounting"]
    assert shared and refused


def test_ledger_changes_always_emit_events():
    """Trace completeness: any block whose accounting differs from its
    parent's carries at least one event."""
    for name in BUNDLED:
        result = run_bundled(name)
        accounting_by_hash = {}
        for chain_key, info in result.records[0]["genesis"].items():
            accounting_by_hash[info["hash"]] = info["accounting"]
        for record in result.records:
            for block in record.get("blocks", []):
                accounting_by_hash[block["hash"]] = block["accounting"]
                parent = accounting_by_hash.get(block["parent"])
                assert parent is not None, (name, block["hash"])
                if block["accounting"] != parent:
                    assert block["events"], (name, block["hash"])


def test_status_sequences_are_lifecycle_prefixes():
    """Across every bundled trace, fold the controller transitions: each
    swap's effective history is a prefix of registered -> processed ->
    finalized, with reverts only unwinding unfinalized observations."""
    order = ["registered", "processed", "finalized"]
    for name in BUNDLED:
        result = run_bundled(name)
        view: dict[str, str | None] = {}
        for record in result.records:
            if record.get("op") != "tick":
                continue
            for t in record["transitions"]:
                sid = t["swap_id"]
                if t["revert"]:
                    assert view.get(sid) != "finalized"
                    if t["to"] is None:
                        view.pop(sid, None)
                    else:
                        view[sid] = t["to"]
                    continue
                current = view.get(sid)
                expected_next = order[0] if current is None else \
                    order[order.index(current) + 1]
                assert t["to"] == expected_next, (name, t)
                view[sid] = t["to"]


# --- CLI ----------------------------------------------------------------------


def test_cli_run_writes_trace_and_checks(tmp_path, capsys):
    trace_path = tmp_path / "happy.jsonl"
    assert main(["run", "happy_path", "--trace", str(trace_path)]) == 0
    assert trace_path.exists()
    assert main(["check", str(trace_path)]) == 0
    out = capsys.readouterr()
    assert "trace ok" in out.err


def test_cli_run_stdout_trace(capsys):
    assert main(["run", "happy_path"]) == 0
    out = capsys.readouterr()
    first = json.loads(out.out.splitlines()[0])
    assert first["op"] == "header"


def test_cli_run_scenario_file(tmp_path):
    scenario = load_scenario("happy_path").to_json()
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path), "--trace", str(tmp_path / "t.jsonl")]) == 0


def test_cli_run_unwritable_trace_exit_2(tmp_path, capsys):
    """A trace path that cannot be opened is one stderr line and exit 2,
    not a traceback and exit 1, the code of a failed check."""
    path = tmp_path / "no_such_dir" / "t.jsonl"
    assert main(["run", "happy_path", "--trace", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cannot write trace: ")
    assert str(path) in err[0]
    assert not path.parent.exists()


def test_cli_run_closed_stdout_exit_2():
    """A stdout that cannot be written, a pipe whose reader is gone before
    the run writes, is an unwritable trace too: one stderr line and exit
    2, not a BrokenPipeError traceback and exit 1, and no "Exception
    ignored" at interpreter exit."""
    src = str(Path(swapgate.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "swapgate.cli", "run", "happy_path"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=path))
    finally:
        os.close(write_end)
    err = done.stderr.splitlines()
    assert done.returncode == 2, done.stderr
    assert len(err) == 1 and err[0].startswith("cannot write trace: "), err


@pytest.mark.parametrize("content", [
    b"{", b"\xff", b"[]",
    b'{"name": ' + b"[" * 5000 + b"]" * 5000 + b"}",
    b'{"seed": ' + b"1" * 5000 + b"}",
], ids=["not_json", "not_utf8", "not_object", "nested_too_deep",
        "int_too_long"])
def test_cli_bundled_scenario_fails_as_a_file_does(tmp_path, monkeypatch,
                                                   capsys, content):
    """A bundled scenario is read by Scenario.load, as a file is: one that
    cannot be loaded is an invalid scenario (exit 2), not a crash."""
    (tmp_path / "scenarios").mkdir()
    (tmp_path / "scenarios" / "broken.json").write_bytes(content)
    (tmp_path / "broken.json").write_bytes(content)
    monkeypatch.setattr(cli, "resources",
                        SimpleNamespace(files=lambda package: tmp_path))
    with pytest.raises(InvalidScenario) as bundled:
        load_scenario("broken")
    with pytest.raises(InvalidScenario) as file:
        load_scenario(str(tmp_path / "broken.json"))
    assert str(bundled.value) == str(file.value)
    assert main(["run", "broken"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"invalid scenario: {bundled.value}"]


def test_cli_run_unknown_scenario(capsys):
    assert main(["run", "no_such_thing"]) == 2


def test_cli_run_invalid_scenario_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"chains": [{}]}))
    assert main(["run", str(path)]) == 2


@pytest.mark.parametrize("section", [
    {"chains": [5, {}]}, {"chains": {}}, {"tokens": "T"}, {"oracles": 5},
    {"oracles": {"count": "3"}}, {"oracles": {"threshold": "3"}},
    {"oracles": {"behaviors": 5}}, {"balances": [5]}, {"balances": {}},
    {"timeline": [5]}, {"timeline": {}}, {"seed": "x"},
], ids=json.dumps)
def test_cli_run_malformed_section_is_invalid(tmp_path, capsys, section):
    """A section of the wrong JSON shape is an invalid scenario (exit 2),
    not a crash (exit 1, the code of a failed check)."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"tokens": ["T"], **section}))
    assert main(["run", str(path)]) == 2
    assert "invalid scenario" in capsys.readouterr().err


LOCK = {"op": "user_lock", "sender": "alice", "token": "T", "amount": 5,
        "receiver": "bob"}


def asserting(**check):
    return {"timeline": [LOCK, {"op": "assert", **check}]}


@pytest.mark.parametrize("fields", [
    # an unhashable value where a set lookup expects a string
    {"balances": [{"account": "alice", "token": [], "amount": 5}]},
    {"timeline": [{"op": "produce_block", "chain": 0, "branch": []}]},
    {"timeline": [dict(LOCK, token=[])]},
    {"timeline": [{"op": []}]},
    asserting(check="backing", token=[]),
    # a field an assert check reads that is missing or out of range
    asserting(check="balance", chain=5, token="T", account="alice", expect=0),
    asserting(check="locked", token="T", expect=0),
    asserting(check="supply", chain=1, token="swT"),
    asserting(check="status", swap=0),
    # a value of another JSON type that would be read as a valid one
    {"chains": [{"finality_depth": True}, {}]},
    {"oracles": {"count": True}},
    {"timeline": [{"op": "produce_block", "chain": 0, "count": True}]},
    {"timeline": [{"op": "produce_block", "chain": True}]},
    asserting(check="backing", token="T", relation="lt"),
    {"name": ["x"]},
    # a misspelt key, which would otherwise leave its default in place
    {"timelime": [LOCK]},
    {"chains": [{"finality_dept": 1}, {}]},
    {"oracles": {"cuont": 3}},
    {"balances": [{"account": "alice", "token": "T", "amount": 10,
                   "amout": 5}]},
    {"timeline": [{"op": "produce_block", "chain": 0, "cuont": 3},
                  {"op": "tick"}]},
    {"timeline": [dict(LOCK, recevier="carol")]},
    {"timeline": [{"op": "tick", "chain": 0}]},
    asserting(check="locked", chain=0, token="T", expect=0, relation="eq"),
    asserting(check="no_forged_accepted", swap=0),
], ids=json.dumps)
def test_cli_run_field_of_wrong_type_is_invalid(tmp_path, capsys, fields):
    """Every field the runner reads is checked before the run: a wrong type
    or a missing field is an invalid scenario (exit 2), neither a crash
    (exit 1) nor a value read as something else."""
    scenario = {"tokens": ["T"],
                "balances": [{"account": "alice", "token": "T", "amount": 10}],
                **fields}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path)]) == 2
    assert "invalid scenario" in capsys.readouterr().err


ORACLES_BOUND = ("oracles: count must be an integer from 1 to 64: a relay "
                 "round signs and verifies once per oracle")
BLOCKS_BOUND = ("count must be an integer from 1 to 1000: one trace record "
                "holds every block of its step")
FORK = {"op": "fork_at", "chain": 0, "height": 0, "name": "b"}


@pytest.mark.parametrize("fields,message", [
    ({"oracles": {"count": 2**64}}, ORACLES_BOUND),
    ({"oracles": {"count": 2**64, "behaviors": ["honest"]}}, ORACLES_BOUND),
    ({"oracles": {"count": 65}}, ORACLES_BOUND),
    ({"timeline": [{"op": "produce_block", "chain": 0, "count": 2**64}]},
     f"timeline step 0: {BLOCKS_BOUND}"),
    ({"timeline": [{"op": "produce_block", "chain": 0, "count": 1001}]},
     f"timeline step 0: {BLOCKS_BOUND}"),
    ({"timeline": [FORK, {"op": "extend_branch", "chain": 0, "branch": "b",
                          "count": 2**64}]},
     f"timeline step 1: {BLOCKS_BOUND}"),
], ids=["oracles_2^64", "oracles_2^64_with_behaviors", "oracles_65",
        "produce_2^64", "produce_1001", "extend_2^64"])
def test_count_beyond_its_bound_is_invalid(tmp_path, capsys, monkeypatch,
                                           fields, message):
    """Each count that a run loops over or allocates by has an upper bound,
    checked before anything is built by it, and the message names its
    reason. Only validation runs here, never a run, so that a count
    accepted by mistake fails at once rather than running without end:
    `swapgate run` exits 2 with one line before its run would start."""
    scenario = {"tokens": ["T"],
                "balances": [{"account": "alice", "token": "T", "amount": 10}],
                **fields}
    with pytest.raises(InvalidScenario) as raised:
        Scenario.from_json(scenario)
    assert str(raised.value) == message
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    monkeypatch.setattr(Runner, "run", lambda self: pytest.fail("ran"))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == \
        [f"invalid scenario: {message}"]


def test_counts_at_their_bounds_are_valid():
    """The bounds themselves are accepted, a default roster of the most
    oracles included."""
    scenario = Scenario.from_json({
        "tokens": ["T"], "oracles": {"count": 64},
        "timeline": [{"op": "produce_block", "chain": 0, "count": 1000},
                     FORK, {"op": "extend_branch", "chain": 0, "branch": "b",
                            "count": 1000}]})
    assert scenario.oracles.behaviors == ["honest"] * 64


# 40 characters, but a space where a hex digit would be: bytes.fromhex
# skips it and reads 19 bytes
SPACED = "aa bbccddeeff00112233445566778899aabbcc "


@pytest.mark.parametrize("fields", [
    {"balances": [{"account": SPACED, "token": "T", "amount": 10}]},
    {"timeline": [dict(LOCK, receiver=SPACED)]},
    asserting(check="balance", chain=0, account=SPACED, token="T", expect=0),
], ids=["balance", "lock receiver", "balance assert"])
def test_cli_run_forty_character_alias(tmp_path, fields):
    """A 40-character account spec that is not 40 hex digits is an alias,
    hashed to an address like any other, not a crash."""
    assert len(SPACED) == 40
    scenario = {"tokens": ["T"],
                "balances": [{"account": "alice", "token": "T", "amount": 10}],
                **fields}
    path = tmp_path / "alias.json"
    path.write_text(json.dumps(scenario))
    assert main(["run", str(path), "--trace", str(tmp_path / "t.jsonl")]) == 0


def _first(records, key):
    """The first value under `key` in any record."""
    return next(r[key] for r in records if r.get(key))


def _drop_block_hash(records):
    del _first(records, "blocks")[0]["hash"]


def _drop_supply(records):
    accounting = _first(records, "blocks")[0]["accounting"]
    del next(iter(accounting.values()))["supply"]


def _drop_transition_swap_id(records):
    del _first(records, "transitions")[0]["swap_id"]


def _genesis_as_list(records):
    records[0]["genesis"] = list(records[0]["genesis"].values())


def _zero(key):
    """A tamper that sets the first non-empty `key` of a record, or of a
    block, to 0: present but falsy, which a check must not read as absent."""
    def tamper(records):
        holders = records + [b for r in records for b in r.get("blocks", ())]
        next(h for h in holders if h.get(key))[key] = 0
    return tamper


def _chain_under_two_keys(records):
    """A canonical section that names chain 0 again, as "00": no last tip
    of the two is the chain's."""
    section = _first(records, "canonical")
    section["00"] = section["0"]


def _nested_too_deep(records):
    """A line nested deeper than json.loads can recurse, given as text."""
    records.insert(1, '{"op":"x","a":' + "[" * 5000 + "]" * 5000 + "}")


@pytest.mark.parametrize("tamper", [
    lambda records: records.pop(),          # truncated: no end record
    _drop_block_hash, _drop_supply, _drop_transition_swap_id,
    _genesis_as_list, _nested_too_deep, _zero("accounting"), _zero("txs"),
    _zero("canonical"), _zero("transitions"), _chain_under_two_keys,
], ids=["truncated", "block_hash", "supply", "transition_swap_id",
        "genesis_list", "nested_too_deep", "accounting_zero", "txs_zero",
        "canonical_zero", "transitions_zero", "chain_under_two_keys"])
def test_cli_check_malformed_exit_2(tmp_path, capsys, tamper):
    """A trace that is cut short, that holds a line json.loads refuses, or
    whose records parse but lack a field or hold one of the wrong type, is
    malformed (exit 2), not a failed check: one line on stderr. A str
    among the tampered records is written as its own line."""
    trace_path = tmp_path / "t.jsonl"
    main(["run", "happy_path", "--trace", str(trace_path)])
    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    tamper(records)
    trace_path.write_text("\n".join(
        r if isinstance(r, str) else json.dumps(r, sort_keys=True)
        for r in records) + "\n")
    capsys.readouterr()
    assert main(["check", str(trace_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("malformed trace: "), err


@pytest.mark.parametrize("command", ["check", "run"])
def test_cli_file_not_utf8_exit_2(tmp_path, capsys, command):
    """Traces and scenario files are read as UTF-8 whatever the locale: a
    file that is not is a malformed trace or an invalid scenario (exit 2),
    not a crash (exit 1, the code of a failed check)."""
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'\xff\xfe{"op":"header"}\n')
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert ("malformed trace: not UTF-8" if command == "check"
            else "invalid scenario") in err
    assert "utf-8" in err.lower()


def test_cli_check_tampered_exit_1(tmp_path):
    trace_path = tmp_path / "t.jsonl"
    main(["run", "happy_path", "--trace", str(trace_path)])
    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    for record in records:
        for block in record.get("blocks", []):
            mints = [e for e in block["events"] if e["kind"] == "MintExecuted"]
            if mints:
                block["events"].append(mints[0])
    trace_path.write_text(
        "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n")
    assert main(["check", str(trace_path)]) == 1


def test_cli_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr()
    assert "happy_path" in out.out
    assert "stuck_swap_recovery" in out.out


def test_failed_lock_does_not_shift_swap_handles():
    """A rejected user tx leaves its swap handle unresolved instead of
    stealing the next successful swap's id."""
    scenario = load_scenario("happy_path").to_json()
    scenario["timeline"] = [
        {"op": "user_lock", "sender": "alice", "token": "T", "amount": 0,
         "receiver": "bob"},
        {"op": "user_lock", "sender": "alice", "token": "T", "amount": 55,
         "receiver": "bob"},
        {"op": "produce_block", "chain": 0},
        {"op": "assert", "check": "status", "swap": 0, "expect": "unknown"},
        {"op": "assert", "check": "port_status", "chain": 0, "swap": 1,
         "expect": "registered"},
    ]
    runner = Runner(Scenario.from_json(scenario))
    result = runner.run()
    assert result.exit_code == 0, result.violations
    assert runner.swap_ids[0] is None
    assert runner.swap_ids[1] is not None


def test_swap_handles_go_once_their_txs_are_included():
    """The runner keeps a user tx's handle only until a block includes the
    tx, rejected or not, so it holds no id of a tx that may be freed."""
    scenario = load_scenario("happy_path").to_json()
    lock = {"op": "user_lock", "sender": "alice", "token": "T",
            "receiver": "bob"}
    scenario["timeline"] = [dict(lock, amount=0), dict(lock, amount=55),
                            {"op": "produce_block", "chain": 0},
                            dict(lock, amount=7)]
    runner = Runner(Scenario.from_json(scenario))
    assert runner.run().exit_code == 0
    pending = runner.chains[0].pending
    assert list(runner._in_flight) == [id(tx) for tx in pending]
    assert runner.swap_ids[1] is not None and runner.swap_ids[2] is None


def test_failed_assert_gives_exit_1():
    scenario = load_scenario("happy_path").to_json()
    scenario["timeline"].append(
        {"op": "assert", "check": "supply", "chain": 1, "token": "swT",
         "expect": 12345})
    result = Runner(Scenario.from_json(scenario)).run()
    assert result.exit_code == 1
    assert any(v["invariant"] == "assertion" for v in result.violations)
    text = "\n".join(result.trace_lines()) + "\n"
    exit_code, _ = check_trace_text(text)
    assert exit_code == 1
