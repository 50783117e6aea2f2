"""Bundled and regression scenarios, trace determinism, the check command,
CLI surface."""

import json
import copy
from pathlib import Path

import pytest

from swapgate.cli import bundled_scenario_names, load_scenario, main
from swapgate.errors import InvalidScenario, MalformedTrace
from swapgate.scenario import Runner, Scenario
from swapgate.trace import check_trace_text, parse_trace

from scenario_gen import random_happy_scenario

BUNDLED = [
    "happy_path", "reverse_path", "round_trip", "byzantine_minority",
    "byzantine_wrong_receiver", "byzantine_silent", "byzantine_replayer",
    "byzantine_equivocator", "equivocation", "reorg_before_conf",
    "stuck_swap_recovery", "replay_attack",
]


REGRESSION_SCENARIOS = sorted(
    (Path(__file__).parent / "scenarios").glob("*.json"))


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


def test_chains_keep_only_states_a_reorg_can_reach():
    """Memory guard: a long run keeps genesis, the branch tips and the
    blocks within the finality depth; 156 and 108 states before pruning."""
    scenario = random_happy_scenario(seed=1, swaps=200)
    result = Runner(scenario).run()
    assert result.exit_code == 0, result.violations
    for cid, chain in result.chains.items():
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
])
def test_invalid_scenarios_rejected(mutate, message):
    scenario = load_scenario("happy_path").to_json()
    mutate(scenario)
    with pytest.raises(InvalidScenario, match=message):
        Scenario.from_json(scenario)


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


def test_cli_check_truncated(tmp_path):
    trace_path = tmp_path / "t.jsonl"
    main(["run", "happy_path", "--trace", str(trace_path)])
    lines = trace_path.read_text().splitlines()
    trace_path.write_text("\n".join(lines[:-1]))
    assert main(["check", str(trace_path)]) == 2


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
    result = Runner(Scenario.from_json(scenario)).run()
    assert result.exit_code == 0, result.violations
    assert result.swap_ids[0] is None
    assert result.swap_ids[1] is not None


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
