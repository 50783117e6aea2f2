"""Trace records share each JSON fragment of an immutable value.

A tx's `describe()`, an account's and a payload entry's `to_json()` and a
swap id's hex string are built once, each chain keeps one account object
per address, a stored state builds its accounting once, and the Runner
keeps one canonical summary per chain while its tip is unchanged, so the
records a run holds refer to one dict or string per fragment instead of a
copy per record. A relay round's report is one dict, which its record and
`Runner.reports` both hold, and a tick's record holds the lists
`StatusController.tick` returned. A user tx's receipt holds a reference to
its user record, built once when the tx is submitted. The text is
unchanged: the pinned digests check that.
"""

import copy
import importlib.util
from pathlib import Path

import pytest

from swapgate.chain import BlockCtx, BlockRef
from swapgate.cli import load_scenario
from swapgate.gateway import LockTx, apply_tx
from swapgate.ports import DESTINATION, ORIGIN
from swapgate.scenario import Runner, Scenario, resolve_address

from conftest import ALICE, BOB
from scenario_gen import random_happy_scenario, reorg_scenario

# distinct dicts reachable from the records of random_happy_scenario(seed=1,
# swaps=200); they hold 7,080 once written out, the records held 6,289
# before fragments were shared and 4,164 before the ports shared their
# receivers. Events naming no block took the 128 block ref dicts off the
# 3,964 of then, and each of the 200 user txs' receipts holds a reference
# dict of its own
DISTINCT_DICTS_CEILING = 4036


@pytest.fixture(scope="module")
def run():
    """The records of a 200-swap happy run, and by user step the reference
    the runner held for its tx right after submitting it."""
    runner = Runner(random_happy_scenario(seed=1, swaps=200))
    built: dict[int, dict] = {}
    dispatch = runner._execute_step

    def execute_step(index: int, step: dict) -> None:
        dispatch(index, step)
        if step["op"] in ("user_lock", "user_burn"):
            chain = ORIGIN if step["op"] == "user_lock" else DESTINATION
            tx = runner.chains[chain].pending[-1]
            built[index] = runner._in_flight[id(tx)][0]

    runner._execute_step = execute_step
    result = runner.run()
    assert result.exit_code == 0
    return result.records, built


@pytest.fixture(scope="module")
def records(run):
    return run[0]


def blocks(records):
    return [block for record in records for block in record.get("blocks", ())]


def test_each_user_record_is_referenced_by_one_receipt(run):
    """A lock's or burn's receipt names its user record's step; the
    reference is the dict built when the tx was submitted, one per tx."""
    records, built = run
    user_steps = [r["step"] for r in records
                  if r["op"] in ("user_lock", "user_burn")]
    assert len(user_steps) == 200 and sorted(built) == user_steps
    referring: dict[int, list[dict]] = {}
    for block in blocks(records):
        for receipt in block["txs"]:
            if receipt["tx"]["kind"] in ("lock", "burn"):
                referring.setdefault(receipt["tx"]["step"], []).append(
                    receipt["tx"])
    assert sorted(referring) == user_steps
    for step, refs in referring.items():
        assert len(refs) == 1 and refs[0] is built[step]


def test_canonical_summary_is_shared_while_the_tip_is_unchanged(records):
    last: dict[str, dict] = {}
    shared = 0
    for record in records:
        for chain, summary in record.get("canonical", {}).items():
            before = last.get(chain)
            if before is not None and before["tip"] == summary["tip"] \
                    and before["branch"] == summary["branch"]:
                assert summary is before
                shared += 1
            last[chain] = summary
    assert shared > 0


@pytest.mark.parametrize("make", [
    lambda: reorg_scenario(1, 40),
    lambda: load_scenario("stuck_swap_recovery"),
    lambda: load_scenario("reorg_before_conf"),
], ids=["reorg_scenario", "stuck_swap_recovery", "reorg_before_conf"])
def test_one_accounting_dict_per_state(make):
    """A block without txs stores its parent's state, so its record holds
    the very accounting dict of its parent's record, or of the header's
    genesis entry, on a fork too; a canonical section holds its tip
    block's."""
    runner = Runner(make())
    assert runner.run().exit_code == 0
    # (chain, block hash) -> the accounting of its latest record
    accounting = {(int(key), info["hash"]): info["accounting"]
                  for key, info in runner.records[0]["genesis"].items()}
    without_txs = 0
    for record in runner.records:
        for block in record.get("blocks", ()):
            if not block["txs"]:
                parent = accounting[block["chain"], block["parent"]]
                assert block["accounting"] is parent
                without_txs += 1
            accounting[block["chain"], block["hash"]] = block["accounting"]
        for key, summary in record.get("canonical", {}).items():
            assert summary["accounting"] is accounting[int(key),
                                                       summary["tip"]]
    assert without_txs > 0


def test_accounting_memo_does_not_survive_clone(world):
    """A state's accounting is built once, and a clone, which a block
    changes, builds its own."""
    a = world.origin.canonical_state
    assert a.accounting() is a.accounting()
    before = copy.deepcopy(a.accounting())
    b = a.clone()
    ctx = BlockCtx(BlockRef(ORIGIN, "main", 1, b"\xee" * 32),
                   world.origin.accounts)
    apply_tx(b, LockTx(ORIGIN, ALICE, "T", 100, BOB), ctx)
    assert b.accounting() == b.ledger.accounting()
    assert b.accounting() != a.accounting()
    assert a.accounting() == before


def test_transitions_share_the_swap_id_and_label_strings(records):
    """A transition names its swap by the kept id string of the swap's
    registration (encoding.SwapId), and a status label is one string."""
    strings: dict[str, set[int]] = {}
    for record in records:
        for transition in record.get("transitions", ()):
            for key in ("swap_id", "to"):
                strings.setdefault(transition[key], set()).add(
                    id(transition[key]))
    assert len(strings) == 200 + 3
    assert all(len(ids) == 1 for ids in strings.values())


def distinct_dicts(records) -> list[dict]:
    seen: dict[int, dict] = {}
    stack: list = [records]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            if id(value) not in seen:
                seen[id(value)] = value
                stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)
    return list(seen.values())


def test_one_account_dict_per_chain_and_address(records):
    """Senders, receivers and holders in txs and registration events, and
    the receivers of the ports' mints and unlocks, are one dict each."""
    accounts: dict[tuple[int, str], set[int]] = {}
    for value in distinct_dicts(records):
        if value.keys() == {"chain", "address"}:
            accounts.setdefault((value["chain"], value["address"]),
                                set()).add(id(value))
    executed = [event["payload"]["receiver"] for block in blocks(records)
                for event in block["events"]
                if event["kind"] in ("MintExecuted", "UnlockExecuted")]
    assert len(executed) == 200
    assert all(len(ids) == 1 for ids in accounts.values())


def test_each_chain_owns_its_account_table():
    """Each chain keeps its own table of account objects, which holds only
    that chain's accounts, and the runner takes a spec's account from the
    table of the chain it lives on, though it hashes the spec once per
    run; round_trip has accounts on both."""
    runner = Runner(load_scenario("round_trip"))
    assert runner.run().exit_code == 0
    tables = {cid: chain.accounts for cid, chain in runner.chains.items()}
    assert tables[ORIGIN] is not tables[DESTINATION]
    for cid, table in tables.items():
        assert table and all(chain == cid for chain, _ in table)
    for cid, spec in ((ORIGIN, "alice"), (DESTINATION, "bob")):
        account = runner._account_id(cid, spec)
        assert tables[cid][(cid, account.address)] is account
    # one spec on both chains: two accounts, each from its own chain's
    # table, with the spec's one address
    on_origin = runner._account_id(ORIGIN, "bob")
    on_destination = runner._account_id(DESTINATION, "bob")
    assert on_origin is not on_destination
    assert on_origin.address == on_destination.address == \
        resolve_address("bob")
    assert tables[ORIGIN][(ORIGIN, on_origin.address)] is on_origin
    assert tables[DESTINATION][(DESTINATION, on_destination.address)] \
        is on_destination


def test_one_swap_id_string_per_swap(records):
    """A swap's receipt, its registration and execution events, its round
    report entry and its controller transitions share one id string."""
    strings: dict[str, set[int]] = {}

    def note(text: str) -> None:
        strings.setdefault(text, set()).add(id(text))

    for block in blocks(records):
        for receipt in block["txs"]:
            if "swap_id" in receipt:
                note(receipt["swap_id"])
        for event in block["events"]:
            if event["swap_id"] is not None:
                note(event["swap_id"])
    for record in records:
        for entry in record.get("report", {}).get("entries", ()):
            note(entry["swap_id"])
        for transition in record.get("transitions", ()):
            note(transition["swap_id"])
    assert len(strings) == 200
    assert all(len(ids) == 1 for ids in strings.values())


def test_runner_swap_ids_are_the_ports_ids():
    """The runner's handle for each swap is the id object the port stored,
    not a second copy parsed back from the receipt's hex string; checked
    on the benchmark's swap_dense run (seed 1), 1,224 locks and burns."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    runner = Runner(Scenario.from_json(workloads.swap_dense(1)))
    assert runner.run().exit_code == 0
    stored = {id(swap_id) for chain in runner.chains.values()
              for swap_id in chain.canonical_state.port.swaps}
    assert len(runner.swap_ids) == 1224
    assert all(id(swap_id) in stored for swap_id in runner.swap_ids)


@pytest.mark.parametrize("make, outcome", [
    (lambda: load_scenario("happy_path"), "submitted"),
    (lambda: reorg_scenario(1), "empty"),
], ids=["happy_path", "reorg_scenario"])
def test_round_report_is_its_record_and_the_runners(make, outcome):
    """Each relay round's record holds the very dict `relay_round` returned,
    and `Runner.reports` holds that same dict, for a run with a submitted
    round and one with empty rounds."""
    runner = Runner(make())
    relay_round = runner.network.relay_round
    returned: list[dict] = []

    def kept_relay_round(source, target):
        returned.append(relay_round(source, target))
        return returned[-1]

    runner.network.relay_round = kept_relay_round
    assert runner.run().exit_code == 0
    reports = [r["report"] for r in runner.records if r["op"] == "relay_round"]
    assert len(reports) == len(runner.reports) == len(returned)
    for k, report in enumerate(reports):
        assert report is runner.reports[k] and report is returned[k]
    assert any(report["outcome"] == outcome for report in reports)


def kept_ticks(runner: Runner) -> list[tuple[dict, set[bytes]]]:
    """Make each controller tick of `runner` note what it returned and the
    network's re-attestation requests right after the tick step."""
    tick = runner.controller.tick
    dispatch = runner._execute_step
    ticks: list[tuple[dict, set[bytes]]] = []

    def kept_tick(chains):
        ticks.append((tick(chains), set()))
        return ticks[-1][0]

    def execute_step(index: int, step: dict) -> None:
        dispatch(index, step)
        if step["op"] == "tick":
            ticks[-1][1].update(runner.network.reattest_requests)

    runner.controller.tick = kept_tick
    runner._execute_step = execute_step
    return ticks


def test_tick_record_holds_the_lists_tick_returned():
    """A tick's record holds the very `transitions` and `stuck` lists that
    `StatusController.tick` returned."""
    runner = Runner(load_scenario("stuck_swap_recovery"))
    ticks = kept_ticks(runner)
    assert runner.run().exit_code == 0
    recorded = [r for r in runner.records if r["op"] == "tick"]
    assert len(recorded) == len(ticks)
    for record, (returned, _) in zip(recorded, ticks):
        assert record["transitions"] is returned["transitions"]
        assert record["stuck"] is returned["stuck"]
    assert any(returned["stuck"] for returned, _ in ticks)


def test_every_stuck_swap_is_requested_for_reattestation():
    """Right after a tick, the network has a re-attestation request for
    every swap the tick listed as stuck."""
    runner = Runner(load_scenario("stuck_swap_recovery"))
    ticks = kept_ticks(runner)
    assert runner.run().exit_code == 0
    stuck = 0
    for returned, requests in ticks:
        for entry in returned["stuck"]:
            assert bytes.fromhex(entry["swap_id"]) in requests
            stuck += 1
    assert stuck > 0


def test_distinct_dicts_reachable_from_the_records(records):
    assert len(distinct_dicts(records)) <= DISTINCT_DICTS_CEILING
