"""Oracle network: extraction, quorum selection, Byzantine containment."""

import itertools

from swapgate import Behavior, EventKind, LockTx, SwapStatus, encoding, oracles
from swapgate.cli import load_scenario
from swapgate.encoding import (MAX_ENTRIES, Direction, PayloadEntry,
                               encode_payload)
from swapgate.oracles import ATTACKER_ADDRESS, candidates
from swapgate.scenario import OracleConfig, Runner, Scenario

from conftest import ALICE, BOB, World
from scenario_gen import random_happy_scenario, reorg_scenario

ALL_BEHAVIORS = [Behavior.HONEST, Behavior.SILENT, Behavior.WRONG_AMOUNT,
                 Behavior.WRONG_RECEIVER, Behavior.REPLAYER,
                 Behavior.EQUIVOCATOR]
BYZANTINE = [b for b in ALL_BEHAVIORS if b != Behavior.HONEST]


def lock_and_confirm(world, amount=100, extra_blocks=None):
    world.origin.submit(LockTx(0, ALICE, "T", amount, BOB))
    world.origin.produce_block()
    depth = world.conf_depth if extra_blocks is None else extra_blocks
    for _ in range(depth):
        world.origin.produce_block()


def test_extraction_depth_boundary():
    """An event at exactly the confirmation depth is extracted; one block
    shallower is left for the next round."""
    w = World(conf_depth=3)
    w.origin.submit(LockTx(0, ALICE, "T", 100, BOB))
    w.origin.produce_block()              # lock at h1
    w.origin.produce_block()
    w.origin.produce_block()              # tip h3: depth 2 < 3
    assert w.network.extract(w.origin) == []
    w.origin.produce_block()              # tip h4: depth 3 == conf depth
    entries = w.network.extract(w.origin)
    assert len(entries) == 1
    assert entries[0].amount == 100


def test_extraction_empty_past_cursor():
    w = World()
    lock_and_confirm(w)
    assert len(w.network.extract(w.origin)) == 1
    # nothing new: cursor advanced, extraction is now empty
    assert w.network.extract(w.origin) == []


def test_reorged_lock_never_extracted():
    """A lock that is reorged out before reaching the confirmation depth
    never shows up in any honest payload, across every later round."""
    w = World(conf_depth=2, fin_depth=3, timeout=6)
    w.origin.submit(LockTx(0, ALICE, "T", 100, BOB))
    w.origin.produce_block()              # lock at h1, depth 0
    fork = w.origin.fork_at(0, "alt")
    w.origin.extend(fork, 2)              # reorg: lock gone
    for _ in range(8):                    # plenty of rounds afterwards
        entries = w.network.extract(w.origin)
        for oracle in w.network.oracles:
            for payload in candidates(oracle.behavior, entries, []):
                assert all(e.amount != 100 for e in payload)
        w.origin.produce_block(w.origin.canonical_branch)


def test_honest_round_submits_and_processes():
    w = World()
    lock_and_confirm(w)
    report = w.network.relay_round(w.origin, w.destination)
    assert report["outcome"] == "submitted"
    assert report["signers"] == [0, 1, 2, 3, 4]
    assert not report["forged_chosen"]
    w.destination.produce_block()
    assert w.destination.canonical_state.ledger.supply["swT"] == 100


def test_two_wrong_amount_oracles_lose_quorum():
    """threshold-1 honest extractions cannot submit; the round is lost but
    nothing forged gets through."""
    w = World(behaviors=[Behavior.WRONG_AMOUNT, Behavior.WRONG_AMOUNT,
                         Behavior.HONEST, Behavior.HONEST, Behavior.HONEST])
    lock_and_confirm(w)
    report = w.network.relay_round(w.origin, w.destination)
    assert report["outcome"] == "no_quorum"
    counts = {c["hash"]: c["count"] for c in report["candidates"]}
    assert sorted(counts.values(), reverse=True) == [3, 2]
    w.destination.produce_block()
    assert w.destination.canonical_state.ledger.supply == {}


def test_forged_payload_cannot_reach_threshold_with_minority():
    """Enumerate every signer subset over the candidates of every behavior
    assignment with fewer Byzantine oracles than the threshold: no forged
    payload ever collects four endorsements."""
    for byz_count in range(0, 4):
        for byz_profile in BYZANTINE:
            behaviors = [byz_profile] * byz_count + \
                [Behavior.HONEST] * (5 - byz_count)
            w = World(behaviors=behaviors)
            lock_and_confirm(w, amount=1)  # amount 1 maximizes collisions
            endorsements: dict[bytes, set[int]] = {}
            reference = None
            entries = w.network.extract(w.origin)
            for oracle in w.network.oracles:
                for payload in candidates(oracle.behavior, entries, []):
                    raw = encode_payload(payload)
                    endorsements.setdefault(raw, set()).add(oracle.index)
                    if oracle.behavior == Behavior.HONEST:
                        reference = raw
            for raw, endorsers in endorsements.items():
                if raw != reference:
                    for size in range(4, 6):
                        for subset in itertools.combinations(range(5), size):
                            assert not set(subset) <= endorsers, (
                                f"forged payload endorsed by {endorsers} with "
                                f"{byz_count} x {byz_profile.value}")


def test_wrong_receiver_minority_does_not_redirect():
    w = World(behaviors=[Behavior.WRONG_RECEIVER] + [Behavior.HONEST] * 4)
    lock_and_confirm(w)
    report = w.network.relay_round(w.origin, w.destination)
    assert report["outcome"] == "submitted"
    assert report["signers"] == [1, 2, 3, 4]
    w.destination.produce_block()
    ledger = w.destination.canonical_state.ledger
    assert ledger.balances["swT"] == {BOB.address: 100}
    assert ATTACKER_ADDRESS not in ledger.balances.get("swT", {})


def test_replayer_reemission_hits_duplicate_guard():
    """Even when a replayed payload is relayed (roster of replayers), the
    port rejects the duplicate and the ledgers stay put."""
    w = World(behaviors=[Behavior.REPLAYER] * 5)
    lock_and_confirm(w)
    first = w.network.relay_round(w.origin, w.destination)
    # empty history: identical payloads
    assert first["outcome"] == "submitted"
    w.destination.produce_block()
    assert w.destination.canonical_state.ledger.supply["swT"] == 100

    lock_and_confirm(w, amount=40)
    second = w.network.relay_round(w.origin, w.destination)
    assert second["outcome"] == "submitted"
    assert second["forged_chosen"]        # contains the replayed entry
    ref = w.destination.produce_block()
    receipts = w.destination.blocks[ref.block_hash].receipts
    send = [r for r in receipts if r.tx.describe()["kind"] == "send_data"][0]
    assert send.extra["entry_outcomes"] == ["DuplicateExecution", "ok"]
    assert w.destination.canonical_state.ledger.supply["swT"] == 140

    mint_events = [e for e in w.destination.canonical_events()
                   if e.kind == EventKind.MINT_EXECUTED]
    per_swap = {}
    for e in mint_events:
        per_swap[e.swap_id] = per_swap.get(e.swap_id, 0) + 1
    assert all(count == 1 for count in per_swap.values())


def test_replayer_past_the_entry_cap_endorses_the_newest_entries():
    """A replayer endorses at most the newest MAX_ENTRIES entries, the most
    the wire format's u16 count carries, so a history already at the cap
    neither crashes the run (MalformedPayload) nor wins a round."""
    history = list(range(MAX_ENTRIES + 5))
    (payload,) = candidates(Behavior.REPLAYER, ["new"], history)
    assert payload == history[-(MAX_ENTRIES - 1):] + ["new"]

    runner = Runner(load_scenario("byzantine_replayer"))
    filler = PayloadEntry(Direction.ORIGIN_TO_DESTINATION, bytes(32), "T", 0,
                          bytes(20), 1)
    runner.network.replay_history[0] = [filler] * MAX_ENTRIES
    result = runner.run()
    assert result.exit_code == 0, result.violations
    first = runner.reports[0]
    assert first["outcome"] == "submitted" and not first["forged_chosen"]
    assert [c["count"] for c in first["candidates"] if c["forged"]] == [1]


def lower_entry_cap(monkeypatch, cap):
    """Give payloads a cap of `cap` entries, where the wire format checks
    it and where extraction and the replayer read it."""
    monkeypatch.setattr(encoding, "MAX_ENTRIES", cap)
    monkeypatch.setattr(oracles, "MAX_ENTRIES", cap)


def test_honest_extraction_past_the_entry_cap_is_relayed_over_rounds(
        monkeypatch):
    """A round whose honest extraction holds more entries than a payload
    carries relays the oldest and leaves the rest to the next rounds, a
    block cut in two included, so the run exits 0 instead of raising
    MalformedPayload, and every swap executes exactly once."""
    lower_entry_cap(monkeypatch, 4)
    lock = {"op": "user_lock", "sender": "alice", "token": "T", "amount": 1,
            "receiver": "bob"}
    relay = [{"op": "relay_round", "source": 0, "target": 1},
             {"op": "produce_block", "chain": 1}]
    timeline = [lock] * 6 + [{"op": "produce_block", "chain": 0}]
    timeline += [lock] * 3 + [{"op": "produce_block", "chain": 0, "count": 3}]
    timeline += relay * 4
    timeline += [{"op": "assert", "check": "exec_count", "swap": i,
                  "expect": 1} for i in range(9)]
    timeline += [{"op": "assert", "check": "backing", "token": "T",
                  "relation": "eq"}]
    runner = Runner(Scenario.from_json({
        "name": "past_the_cap",
        "chains": [{"confirmation_depth": 2, "finality_depth": 3,
                    "relevance_window": 10, "recovery_timeout": 50}] * 2,
        "tokens": ["T"],
        "balances": [{"account": "alice", "token": "T", "amount": 100}],
        "timeline": timeline,
    }))
    result = runner.run()
    assert result.exit_code == 0, result.error or result.violations
    assert [len(r["entries"]) for r in runner.reports] == [4, 4, 1, 0]
    assert [r["outcome"] for r in runner.reports] \
        == ["submitted"] * 3 + ["empty"]


def test_reattestations_go_first_when_a_round_is_past_the_entry_cap(
        monkeypatch):
    """Re-attestations lie behind the cursor, so they are the oldest
    entries of a round and go first; the cursor stops at the first new
    registration left out."""
    lower_entry_cap(monkeypatch, 4)
    w = World()
    for amount in (1, 2):
        w.origin.submit(LockTx(0, ALICE, "T", amount, BOB))
    w.origin.produce_block()
    w.origin.extend("main", w.conf_depth)
    assert [e.amount for e in w.network.extract(w.origin)] == [1, 2]
    old = w.origin.canonical_events()[0].swap_id
    w.network.request_reattestation(old)
    for amount in (3, 4, 5, 6):
        w.origin.submit(LockTx(0, ALICE, "T", amount, BOB))
    w.origin.produce_block()
    w.origin.extend("main", w.conf_depth)
    assert [e.amount for e in w.network.extract(w.origin)] == [1, 3, 4, 5]
    assert [e.amount for e in w.network.extract(w.origin)] == [1, 6]
    # a request stays until a relay round submits it
    assert [e.amount for e in w.network.extract(w.origin)] == [1]


def test_replayer_history_keeps_only_the_entries_it_endorses(monkeypatch):
    """A replayer endorses at most the newest MAX_ENTRIES entries of its
    history, so the network keeps only those: the history stays at the
    cap, and each round the replayer endorses the payload it would from
    every entry extracted so far."""
    lower_entry_cap(monkeypatch, 3)
    w = World(behaviors=[Behavior.HONEST] * 4 + [Behavior.REPLAYER])
    extracted = []          # every entry extracted so far, none dropped
    endorsed = []           # per round: (from the kept history, from all)
    asked = {}
    real = oracles.candidates

    def candidates(behavior, entries, history):
        asked["entries"] = entries
        if behavior == Behavior.REPLAYER:
            endorsed.append((real(behavior, entries, history),
                             real(behavior, entries, list(extracted))))
        return real(behavior, entries, history)

    monkeypatch.setattr(oracles, "candidates", candidates)
    for amounts in ([1, 2], [3], [4, 5], [], [6]):
        for amount in amounts:
            w.origin.submit(LockTx(0, ALICE, "T", amount, BOB))
        w.origin.produce_block()
        w.origin.extend("main", w.conf_depth)
        w.network.relay_round(w.origin, w.destination)
        extracted.extend(asked.pop("entries"))
        assert len(w.network.replay_history[0]) == min(len(extracted), 3)
    assert [e.amount for e in extracted] == [1, 2, 3, 4, 5, 6]
    assert [e.amount for e in w.network.replay_history[0]] == [4, 5, 6]
    assert len(endorsed) == 5
    assert all(kept == full for kept, full in endorsed)


def count_packing(monkeypatch) -> list:
    """Wrap the first step of packing an entry, its validation, which runs
    once per packing: every entry packed is appended to the returned list,
    which keeps it alive, so two packings of one object show as one id
    twice."""
    validate = PayloadEntry.validate
    packed: list = []

    def counted(entry):
        packed.append(entry)
        validate(entry)

    monkeypatch.setattr(PayloadEntry, "validate", counted)
    return packed


def test_replayer_rounds_pack_only_their_new_entries(monkeypatch):
    """With 4 honest oracles and a replayer (threshold 4), a relay round
    packs at most the entries extracted in it: the replayer's history was
    packed in earlier rounds, and its kept bytes are only joined again.
    Neither the reveals nor anything else packs an entry twice."""
    packed = count_packing(monkeypatch)
    scenario = random_happy_scenario(seed=1, swaps=200)
    scenario.oracles = OracleConfig(count=5, threshold=4,
                                    behaviors=["honest"] * 4 + ["replayer"])
    runner = Runner(scenario)
    extract, relay_round = runner.network.extract, runner.network.relay_round
    rounds: list[tuple[int, int]] = []    # (entries extracted, packed)
    extracted: list = []

    def counted_extract(chain):
        entries = extract(chain)
        extracted.append(len(entries))
        return entries

    def counted_relay_round(source, target):
        before = len(packed)
        report = relay_round(source, target)
        rounds.append((extracted[-1], len(packed) - before))
        return report

    runner.network.extract = counted_extract
    runner.network.relay_round = counted_relay_round
    result = runner.run()
    assert result.exit_code == 0, result.violations
    assert len(rounds) >= 50
    assert sum(new for new, _ in rounds) == 200
    assert all(count <= new for new, count in rounds), rounds
    assert len({id(entry) for entry in packed}) == len(packed)


def test_reorg_replays_pack_no_entry_again(monkeypatch):
    """Reveals replayed by the reorg self-check reuse their entries' bytes."""
    packed = count_packing(monkeypatch)
    result = Runner(reorg_scenario(seed=1)).run()
    assert result.exit_code == 0, result.violations
    # the destination reorganized, so the self-check replayed its reveals
    assert any(record.get("reorg") and record["chain"] == 1
               for record in result.records)
    assert packed
    assert len({id(entry) for entry in packed}) == len(packed)


def test_equivocator_second_payload_never_accepted():
    """The equivocator signs two conflicting payloads; at most one pulse is
    ever accepted per round."""
    w = World(behaviors=[Behavior.EQUIVOCATOR] * 3 + [Behavior.HONEST] * 2)
    lock_and_confirm(w)
    report = w.network.relay_round(w.origin, w.destination)
    assert report["outcome"] == "submitted"
    assert not report["forged_chosen"]
    counts = sorted((c["count"] for c in report["candidates"]), reverse=True)
    assert counts == [5, 3]               # twin stalls below the threshold
    w.destination.produce_block()
    accepted = [e for e in w.destination.canonical_events()
                if e.kind == EventKind.PULSE_ACCEPTED]
    assert len(accepted) == 1
    assert w.destination.canonical_state.ledger.supply["swT"] == 100


def test_silent_oracle_signs_nothing():
    w = World(behaviors=[Behavior.SILENT] + [Behavior.HONEST] * 4)
    lock_and_confirm(w)
    report = w.network.relay_round(w.origin, w.destination)
    assert report["outcome"] == "submitted"
    assert 0 not in report["signers"]


def test_liveness_bound_two_rounds():
    """With an honest quorum and no deep reorgs, a registered swap is
    processed within two rounds of reaching the confirmation depth."""
    w = World()
    lock_and_confirm(w)
    rounds = 0
    processed = False
    sid = None
    for _ in range(2):
        rounds += 1
        w.network.relay_round(w.origin, w.destination)
        w.destination.produce_block()
        mint_events = [e for e in w.destination.canonical_events()
                       if e.kind == EventKind.MINT_EXECUTED]
        if mint_events:
            sid = mint_events[0].swap_id
            processed = True
            break
    assert processed and rounds <= 2
    assert w.destination.canonical_state.port.swaps[sid] == \
        SwapStatus.PROCESSED


def test_round_reports_deterministic():
    """Identical worlds produce byte-identical round reports."""
    def play():
        w = World(behaviors=[Behavior.EQUIVOCATOR] + [Behavior.HONEST] * 4)
        lock_and_confirm(w)
        r1 = w.network.relay_round(w.origin, w.destination)
        w.destination.produce_block()
        r2 = w.network.relay_round(w.origin, w.destination)
        return [r1, r2]

    assert play() == play()


def test_reattestation_finds_registration_reincluded_at_new_height():
    """A lock is relayed, its mint is orphaned, and an origin reorg moves
    the lock to a new height the round cursor has already passed. Once the
    swap goes stuck, re-attestation finds it through the canonical swap
    index and it is minted exactly once."""
    # the origin reorg abandons 5 blocks, so the chains' finality depth is 5
    w = World(conf_depth=2, fin_depth=5, timeout=6)
    lock = LockTx(0, ALICE, "T", 100, BOB)
    w.origin.submit(lock)
    w.origin.produce_block()              # lock at h1
    w.origin.extend("main", 4)            # tip h5: round cursor moves to 3
    report = w.network.relay_round(w.origin, w.destination)
    assert report["outcome"] == "submitted"
    w.destination.produce_block()         # mint at destination h1
    w.controller.tick(w.chains)
    sid = w.origin.canonical_events()[0].swap_id

    w.destination.extend(w.destination.fork_at(0, "dest_alt"), 2)
    alt = w.origin.fork_at(0, "alt")
    w.origin.produce_block(alt)
    w.origin.submit(lock)                 # same sender, amount and sequence
    w.origin.produce_block(alt)           # the lock again, now at h2
    w.origin.extend(alt, 4)               # alt wins at h6
    assert [e.block.height for e in w.origin.swap_events(sid)] == [2]
    assert w.network.relay_round(w.origin, w.destination)["outcome"] == "empty"

    w.destination.extend(w.destination.canonical_branch, 6)
    result = w.controller.tick(w.chains)
    assert [bytes.fromhex(s["swap_id"]) for s in result["stuck"]] == [sid]
    w.network.request_reattestation(sid)
    report = w.network.relay_round(w.origin, w.destination)
    assert report["outcome"] == "submitted"
    assert [e["swap_id"] for e in report["entries"]] == [sid.hex()]
    w.destination.produce_block(w.destination.canonical_branch)
    mints = [e for e in w.destination.canonical_events()
             if e.kind == EventKind.MINT_EXECUTED]
    assert [e.swap_id for e in mints] == [sid]
    assert w.destination.canonical_state.ledger.supply["swT"] == 100
    assert sid not in w.network.reattest_requests


def test_delivery_crossing_a_destination_fork_is_not_wedged():
    """A relay submitted just before a destination reorg lands on a branch
    that forked below an earlier delivery. Its pulse is accepted there; the
    reveal must open that pulse by its payload hash. Were it to name the
    pulse by an id guessed from the old branch, the reveal would miss, the
    orphaned pulse would stay open on the winning branch, and every
    re-attestation of the same payload would hit DuplicatePulse for good.
    Each swap is minted exactly once."""
    w = World(conf_depth=2, fin_depth=3, timeout=6)
    dest = w.destination

    def tick():
        for entry in w.controller.tick(w.chains)["stuck"]:
            w.network.request_reattestation(bytes.fromhex(entry["swap_id"]))

    for amount in (5, 6):
        lock_and_confirm(w, amount)
        assert w.network.relay_round(w.origin, dest)["outcome"] == "submitted"
        dest.produce_block()              # mints at destination h1, h2
        tick()
    alt = dest.fork_at(1, "alt")          # keeps the 5-mint, drops the 6-mint
    lock_and_confirm(w, 7)
    assert w.network.relay_round(w.origin, dest)["outcome"] == "submitted"
    dest.extend(alt, 2)                   # the 7-delivery lands on alt h2
    assert dest.canonical_branch == alt

    # the 6-swap goes stuck a block before the 7-swap would, so each is
    # re-attested on its own, with the payload hash of its first delivery
    for _ in range(60):
        tick()
        w.network.relay_round(w.origin, dest)
        dest.produce_block(dest.canonical_branch)

    swap_ids = [e.swap_id for e in w.origin.canonical_events()
                if e.kind == EventKind.LOCK_REGISTERED]
    assert len(swap_ids) == 3
    for swap_id in swap_ids:
        mints = [e for e in dest.swap_events(swap_id)
                 if e.kind == EventKind.MINT_EXECUTED]
        assert len(mints) == 1, swap_id.hex()
    assert dest.canonical_state.ledger.supply["swT"] == 5 + 6 + 7
    assert dest.canonical_state.nebula.pulses == {}


def test_pulse_relayed_before_a_fork_is_accepted_on_the_fork():
    """A relay declares a height that every branch the pending pulse can
    land on contains: the tip minus the finality depth. Declared at the
    tip, a pulse included on a fork below it was rejected FutureHeight, and
    the quorum-signed delivery waited out the recovery timeout."""
    w = World(conf_depth=2, fin_depth=3)
    dest = w.destination
    dest.extend("main", 3)                # destination tip h3
    lock_and_confirm(w, 100)
    report = w.network.relay_round(w.origin, dest)
    assert report["outcome"] == "submitted"
    assert report["declared_height"] == 0    # max(0, 3 - 3)
    alt = dest.fork_at(1, "alt")
    dest.extend(alt, 3)                   # the delivery lands on alt h2
    assert dest.canonical_branch == alt

    block = dest.canonical_chain()[2]
    assert [r.status for r in block.receipts] == ["ok", "ok"]
    assert block.receipts[1].extra == {"entry_outcomes": ["ok"]}
    (swap_id,) = [e.swap_id for e in w.origin.canonical_events()
                  if e.kind == EventKind.LOCK_REGISTERED]
    mints = [e for e in dest.swap_events(swap_id)
             if e.kind == EventKind.MINT_EXECUTED]
    assert len(mints) == 1
    assert dest.canonical_state.ledger.supply["swT"] == 100
