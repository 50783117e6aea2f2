"""Oracle network: extraction, quorum selection, Byzantine containment."""

import itertools

from swapgate import Behavior, EventKind, LockTx
from swapgate.encoding import encode_payload
from swapgate.oracles import ATTACKER_ADDRESS, candidates

from conftest import ALICE, BOB, World

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
    assert report.outcome == "submitted"
    assert report.signers == [0, 1, 2, 3, 4]
    assert not report.forged_chosen
    w.destination.produce_block()
    assert w.destination.canonical_state.ledger.supply["swT"] == 100


def test_two_wrong_amount_oracles_lose_quorum():
    """threshold-1 honest extractions cannot submit; the round is lost but
    nothing forged gets through."""
    w = World(behaviors=[Behavior.WRONG_AMOUNT, Behavior.WRONG_AMOUNT,
                         Behavior.HONEST, Behavior.HONEST, Behavior.HONEST])
    lock_and_confirm(w)
    report = w.network.relay_round(w.origin, w.destination)
    assert report.outcome == "no_quorum"
    counts = {c["hash"]: c["count"] for c in report.candidates}
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
    assert report.outcome == "submitted"
    assert report.signers == [1, 2, 3, 4]
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
    assert first.outcome == "submitted"   # empty history: identical payloads
    w.destination.produce_block()
    assert w.destination.canonical_state.ledger.supply["swT"] == 100

    lock_and_confirm(w, amount=40)
    second = w.network.relay_round(w.origin, w.destination)
    assert second.outcome == "submitted"
    assert second.forged_chosen           # contains the replayed entry
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


def test_equivocator_second_payload_never_accepted():
    """The equivocator signs two conflicting payloads; at most one pulse is
    ever accepted per round."""
    w = World(behaviors=[Behavior.EQUIVOCATOR] * 3 + [Behavior.HONEST] * 2)
    lock_and_confirm(w)
    report = w.network.relay_round(w.origin, w.destination)
    assert report.outcome == "submitted"
    assert not report.forged_chosen
    counts = sorted((c["count"] for c in report.candidates), reverse=True)
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
    assert report.outcome == "submitted"
    assert 0 not in report.signers


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
    assert w.destination.canonical_state.ib_port.status(sid).label == "processed"


def test_round_reports_deterministic():
    """Identical worlds produce byte-identical round reports."""
    def play():
        w = World(behaviors=[Behavior.EQUIVOCATOR] + [Behavior.HONEST] * 4)
        lock_and_confirm(w)
        r1 = w.network.relay_round(w.origin, w.destination)
        w.destination.produce_block()
        r2 = w.network.relay_round(w.origin, w.destination)
        return [r1.to_json(), r2.to_json()]

    assert play() == play()


def test_reattestation_finds_registration_reincluded_at_new_height():
    """A lock is relayed, its mint is orphaned, and an origin reorg moves
    the lock to a new height the round cursor has already passed. Once the
    swap goes stuck, re-attestation finds it through the canonical swap
    index and it is minted exactly once."""
    # the origin reorg abandons 5 blocks, past the controller's finality
    w = World(conf_depth=2, fin_depth=3, timeout=6, reorg_depth=5)
    lock = LockTx(0, ALICE, "T", 100, BOB)
    w.origin.submit(lock)
    w.origin.produce_block()              # lock at h1
    w.origin.extend("main", 4)            # tip h5: round cursor moves to 3
    assert w.network.relay_round(w.origin, w.destination).outcome == "submitted"
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
    assert w.network.relay_round(w.origin, w.destination).outcome == "empty"

    w.destination.extend(w.destination.canonical_branch, 6)
    result = w.controller.tick(w.chains)
    assert result.requeue == [sid]
    w.network.request_reattestation(sid)
    report = w.network.relay_round(w.origin, w.destination)
    assert report.outcome == "submitted"
    assert [e["swap_id"] for e in report.entries] == [sid.hex()]
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
        for swap_id in w.controller.tick(w.chains).requeue:
            w.network.request_reattestation(swap_id)

    for amount in (5, 6):
        lock_and_confirm(w, amount)
        assert w.network.relay_round(w.origin, dest).outcome == "submitted"
        dest.produce_block()              # mints at destination h1, h2
        tick()
    alt = dest.fork_at(1, "alt")          # keeps the 5-mint, drops the 6-mint
    lock_and_confirm(w, 7)
    assert w.network.relay_round(w.origin, dest).outcome == "submitted"
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
    assert dest.canonical_state.nebula.unconsumed == {}
