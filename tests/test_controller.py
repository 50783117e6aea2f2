"""Status controller: finality depth, recovery timeout, reorg reverts."""

import pytest

from swapgate import BurnTx, LockTx, SwapStatus
from swapgate.errors import BeyondFinality

from conftest import ALICE, BOB, World


def processed_swap(world):
    """Drive one forward swap to an executed (but unfinalized) state."""
    world.origin.submit(LockTx(0, ALICE, "T", 100, BOB))
    world.origin.produce_block()
    for _ in range(world.conf_depth):
        world.origin.produce_block()
    world.network.relay_round(world.origin, world.destination)
    world.destination.produce_block()
    mint = [e for e in world.destination.canonical_events()
            if e.kind.value == "MintExecuted"][0]
    return mint.swap_id


def test_finalizes_exactly_at_depth():
    w = World(fin_depth=3)
    sid = processed_swap(w)
    w.controller.tick(w.chains)
    assert w.controller.status_of(sid) == SwapStatus.PROCESSED

    w.destination.produce_block()
    w.destination.produce_block()          # depth 2 = fin_depth - 1
    w.controller.tick(w.chains)
    assert w.controller.status_of(sid) == SwapStatus.PROCESSED

    w.destination.produce_block()          # depth 3 = fin_depth
    result = w.controller.tick(w.chains)
    assert w.controller.status_of(sid) == SwapStatus.FINALIZED
    finalizers = [t for t in result["transitions"] if t["to"] == "finalized"]
    assert finalizers and finalizers[0]["reason"] == "execution_depth_3"


def test_tick_idempotent_within_height():
    w = World()
    sid = processed_swap(w)
    first = w.controller.tick(w.chains)
    assert first["transitions"]
    second = w.controller.tick(w.chains)
    assert second["transitions"] == []
    assert second["stuck"] == []
    assert w.controller.status_of(sid) == SwapStatus.PROCESSED


def test_revert_on_execution_reorg():
    w = World(conf_depth=2, fin_depth=3, timeout=6)
    sid = processed_swap(w)
    w.controller.tick(w.chains)
    assert w.controller.status_of(sid) == SwapStatus.PROCESSED

    fork = w.destination.fork_at(0, "alt")
    w.destination.extend(fork, 2)          # mint reorged out
    result = w.controller.tick(w.chains)
    reverted = [t for t in result["transitions"] if t["revert"]]
    assert reverted == [{
        "swap_id": sid.hex(), "from": "processed", "to": "registered",
        "reason": "execution_reorged", "revert": True, "chain": 1,
    }]
    assert w.controller.status_of(sid) == SwapStatus.REGISTERED


def test_stuck_after_timeout_requeues_for_reattestation():
    w = World(conf_depth=2, fin_depth=3, timeout=6)
    sid = processed_swap(w)
    w.controller.tick(w.chains)
    fork = w.destination.fork_at(0, "alt")
    w.destination.extend(fork, 2)
    w.controller.tick(w.chains)            # revert, not yet stuck

    for _ in range(6):
        w.destination.produce_block(w.destination.canonical_branch)
    result = w.controller.tick(w.chains)
    assert [s["swap_id"] for s in result["stuck"]] == [sid.hex()]

    # recovery: the flagged swap is re-attested and re-mints exactly once
    w.network.request_reattestation(sid)
    report = w.network.relay_round(w.origin, w.destination)
    assert report["outcome"] == "submitted"
    w.destination.produce_block(w.destination.canonical_branch)
    mints = [e for e in w.destination.canonical_events()
             if e.kind.value == "MintExecuted" and e.swap_id == sid]
    assert len(mints) == 1
    assert w.destination.canonical_state.ledger.supply["swT"] == 100


def test_no_stuck_before_timeout():
    w = World(conf_depth=2, fin_depth=3, timeout=6)
    w.origin.submit(LockTx(0, ALICE, "T", 100, BOB))
    w.origin.produce_block()
    w.controller.tick(w.chains)            # first seen at exec height 0
    for _ in range(6):
        w.destination.produce_block()
    result = w.controller.tick(w.chains)   # waited 6 == timeout, not over it
    assert result["stuck"] == []


def test_registration_reorged_drops_record():
    w = World(conf_depth=2, fin_depth=3, timeout=6)
    w.origin.submit(LockTx(0, ALICE, "T", 100, BOB))
    w.origin.produce_block()
    w.controller.tick(w.chains)
    fork = w.origin.fork_at(0, "alt")
    w.origin.extend(fork, 2)
    result = w.controller.tick(w.chains)
    retractions = [t for t in result["transitions"]
                   if t["reason"] == "registration_reorged"]
    assert len(retractions) == 1
    assert retractions[0]["to"] is None
    sid = bytes.fromhex(retractions[0]["swap_id"])
    assert w.controller.status_of(sid) is None


def test_reorg_below_finalized_execution_is_refused():
    """The depth that finalizes a swap is its chain's reorg bound, so no
    reorg can take a finalized execution away: the chain refuses it."""
    w = World(conf_depth=2, fin_depth=3, timeout=6)
    sid = processed_swap(w)
    for _ in range(3):
        w.destination.produce_block()
    w.controller.tick(w.chains)
    assert w.controller.status_of(sid) == SwapStatus.FINALIZED

    with pytest.raises(BeyondFinality):
        fork = w.destination.fork_at(0, "alt")   # the mint is at height 1
        w.destination.extend(fork, 5)
    result = w.controller.tick(w.chains)
    assert result == {"transitions": [], "stuck": []}
    assert w.controller.status_of(sid) == SwapStatus.FINALIZED


def test_each_chain_finalizes_at_its_own_depth():
    """Origin finality 3, destination 5: a mint finalizes at depth 5 and an
    unlock at depth 3, the depth of the chain that executes the swap."""
    w = World(conf_depth=2, fin_depth={0: 3, 1: 5}, timeout=12)

    def finalizing_ticks(chain, blocks, swap_id):
        """Produce `blocks` blocks on `chain`, ticking after each one; the
        reasons of the swap's finalizing transitions, per tick."""
        reasons = []
        for _ in range(blocks):
            chain.produce_block()
            result = w.controller.tick(w.chains)
            reasons.append([t["reason"] for t in result["transitions"]
                            if t["swap_id"] == swap_id.hex()
                            and t["to"] == "finalized"])
        return reasons

    mint = processed_swap(w)                # mint at destination height 1
    w.controller.tick(w.chains)
    assert w.controller.status_of(mint) == SwapStatus.PROCESSED
    assert finalizing_ticks(w.destination, 5, mint) == \
        [[], [], [], [], ["execution_depth_5"]]

    w.destination.submit(BurnTx(1, BOB, "swT", 40, ALICE))
    for _ in range(1 + w.conf_depth):
        w.destination.produce_block()
    w.network.relay_round(w.destination, w.origin)
    w.origin.produce_block()
    (unlock,) = [e for e in w.origin.canonical_events()
                 if e.kind.value == "UnlockExecuted"]
    w.controller.tick(w.chains)
    assert w.controller.status_of(unlock.swap_id) == SwapStatus.PROCESSED
    assert finalizing_ticks(w.origin, 3, unlock.swap_id) == \
        [[], [], ["execution_depth_3"]]


def test_reverse_swap_executes_on_origin_chain():
    """For a burn-initiated swap the controller watches the origin chain."""
    w = World(conf_depth=2, fin_depth=3, timeout=6)
    processed_swap(w)
    w.destination.submit(BurnTx(1, BOB, "swT", 100, ALICE))
    w.destination.produce_block()
    for _ in range(w.conf_depth):
        w.destination.produce_block()
    w.network.relay_round(w.destination, w.origin)
    w.origin.produce_block()
    unlock = [e for e in w.origin.canonical_events()
              if e.kind.value == "UnlockExecuted"][0]
    for _ in range(3):
        w.origin.produce_block()
    w.controller.tick(w.chains)
    assert w.controller.status_of(unlock.swap_id) == SwapStatus.FINALIZED
