"""Status controller: finality depth, recovery timeout, reorg reverts."""

import pytest

from swapgate import LockTx, SwapStatus
from swapgate.errors import InvalidScenario

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
    finalizers = [t for t in result.transitions if t["to"] == "finalized"]
    assert finalizers and finalizers[0]["reason"] == "execution_depth_3"


def test_tick_idempotent_within_height():
    w = World()
    sid = processed_swap(w)
    first = w.controller.tick(w.chains)
    assert first.transitions
    second = w.controller.tick(w.chains)
    assert second.transitions == []
    assert second.stuck == []
    assert w.controller.status_of(sid) == SwapStatus.PROCESSED


def test_revert_on_execution_reorg():
    w = World(conf_depth=2, fin_depth=3, timeout=6)
    sid = processed_swap(w)
    w.controller.tick(w.chains)
    assert w.controller.status_of(sid) == SwapStatus.PROCESSED

    fork = w.destination.fork_at(0, "alt")
    w.destination.extend(fork, 2)          # mint reorged out
    result = w.controller.tick(w.chains)
    reverted = [t for t in result.transitions if t["revert"]]
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
    assert [s["swap_id"] for s in result.stuck] == [sid.hex()]
    assert result.requeue == [sid]

    # recovery: the flagged swap is re-attested and re-mints exactly once
    w.network.request_reattestation(sid)
    report = w.network.relay_round(w.origin, w.destination)
    assert report.outcome == "submitted"
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
    assert result.stuck == []


def test_registration_reorged_drops_record():
    w = World(conf_depth=2, fin_depth=3, timeout=6)
    w.origin.submit(LockTx(0, ALICE, "T", 100, BOB))
    w.origin.produce_block()
    w.controller.tick(w.chains)
    fork = w.origin.fork_at(0, "alt")
    w.origin.extend(fork, 2)
    result = w.controller.tick(w.chains)
    retractions = [t for t in result.transitions
                   if t["reason"] == "registration_reorged"]
    assert len(retractions) == 1
    assert retractions[0]["to"] is None
    sid = bytes.fromhex(retractions[0]["swap_id"])
    assert w.controller.status_of(sid) is None


def test_deep_reorg_after_finalization_is_fatal():
    # the chains accept the deep reorg that the controller must refuse
    w = World(conf_depth=2, fin_depth=3, timeout=6, reorg_depth=20)
    sid = processed_swap(w)
    for _ in range(3):
        w.destination.produce_block()
    w.controller.tick(w.chains)
    assert w.controller.status_of(sid) == SwapStatus.FINALIZED

    # a reorg beneath the finality depth is a scenario-validation error;
    # driving the chain there by hand must trip the controller's backstop
    fork = w.destination.fork_at(0, "alt")
    w.destination.extend(fork, 5)
    with pytest.raises(InvalidScenario):
        w.controller.tick(w.chains)


def test_reverse_swap_executes_on_origin_chain():
    """For a burn-initiated swap the controller watches the origin chain."""
    from swapgate import BurnTx
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
