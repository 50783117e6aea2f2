"""Port contracts: swap ids, lifecycle, attested execution, replay guard."""

import copy

import pytest

from swapgate import (
    Direction,
    EventKind,
    IB_PORT_ADDRESS,
    LU_PORT_ADDRESS,
    LockTx,
    BurnTx,
    NEBULA_ADDRESS,
    PayloadEntry,
    SwapStatus,
    derive_swap_id,
)
from swapgate.chain import BlockCtx, BlockRef
from swapgate.encoding import MAX_AMOUNT
from swapgate.errors import (
    DuplicateExecution,
    InsufficientLocked,
    NotAuthorized,
    NotWrappedToken,
    UnknownSwap,
    UnknownToken,
    WrongChainReceiver,
    ZeroAmount,
)

from conftest import ALICE, BOB, World

from reference_codec import ref_swap_id


def ctx_for(chain):
    tip = chain.canonical_tip
    return BlockCtx(BlockRef(chain.chain_id, "main", tip.height + 1,
                             b"\xee" * 32), chain.accounts)


def lock_on(world, amount=100, sender=ALICE, receiver=BOB):
    world.origin.submit(LockTx(0, sender, "T", amount, receiver))
    ref = world.origin.produce_block()
    block = world.origin.blocks[ref.block_hash]
    events = [e for e in block.events if e.kind == EventKind.LOCK_REGISTERED]
    return events[0] if events else None


def entry_for(event):
    return PayloadEntry(
        direction=Direction.ORIGIN_TO_DESTINATION,
        swap_id=event.swap_id,
        symbol=event.payload["symbol"],
        origin_chain=event.payload["origin_chain"],
        receiver=bytes.fromhex(event.payload["receiver"]["address"]),
        amount=event.payload["amount"],
    )


def test_lock_registers_swap(world):
    event = lock_on(world, 100)
    state = world.origin.canonical_state
    assert state.port.swaps[event.swap_id] == SwapStatus.REGISTERED
    assert (event.payload["sender"], event.payload["receiver"]) == \
        (ALICE.to_json(), BOB.to_json())
    assert state.ledger.locked["T"] == 100


def test_lock_zero_amount_rejected(world):
    world.origin.submit(LockTx(0, ALICE, "T", 0, BOB))
    ref = world.origin.produce_block()
    receipt = world.origin.blocks[ref.block_hash].receipts[0]
    assert receipt.status == "ZeroAmount"


def rejected_in_its_block(chain, tx):
    """Include `tx` alone in a new block; its receipt status, and whether
    the block's state equals its parent's."""
    chain.submit(tx)
    ref = chain.produce_block()
    block = chain.blocks[ref.block_hash]
    unchanged = chain.states[ref.block_hash] == chain.states[block.parent_hash]
    return block.receipts[0].status, unchanged


def test_lock_beyond_u64_rejected_before_any_write():
    """A swap id packs the amount as a u64, so a larger lock is refused
    before the ledger moves: the tx gets a receipt, the run goes on."""
    world = World(initial=2**64)
    assert rejected_in_its_block(
        world.origin, LockTx(0, ALICE, "T", MAX_AMOUNT + 1, BOB)) == \
        ("AmountTooLarge", True)


def test_burn_beyond_u64_rejected_before_any_write(world):
    entries = [PayloadEntry(Direction.ORIGIN_TO_DESTINATION, bytes([i]) * 32,
                            "T", 0, BOB.address, 2**63) for i in (1, 2)]
    for entry in entries:
        for tx in world.attested(1, [entry]):
            world.destination.submit(tx)
    world.destination.produce_block()
    assert world.destination.canonical_state.ledger.supply["swT"] == 2**64
    assert rejected_in_its_block(
        world.destination, BurnTx(1, BOB, "swT", 2**64, ALICE)) == \
        ("AmountTooLarge", True)


def test_lock_wrong_chain_receiver(world):
    state = world.origin.canonical_state
    with pytest.raises(WrongChainReceiver):
        state.port.lock(state.ledger, state.tokens, ctx_for(world.origin),
                        ALICE, "T", 10, ALICE)  # receiver on origin chain


def test_identical_locks_get_distinct_ids(world):
    e1 = lock_on(world, 100)
    e2 = lock_on(world, 100)
    assert e1.swap_id != e2.swap_id
    # the sequence number is the only differing input
    assert e1.swap_id == ref_swap_id(0, 0, LU_PORT_ADDRESS, ALICE.address,
                                     BOB.address, 100, 0)
    assert e2.swap_id == ref_swap_id(0, 0, LU_PORT_ADDRESS, ALICE.address,
                                     BOB.address, 100, 1)


@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize("port", [LU_PORT_ADDRESS, IB_PORT_ADDRESS],
                         ids=["lu_port", "ib_port"])
@pytest.mark.parametrize("amount", [1, 123, MAX_AMOUNT])
@pytest.mark.parametrize("seq", [0, 7, 2**64 - 1])
def test_swap_id_matches_reference_derivation(direction, port, amount, seq):
    """The id's preimage is the reference's at the bounds of each field."""
    sid = derive_swap_id(direction, 0, port, BOB.address, ALICE.address,
                         amount, seq)
    assert sid == ref_swap_id(int(direction), 0, port, BOB.address,
                              ALICE.address, amount, seq)


def test_mint_attested_happy(world):
    event = lock_on(world, 100)
    state = world.destination.canonical_state
    ctx = ctx_for(world.destination)
    swap_id = state.port.execute_attested(state.ledger, state.tokens, ctx,
                                          entry_for(event),
                                          caller=NEBULA_ADDRESS)
    assert swap_id == event.swap_id
    assert state.port.swaps[swap_id] == SwapStatus.PROCESSED
    assert state.ledger.supply["swT"] == 100
    wrapped = state.tokens.get("swT")
    assert wrapped is not None
    assert wrapped.wrapped_of.symbol == "T"
    assert [e.kind for e in ctx.events] == [EventKind.MINT_EXECUTED]


def test_mint_requires_router_caller(world):
    event = lock_on(world, 100)
    state = world.destination.canonical_state
    with pytest.raises(NotAuthorized):
        state.port.execute_attested(state.ledger, state.tokens,
                                    ctx_for(world.destination),
                                    entry_for(event), caller=ALICE.address)


def test_mint_replay_rejected(world):
    event = lock_on(world, 100)
    state = world.destination.canonical_state
    entry = entry_for(event)
    state.port.execute_attested(state.ledger, state.tokens,
                                ctx_for(world.destination), entry,
                                caller=NEBULA_ADDRESS)
    with pytest.raises(DuplicateExecution):
        state.port.execute_attested(state.ledger, state.tokens,
                                    ctx_for(world.destination), entry,
                                    caller=NEBULA_ADDRESS)
    assert state.ledger.supply["swT"] == 100


def test_mint_foreign_chain_token_rejected(world):
    event = lock_on(world, 100)
    entry = entry_for(event)
    forged = PayloadEntry(entry.direction, entry.swap_id, entry.symbol,
                          5, entry.receiver, entry.amount)
    state = world.destination.canonical_state
    with pytest.raises(UnknownToken):
        state.port.execute_attested(state.ledger, state.tokens,
                                    ctx_for(world.destination), forged,
                                    caller=NEBULA_ADDRESS)


def test_burn_registers_reverse_swap(world):
    event = lock_on(world, 100)
    dstate = world.destination.canonical_state
    dstate.port.execute_attested(dstate.ledger, dstate.tokens,
                                 ctx_for(world.destination), entry_for(event),
                                 caller=NEBULA_ADDRESS)
    ctx = ctx_for(world.destination)
    swap_id = dstate.port.burn(dstate.ledger, dstate.tokens, ctx,
                               BOB, "swT", 100, ALICE)
    # the id derives from the return direction and the original token's chain
    assert swap_id == derive_swap_id(Direction.DESTINATION_TO_ORIGIN, 0,
                                     IB_PORT_ADDRESS, BOB.address,
                                     ALICE.address, 100, 0)
    assert dstate.port.swaps[swap_id] == SwapStatus.REGISTERED
    assert dstate.ledger.supply.get("swT", 0) == 0
    assert [(e.kind, e.swap_id) for e in ctx.events] == \
        [(EventKind.BURN_REGISTERED, swap_id)]
    assert ctx.events[0].payload == {
        "symbol": "T", "origin_chain": 0, "sender": BOB.to_json(),
        "receiver": ALICE.to_json(), "amount": 100}


def test_burn_more_than_held(world):
    event = lock_on(world, 100)
    dstate = world.destination.canonical_state
    dstate.port.execute_attested(dstate.ledger, dstate.tokens,
                                 ctx_for(world.destination), entry_for(event),
                                 caller=NEBULA_ADDRESS)
    from swapgate.errors import InsufficientBalance
    with pytest.raises(InsufficientBalance):
        dstate.port.burn(dstate.ledger, dstate.tokens,
                         ctx_for(world.destination), BOB, "swT", 500, ALICE)
    assert not dstate.port.swaps.keys() - {event.swap_id}


def test_burn_non_wrapped_rejected(world):
    dstate = world.destination.canonical_state
    with pytest.raises(UnknownToken):
        dstate.port.burn(dstate.ledger, dstate.tokens,
                         ctx_for(world.destination), BOB, "T", 10, ALICE)
    # a registered but unwrapped token is rejected for what it is
    from swapgate.ledger import TokenId
    dstate.tokens["NATIVE"] = TokenId("NATIVE", 1)
    with pytest.raises(NotWrappedToken):
        dstate.port.burn(dstate.ledger, dstate.tokens,
                         ctx_for(world.destination), BOB, "NATIVE", 10, ALICE)


def test_burn_zero_amount(world):
    dstate = world.destination.canonical_state
    with pytest.raises(ZeroAmount):
        dstate.port.burn(dstate.ledger, dstate.tokens,
                         ctx_for(world.destination), BOB, "swT", 0, ALICE)


def test_unlock_attested_roundtrip_restores_ledgers(world):
    """lock -> mint -> burn -> unlock leaves both ledgers exactly as they
    started."""
    initial0 = copy.deepcopy(world.origin.canonical_state.ledger)
    initial1 = copy.deepcopy(world.destination.canonical_state.ledger)

    event = lock_on(world, 100)
    dstate = world.destination.canonical_state
    dstate.port.execute_attested(dstate.ledger, dstate.tokens,
                                 ctx_for(world.destination), entry_for(event),
                                 caller=NEBULA_ADDRESS)
    burn_ctx = ctx_for(world.destination)
    burn_id = dstate.port.burn(dstate.ledger, dstate.tokens, burn_ctx,
                               BOB, "swT", 100, ALICE)
    burn_event = burn_ctx.events[0]

    ostate = world.origin.canonical_state
    back = PayloadEntry(Direction.DESTINATION_TO_ORIGIN, burn_id,
                        "T", 0, ALICE.address, 100)
    swap_id = ostate.port.execute_attested(ostate.ledger, ostate.tokens,
                                           ctx_for(world.origin), back,
                                           caller=NEBULA_ADDRESS)
    assert ostate.port.swaps[swap_id] == SwapStatus.PROCESSED
    assert burn_event.payload["amount"] == 100
    assert ostate.ledger == initial0
    assert dstate.ledger == initial1


def test_unlock_replay_rejected(world):
    lock_on(world, 100)
    ostate = world.origin.canonical_state
    entry = PayloadEntry(Direction.DESTINATION_TO_ORIGIN, b"\x11" * 32, "T", 0,
                         ALICE.address, 40)
    ostate.port.execute_attested(ostate.ledger, ostate.tokens,
                                 ctx_for(world.origin), entry,
                                 caller=NEBULA_ADDRESS)
    before = copy.deepcopy(ostate.ledger)
    with pytest.raises(DuplicateExecution):
        ostate.port.execute_attested(ostate.ledger, ostate.tokens,
                                     ctx_for(world.origin), entry,
                                     caller=NEBULA_ADDRESS)
    assert ostate.ledger == before


def test_unlock_beyond_locked_pool_rejected(world):
    """A forged amount larger than the locked pool cannot drain the port."""
    lock_on(world, 100)
    ostate = world.origin.canonical_state
    before = copy.deepcopy(ostate.ledger)
    forged = PayloadEntry(Direction.DESTINATION_TO_ORIGIN, b"\x22" * 32, "T", 0,
                          ALICE.address, 101)
    with pytest.raises(InsufficientLocked):
        ostate.port.execute_attested(ostate.ledger, ostate.tokens,
                                     ctx_for(world.origin), forged,
                                     caller=NEBULA_ADDRESS)
    assert ostate.ledger == before


def test_unlock_requires_router(world):
    ostate = world.origin.canonical_state
    entry = PayloadEntry(Direction.DESTINATION_TO_ORIGIN, b"\x33" * 32, "T", 0,
                         ALICE.address, 1)
    with pytest.raises(NotAuthorized):
        ostate.port.execute_attested(ostate.ledger, ostate.tokens,
                                     ctx_for(world.origin), entry,
                                     caller=ALICE.address)


def test_unlock_wrong_direction_rejected(world):
    ostate = world.origin.canonical_state
    entry = PayloadEntry(Direction.ORIGIN_TO_DESTINATION, b"\x44" * 32, "T", 0,
                         ALICE.address, 1)
    with pytest.raises(UnknownSwap):
        ostate.port.execute_attested(ostate.ledger, ostate.tokens,
                                     ctx_for(world.origin), entry,
                                     caller=NEBULA_ADDRESS)


def test_status_queries(world):
    event = lock_on(world, 100)
    ostate = world.origin.canonical_state
    assert ostate.port.swaps.get(event.swap_id) == SwapStatus.REGISTERED
    assert ostate.port.swaps.get(b"\x00" * 32) is None

    dstate = world.destination.canonical_state
    dstate.port.execute_attested(dstate.ledger, dstate.tokens,
                                 ctx_for(world.destination), entry_for(event),
                                 caller=NEBULA_ADDRESS)
    assert dstate.port.swaps.get(event.swap_id) == SwapStatus.PROCESSED


def test_status_never_regresses_on_port(world):
    """Port-side statuses only ever step forward: a processed swap cannot be
    executed, or stored, again."""
    event = lock_on(world, 100)
    dstate = world.destination.canonical_state
    swap_id = dstate.port.execute_attested(dstate.ledger, dstate.tokens,
                                           ctx_for(world.destination),
                                           entry_for(event),
                                           caller=NEBULA_ADDRESS)
    with pytest.raises(DuplicateExecution):
        dstate.port.execute_attested(dstate.ledger, dstate.tokens,
                                     ctx_for(world.destination),
                                     entry_for(event), caller=NEBULA_ADDRESS)
    assert dstate.port.swaps == {swap_id: SwapStatus.PROCESSED}


def test_events_pair_with_ledger_changes(world):
    """Trace completeness: a port action that changes the ledger always
    leaves an event behind."""
    event = lock_on(world, 100)
    assert event is not None
    world.origin.submit(BurnTx(0, ALICE, "T", 50, BOB))  # wrong chain: no port
    ref = world.origin.produce_block()
    block = world.origin.blocks[ref.block_hash]
    assert block.receipts[0].status == "WrongChain"
    assert block.events == []


def test_attested_execution_stores_one_processed_record(world):
    """An attested mint stores its swap once, already processed; the
    origin's lock status is untouched."""
    event = lock_on(world, 100)
    dstate = world.destination.canonical_state
    ctx = ctx_for(world.destination)
    dstate.port.execute_attested(dstate.ledger, dstate.tokens, ctx,
                                 entry_for(event), caller=NEBULA_ADDRESS)
    assert dstate.port.swaps == {event.swap_id: SwapStatus.PROCESSED}
    assert world.origin.canonical_state.port.swaps == \
        {event.swap_id: SwapStatus.REGISTERED}


def test_zero_amount_entry_for_new_token_leaves_no_state(world):
    """A quorum-signed entry that the mint rejects registers no wrapped
    token and touches no balance."""
    entry = PayloadEntry(Direction.ORIGIN_TO_DESTINATION, b"\x01" * 32, "T",
                         0, BOB.address, 0)
    before = world.destination.canonical_state
    tokens, ledger = copy.deepcopy((before.tokens, before.ledger))
    for tx in world.attested(1, [entry]):
        world.destination.submit(tx)
    ref = world.destination.produce_block()

    pulse, reveal = world.destination.blocks[ref.block_hash].receipts
    assert (pulse.status, reveal.status) == ("ok", "ok")
    assert reveal.extra == {"entry_outcomes": ["ZeroAmount"]}
    after = world.destination.canonical_state
    assert after.tokens == tokens == {}
    assert after.ledger == ledger
    assert after.port.swaps == {}


def deliver(world, chain_id, entries):
    """Submit a quorum-signed pulse and its reveal to one chain and produce
    the block; returns the reveal's receipt."""
    chain = world.chains[chain_id]
    for tx in world.attested(chain_id, entries):
        chain.submit(tx)
    ref = chain.produce_block()
    pulse, reveal = chain.blocks[ref.block_hash].receipts
    assert pulse.status == "ok"
    return reveal


def test_attested_lock_id_sent_back_to_origin_is_refused(world):
    """A quorum-signed return entry carrying the id of a lock the origin
    port registered is refused before the unlock; the block is built."""
    event = lock_on(world, 100)
    before = copy.deepcopy(world.origin.canonical_state)
    forged = PayloadEntry(Direction.DESTINATION_TO_ORIGIN, event.swap_id, "T",
                          0, ALICE.address, 50)
    reveal = deliver(world, 0, [forged])
    assert (reveal.status, reveal.extra) == \
        ("ok", {"entry_outcomes": ["UnknownSwap"]})
    after = world.origin.canonical_state
    assert after.ledger == before.ledger
    assert after.port == before.port
    assert world.origin.pending == []


def test_attested_burn_id_sent_to_destination_is_refused(world):
    """A quorum-signed outbound entry carrying the id of a burn the
    destination port registered is refused before the mint."""
    reveal = deliver(world, 1, [entry_for(lock_on(world, 100))])
    assert reveal.extra == {"entry_outcomes": ["ok"]}
    world.destination.submit(BurnTx(1, BOB, "swT", 40, ALICE))
    ref = world.destination.produce_block()
    burn_id = world.destination.blocks[ref.block_hash].events[0].swap_id
    before = copy.deepcopy(world.destination.canonical_state)
    assert before.port.swaps[burn_id] == SwapStatus.REGISTERED
    forged = PayloadEntry(Direction.ORIGIN_TO_DESTINATION, burn_id, "T", 0,
                          BOB.address, 40)
    reveal = deliver(world, 1, [forged])
    assert (reveal.status, reveal.extra) == \
        ("ok", {"entry_outcomes": ["UnknownSwap"]})
    after = world.destination.canonical_state
    assert after.ledger == before.ledger
    assert after.port == before.port
    assert after.tokens == before.tokens
