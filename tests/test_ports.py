"""Port contracts: swap ids, lifecycle, attested execution, replay guard."""

import dataclasses

import pytest

from swapgate import (
    Direction,
    EventKind,
    LockTx,
    BurnTx,
    NEBULA_ADDRESS,
    PayloadEntry,
    SwapStatus,
    derive_swap_id,
)
from swapgate.chain import BlockCtx, BlockRef
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
from swapgate.gateway import LU_PORT_ADDRESS, IB_PORT_ADDRESS

from conftest import ALICE, BOB

from reference_codec import ref_swap_id


def ctx_for(chain, branch="main"):
    tip = chain.canonical_tip
    return BlockCtx(BlockRef(chain.chain_id, branch, tip.height + 1,
                             b"\xee" * 32))


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
    record = state.lu_port.record(event.swap_id)
    assert record.status == SwapStatus.REGISTERED
    assert record.sender == ALICE and record.receiver == BOB
    assert state.ledger.locked["T"] == 100


def test_lock_zero_amount_rejected(world):
    world.origin.submit(LockTx(0, ALICE, "T", 0, BOB))
    ref = world.origin.produce_block()
    receipt = world.origin.blocks[ref.block_hash].receipts[0]
    assert receipt.status == "ZeroAmount"


def test_lock_wrong_chain_receiver(world):
    state = world.origin.canonical_state
    with pytest.raises(WrongChainReceiver):
        state.lu_port.lock(state.ledger, state.tokens, ctx_for(world.origin),
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


def test_swap_id_matches_reference_derivation():
    sid = derive_swap_id(Direction.DESTINATION_TO_ORIGIN, 0, IB_PORT_ADDRESS,
                         BOB.address, ALICE.address, 123, 7)
    assert sid == ref_swap_id(1, 0, IB_PORT_ADDRESS, BOB.address,
                              ALICE.address, 123, 7)


def test_mint_attested_happy(world):
    event = lock_on(world, 100)
    state = world.destination.canonical_state
    ctx = ctx_for(world.destination)
    record = state.ib_port.mint_attested(state.ledger, state.tokens, ctx,
                                         entry_for(event),
                                         caller=NEBULA_ADDRESS)
    assert record.status == SwapStatus.PROCESSED
    assert state.ledger.supply["swT"] == 100
    wrapped = state.tokens.get("swT")
    assert wrapped is not None
    assert wrapped.wrapped_of.symbol == "T"
    assert [e.kind for e in ctx.events] == [EventKind.MINT_EXECUTED]


def test_mint_requires_router_caller(world):
    event = lock_on(world, 100)
    state = world.destination.canonical_state
    with pytest.raises(NotAuthorized):
        state.ib_port.mint_attested(state.ledger, state.tokens,
                                    ctx_for(world.destination),
                                    entry_for(event), caller=ALICE.address)


def test_mint_replay_rejected(world):
    event = lock_on(world, 100)
    state = world.destination.canonical_state
    entry = entry_for(event)
    state.ib_port.mint_attested(state.ledger, state.tokens,
                                ctx_for(world.destination), entry,
                                caller=NEBULA_ADDRESS)
    with pytest.raises(DuplicateExecution):
        state.ib_port.mint_attested(state.ledger, state.tokens,
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
        state.ib_port.mint_attested(state.ledger, state.tokens,
                                    ctx_for(world.destination), forged,
                                    caller=NEBULA_ADDRESS)


def test_burn_registers_reverse_swap(world):
    event = lock_on(world, 100)
    dstate = world.destination.canonical_state
    dstate.ib_port.mint_attested(dstate.ledger, dstate.tokens,
                                 ctx_for(world.destination), entry_for(event),
                                 caller=NEBULA_ADDRESS)
    ctx = ctx_for(world.destination)
    record = dstate.ib_port.burn(dstate.ledger, dstate.tokens, ctx,
                                 BOB, "swT", 100, ALICE)
    assert record.direction == Direction.DESTINATION_TO_ORIGIN
    assert record.status == SwapStatus.REGISTERED
    assert record.token.symbol == "T"
    assert dstate.ledger.supply.get("swT", 0) == 0
    assert [e.kind for e in ctx.events] == [EventKind.BURN_REGISTERED]


def test_burn_more_than_held(world):
    event = lock_on(world, 100)
    dstate = world.destination.canonical_state
    dstate.ib_port.mint_attested(dstate.ledger, dstate.tokens,
                                 ctx_for(world.destination), entry_for(event),
                                 caller=NEBULA_ADDRESS)
    from swapgate.errors import InsufficientBalance
    with pytest.raises(InsufficientBalance):
        dstate.ib_port.burn(dstate.ledger, dstate.tokens,
                            ctx_for(world.destination), BOB, "swT", 500, ALICE)
    assert not dstate.ib_port.swaps.keys() - {event.swap_id}


def test_burn_non_wrapped_rejected(world):
    dstate = world.destination.canonical_state
    with pytest.raises(UnknownToken):
        dstate.ib_port.burn(dstate.ledger, dstate.tokens,
                            ctx_for(world.destination), BOB, "T", 10, ALICE)
    # a registered but unwrapped token is rejected for what it is
    from swapgate.ledger import TokenId
    dstate.tokens.register(TokenId("NATIVE", 1))
    with pytest.raises(NotWrappedToken):
        dstate.ib_port.burn(dstate.ledger, dstate.tokens,
                            ctx_for(world.destination), BOB, "NATIVE", 10, ALICE)


def test_burn_zero_amount(world):
    dstate = world.destination.canonical_state
    with pytest.raises(ZeroAmount):
        dstate.ib_port.burn(dstate.ledger, dstate.tokens,
                            ctx_for(world.destination), BOB, "swT", 0, ALICE)


def test_unlock_attested_roundtrip_restores_ledgers(world):
    """lock -> mint -> burn -> unlock leaves both ledgers exactly as they
    started."""
    initial0 = world.origin.canonical_state.ledger.summary()
    initial1 = world.destination.canonical_state.ledger.summary()

    event = lock_on(world, 100)
    dstate = world.destination.canonical_state
    dstate.ib_port.mint_attested(dstate.ledger, dstate.tokens,
                                 ctx_for(world.destination), entry_for(event),
                                 caller=NEBULA_ADDRESS)
    burn_ctx = ctx_for(world.destination)
    burn_rec = dstate.ib_port.burn(dstate.ledger, dstate.tokens, burn_ctx,
                                   BOB, "swT", 100, ALICE)
    burn_event = burn_ctx.events[0]

    ostate = world.origin.canonical_state
    back = PayloadEntry(Direction.DESTINATION_TO_ORIGIN, burn_rec.swap_id,
                        "T", 0, ALICE.address, 100)
    record = ostate.lu_port.unlock_attested(ostate.ledger, ostate.tokens,
                                            ctx_for(world.origin), back,
                                            caller=NEBULA_ADDRESS)
    assert record.status == SwapStatus.PROCESSED
    assert burn_event.payload["amount"] == 100
    assert ostate.ledger.summary() == initial0
    assert dstate.ledger.summary() == initial1


def test_unlock_replay_rejected(world):
    lock_on(world, 100)
    ostate = world.origin.canonical_state
    entry = PayloadEntry(Direction.DESTINATION_TO_ORIGIN, b"\x11" * 32, "T", 0,
                         ALICE.address, 40)
    ostate.lu_port.unlock_attested(ostate.ledger, ostate.tokens,
                                   ctx_for(world.origin), entry,
                                   caller=NEBULA_ADDRESS)
    before = ostate.ledger.summary()
    with pytest.raises(DuplicateExecution):
        ostate.lu_port.unlock_attested(ostate.ledger, ostate.tokens,
                                       ctx_for(world.origin), entry,
                                       caller=NEBULA_ADDRESS)
    assert ostate.ledger.summary() == before


def test_unlock_beyond_locked_pool_rejected(world):
    """A forged amount larger than the locked pool cannot drain the port."""
    lock_on(world, 100)
    ostate = world.origin.canonical_state
    before = ostate.ledger.summary()
    forged = PayloadEntry(Direction.DESTINATION_TO_ORIGIN, b"\x22" * 32, "T", 0,
                          ALICE.address, 101)
    with pytest.raises(InsufficientLocked):
        ostate.lu_port.unlock_attested(ostate.ledger, ostate.tokens,
                                       ctx_for(world.origin), forged,
                                       caller=NEBULA_ADDRESS)
    assert ostate.ledger.summary() == before


def test_unlock_requires_router(world):
    ostate = world.origin.canonical_state
    entry = PayloadEntry(Direction.DESTINATION_TO_ORIGIN, b"\x33" * 32, "T", 0,
                         ALICE.address, 1)
    with pytest.raises(NotAuthorized):
        ostate.lu_port.unlock_attested(ostate.ledger, ostate.tokens,
                                       ctx_for(world.origin), entry,
                                       caller=ALICE.address)


def test_unlock_wrong_direction_rejected(world):
    ostate = world.origin.canonical_state
    entry = PayloadEntry(Direction.ORIGIN_TO_DESTINATION, b"\x44" * 32, "T", 0,
                         ALICE.address, 1)
    with pytest.raises(UnknownSwap):
        ostate.lu_port.unlock_attested(ostate.ledger, ostate.tokens,
                                       ctx_for(world.origin), entry,
                                       caller=NEBULA_ADDRESS)


def test_status_queries(world):
    event = lock_on(world, 100)
    ostate = world.origin.canonical_state
    assert ostate.lu_port.status(event.swap_id) == SwapStatus.REGISTERED
    with pytest.raises(UnknownSwap):
        ostate.lu_port.status(b"\x00" * 32)

    dstate = world.destination.canonical_state
    dstate.ib_port.mint_attested(dstate.ledger, dstate.tokens,
                                 ctx_for(world.destination), entry_for(event),
                                 caller=NEBULA_ADDRESS)
    assert dstate.ib_port.status(event.swap_id) == SwapStatus.PROCESSED


def test_status_never_regresses_on_port(world):
    """Port-side statuses only ever step forward: a processed swap cannot be
    executed, or stored, again."""
    event = lock_on(world, 100)
    dstate = world.destination.canonical_state
    record = dstate.ib_port.mint_attested(dstate.ledger, dstate.tokens,
                                          ctx_for(world.destination),
                                          entry_for(event),
                                          caller=NEBULA_ADDRESS)
    with pytest.raises(DuplicateExecution):
        dstate.ib_port.mint_attested(dstate.ledger, dstate.tokens,
                                     ctx_for(world.destination),
                                     entry_for(event), caller=NEBULA_ADDRESS)
    assert dstate.ib_port.record(event.swap_id) is record
    assert record.status == SwapStatus.PROCESSED


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


def test_swap_record_is_frozen(world):
    event = lock_on(world, 100)
    record = world.origin.canonical_state.lu_port.record(event.swap_id)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.status = SwapStatus.PROCESSED
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.amount = 1


def test_attested_execution_stores_one_processed_record(world):
    """An attested mint stores its record once, already processed, naming
    its block without the branch; the origin's lock record is untouched."""
    event = lock_on(world, 100)
    lock_record = world.origin.canonical_state.lu_port.record(event.swap_id)
    dstate = world.destination.canonical_state
    ctx = ctx_for(world.destination)
    record = dstate.ib_port.mint_attested(dstate.ledger, dstate.tokens, ctx,
                                          entry_for(event),
                                          caller=NEBULA_ADDRESS)
    assert dstate.ib_port.record(event.swap_id) is record
    assert (record.status, record.registered_at, record.processed_at) == \
        (SwapStatus.PROCESSED, ctx.block_id, ctx.block_id)
    assert ctx.block_id == ctx_for(world.destination, branch="alt").block_id
    assert (lock_record.status, lock_record.processed_at) == \
        (SwapStatus.REGISTERED, None)


def test_zero_amount_entry_for_new_token_leaves_no_state(world):
    """A quorum-signed entry that the mint rejects registers no wrapped
    token and touches no balance."""
    entry = PayloadEntry(Direction.ORIGIN_TO_DESTINATION, b"\x01" * 32, "T",
                         0, BOB.address, 0)
    before = world.destination.canonical_state
    tokens, ledger = before.tokens.summary(), before.ledger.summary()
    for tx in world.attested(1, [entry]):
        world.destination.submit(tx)
    ref = world.destination.produce_block()

    pulse, reveal = world.destination.blocks[ref.block_hash].receipts
    assert (pulse.status, reveal.status) == ("ok", "ok")
    assert reveal.extra == {"entry_outcomes": ["ZeroAmount"]}
    after = world.destination.canonical_state
    assert after.tokens.summary() == tokens == {}
    assert after.ledger.summary() == ledger
    assert after.ib_port.swaps == {}
