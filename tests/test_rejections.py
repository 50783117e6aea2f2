"""Every refusal leaves the state it was tried on untouched.

Refused transactions and refused payload entries follow one rule: a
contract refuses before it writes. Nothing undoes a refusal: the chain
applies the next tx of the block to the same state, and submit_send_data
records the entry's code and routes its siblings on the same state. So a
contract that wrote before it refused would corrupt state silently. Each
case tries one refusal on a clone of a canonical state, through
gateway.apply_tx or through the router a reveal calls for each entry, and
requires the clone to equal a deep copy taken before, with no event
emitted. The cases cover every code a transaction or an entry can be
refused with, the paths no scenario reaches included. Two refusals outside
a state close the file: fork_at with a branch name in use, and
build_chains with a bad genesis.
"""

import copy
import dataclasses
from types import SimpleNamespace

import pytest

from swapgate import (NEBULA_ADDRESS, BurnTx, Direction, LockTx, PayloadEntry,
                      SendDataTx, TokenId, build_chains)
from swapgate.chain import BlockCtx, BlockRef
from swapgate.encoding import MAX_AMOUNT
from swapgate.errors import GatewayError, UnknownBranch
from swapgate.gateway import apply_tx

from conftest import ALICE, BOB, CAROL, World

OUT = Direction.ORIGIN_TO_DESTINATION
BACK = Direction.DESTINATION_TO_ORIGIN
NEW = b"\x07" * 32            # a swap id neither port has seen
HEIGHT = 20                   # every case's block height, above the window
OPEN = [PayloadEntry(OUT, b"\x08" * 32, "T", 0, BOB.address, 1)]


def only_receipt(chain, ref):
    (receipt,) = chain.blocks[ref.block_hash].receipts
    assert receipt.status == "ok"
    return receipt


@pytest.fixture
def run():
    """Both ports with history: 100 T locked and minted, 40 swT burned
    and unlocked, and a pulse over OPEN still open on the destination."""
    world = World(window=10)
    origin, destination = world.origin, world.destination
    origin.submit(LockTx(0, ALICE, "T", 100, BOB))
    lock_id = bytes.fromhex(
        only_receipt(origin, origin.produce_block()).extra["swap_id"])
    for tx in world.attested(1, [PayloadEntry(OUT, lock_id, "T", 0,
                                              BOB.address, 100)]):
        destination.submit(tx)
    destination.produce_block()
    destination.submit(BurnTx(1, BOB, "swT", 40, ALICE))
    burn_id = bytes.fromhex(
        only_receipt(destination, destination.produce_block())
        .extra["swap_id"])
    for tx in world.attested(0, [PayloadEntry(BACK, burn_id, "T", 0,
                                              ALICE.address, 40)]):
        origin.submit(tx)
    origin.produce_block()
    destination.submit(world.attested(1, OPEN)[0])
    destination.produce_block()
    return SimpleNamespace(world=world, lock_id=lock_id, burn_id=burn_id)


def pulse(run, entries=OPEN, declared_height=HEIGHT - 5, chain=1):
    return run.world.attested(chain, entries, declared_height)[0]


def signed_by(run, signatures):
    """A pulse over a new entry whose signatures are signatures(the
    roster's valid ones)."""
    tx = pulse(run, [PayloadEntry(OUT, NEW, "T", 0, BOB.address, 5)])
    return dataclasses.replace(tx, signatures=signatures(tx.signatures))


def forged_first(signatures):
    (index, signature), *rest = signatures
    return ((index, bytes(len(signature))), *rest)


# case -> (code, chain id, what to try): a tx goes through apply_tx, an
# entry through the port's attested execution
CASES = {
    # lock and burn
    "lock-zero": ("ZeroAmount", 0, lambda r: LockTx(0, ALICE, "T", 0, BOB)),
    "lock-too-large": ("AmountTooLarge", 0,
                       lambda r: LockTx(0, ALICE, "T", MAX_AMOUNT + 1, BOB)),
    "lock-receiver-on-origin": ("WrongChainReceiver", 0,
                                lambda r: LockTx(0, ALICE, "T", 5, CAROL)),
    "lock-unknown-symbol": ("UnknownToken", 0,
                            lambda r: LockTx(0, ALICE, "X", 5, BOB)),
    "lock-overdraw": ("InsufficientBalance", 0,
                      lambda r: LockTx(0, ALICE, "T", 10**6, BOB)),
    "lock-empty-sender": ("InsufficientBalance", 0,
                          lambda r: LockTx(0, CAROL, "T", 5, BOB)),
    "lock-on-destination": ("WrongChain", 1,
                            lambda r: LockTx(1, ALICE, "T", 5, BOB)),
    "burn-zero": ("ZeroAmount", 1, lambda r: BurnTx(1, BOB, "swT", 0, ALICE)),
    "burn-too-large": ("AmountTooLarge", 1,
                       lambda r: BurnTx(1, BOB, "swT", MAX_AMOUNT + 1, ALICE)),
    "burn-receiver-on-destination": ("WrongChainReceiver", 1,
                                     lambda r: BurnTx(1, BOB, "swT", 5, BOB)),
    "burn-original-symbol": ("UnknownToken", 1,
                             lambda r: BurnTx(1, BOB, "T", 5, ALICE)),
    "burn-overdraw": ("InsufficientBalance", 1,
                      lambda r: BurnTx(1, BOB, "swT", 61, ALICE)),
    "burn-on-origin": ("WrongChain", 0,
                       lambda r: BurnTx(0, BOB, "swT", 5, ALICE)),
    # pulse
    "pulse-forged-signature": ("InvalidSignature", 1,
                               lambda r: signed_by(r, forged_first)),
    "pulse-signer-off-roster": ("InvalidSignature", 1, lambda r: signed_by(
        r, lambda sigs: sigs + ((99, bytes(64)),))),
    "pulse-one-signer": ("InsufficientSignatures", 1,
                         lambda r: signed_by(r, lambda sigs: sigs[:1])),
    "pulse-future": ("FutureHeight", 1,
                     lambda r: pulse(r, declared_height=HEIGHT + 1)),
    "pulse-stale": ("StaleHeight", 1,
                    lambda r: pulse(r, declared_height=HEIGHT - 11)),
    "pulse-open-hash": ("DuplicatePulse", 1, pulse),
    # reveal
    "reveal-uncommitted": ("UnknownPulse", 1, lambda r: SendDataTx(
        1, (PayloadEntry(OUT, NEW, "T", 0, BOB.address, 5),), 0)),
    "reveal-empty": ("MalformedPayload", 1, lambda r: SendDataTx(1, (), 0)),
    "reveal-bad-entry": ("MalformedPayload", 1, lambda r: SendDataTx(
        1, (PayloadEntry(OUT, NEW, "", 0, BOB.address, 5),), 0)),
    # entry on the destination
    "mint-return-direction": ("UnknownSwap", 1, lambda r: PayloadEntry(
        BACK, NEW, "T", 0, ALICE.address, 5)),
    "mint-own-burn-id": ("UnknownSwap", 1, lambda r: PayloadEntry(
        OUT, r.burn_id, "T", 0, BOB.address, 5)),
    "mint-foreign-origin": ("UnknownToken", 1, lambda r: PayloadEntry(
        OUT, NEW, "T", 7, BOB.address, 5)),
    "mint-again": ("DuplicateExecution", 1, lambda r: PayloadEntry(
        OUT, r.lock_id, "T", 0, BOB.address, 100)),
    "mint-zero": ("ZeroAmount", 1, lambda r: PayloadEntry(
        OUT, NEW, "T", 0, BOB.address, 0)),
    "mint-zero-new-token": ("ZeroAmount", 1, lambda r: PayloadEntry(
        OUT, NEW, "U", 0, BOB.address, 0)),
    # entry on the origin
    "unlock-outbound-direction": ("UnknownSwap", 0, lambda r: PayloadEntry(
        OUT, NEW, "T", 0, BOB.address, 5)),
    "unlock-own-lock-id": ("UnknownSwap", 0, lambda r: PayloadEntry(
        BACK, r.lock_id, "T", 0, ALICE.address, 5)),
    "unlock-token-from-destination": ("UnknownSwap", 0, lambda r: PayloadEntry(
        BACK, NEW, "T", 1, ALICE.address, 5)),
    "unlock-unknown-symbol": ("UnknownSwap", 0, lambda r: PayloadEntry(
        BACK, NEW, "X", 0, ALICE.address, 5)),
    "unlock-again": ("DuplicateExecution", 0, lambda r: PayloadEntry(
        BACK, r.burn_id, "T", 0, ALICE.address, 40)),
    "unlock-beyond-pool": ("InsufficientLocked", 0, lambda r: PayloadEntry(
        BACK, NEW, "T", 0, ALICE.address, 61)),
    "unlock-zero": ("ZeroAmount", 0, lambda r: PayloadEntry(
        BACK, NEW, "T", 0, ALICE.address, 0)),
}


@pytest.mark.parametrize("case", list(CASES))
def test_refusal_leaves_state_untouched(case, run):
    code, chain_id, make = CASES[case]
    attempt = make(run)
    state = run.world.chains[chain_id].canonical_state.clone()
    before = copy.deepcopy(state)
    ctx = BlockCtx(BlockRef(chain_id, "main", HEIGHT, b"\xee" * 32),
                   run.world.chains[chain_id].accounts)
    with pytest.raises(GatewayError) as caught:
        if isinstance(attempt, PayloadEntry):
            state.port.execute_attested(state.ledger, state.tokens, ctx,
                                        attempt, caller=NEBULA_ADDRESS)
        else:
            apply_tx(state, attempt, ctx)
    assert caught.value.code == code
    assert state == before
    assert ctx.events == []


def test_fork_at_a_name_in_use_changes_nothing(world):
    origin = world.origin
    origin.extend("main", 2)
    origin.fork_at(1, "alt")
    branches = dict(origin.branches)
    with pytest.raises(UnknownBranch, match="already in use"):
        origin.fork_at(2, "alt")
    assert origin.branches == branches


T = TokenId("T", 0)


@pytest.mark.parametrize("tokens, balances, message", [
    ([T, TokenId("T", 0, wrapped_of=TokenId("T", 1))], [],
     "conflicting registration for 'T'"),
    ([TokenId("T", 1)], [], "must live on chain 0"),
    ([T], [(T, BOB, 5)], "seeded on the origin chain"),
], ids=["symbol-twice", "token-on-destination", "balance-on-destination"])
def test_build_chains_refuses_a_bad_genesis(tokens, balances, message, world):
    with pytest.raises(ValueError, match=message):
        build_chains(world.roster, {0: 10, 1: 10}, {0: 3, 1: 3}, tokens,
                     balances)


def test_build_chains_accepts_a_token_given_twice(world):
    chains = build_chains(world.roster, {0: 10, 1: 10}, {0: 3, 1: 3},
                          [T, TokenId("T", 0)], [(T, ALICE, 5)])
    assert chains[0].canonical_state.tokens == {"T": T}
