"""The reveal-by-hash rule on a forking destination chain.

Random attested pulses and reveals over a small pool of payloads are
submitted to the destination chain of a World, interleaved with blocks on
any branch, forks and branch extensions. After every step the canonical
receipts are walked from genesis against a model of the open commitments:

- every accepted reveal matches a pulse accepted earlier on that branch and
  not consumed since;
- every reveal rejected with UnknownPulse had no such pulse;
- the wrapped supply equals the sum of the accepted entries;
- the port's Processed ids are exactly the swaps with a canonical
  MintExecuted event: the port's status agrees with the chain's index;
- the self-check's replay equals the replay from genesis and the
  incremental tip state.
"""

from hypothesis import given, strategies as st

from swapgate import (Direction, EventKind, PayloadEntry, PulseTx,
                      SendDataTx, SwapStatus)
from swapgate.encoding import payload_hash

from conftest import BOB, World
from reference_replay import assert_replay_matches_genesis


def entry(tag: int, amount: int) -> PayloadEntry:
    return PayloadEntry(Direction.ORIGIN_TO_DESTINATION, bytes([tag]) * 32,
                        "T", 0, BOB.address, amount)


# overlapping payloads, so that some accepted reveals route an entry the
# port has executed already
E1, E2, E3 = entry(1, 3), entry(2, 5), entry(3, 11)
POOL = [[E1], [E2], [E1, E2], [E3]]

STEPS = st.lists(st.one_of(
    st.tuples(st.just("pulse"), st.integers(0, len(POOL) - 1)),
    st.tuples(st.just("reveal"), st.integers(0, len(POOL) - 1)),
    st.tuples(st.just("produce"), st.integers(0, 7)),
    st.tuples(st.just("fork"), st.integers(0, 3)),
    st.tuples(st.just("extend"), st.integers(0, 7), st.integers(1, 3)),
), min_size=1, max_size=30)


def check_canonical_receipts(chain) -> None:
    open_hashes: set[bytes] = set()
    minted = 0
    for block in chain.canonical_chain()[1:]:
        for receipt in block.receipts:
            tx = receipt.tx
            if isinstance(tx, PulseTx):
                assert receipt.status == ("DuplicatePulse"
                                          if tx.data_hash in open_hashes
                                          else "ok")
                open_hashes.add(tx.data_hash)
                continue
            assert isinstance(tx, SendDataTx)
            data_hash = payload_hash(list(tx.entries))
            if receipt.status == "ok":
                assert data_hash in open_hashes
                open_hashes.remove(data_hash)
                outcomes = receipt.extra["entry_outcomes"]
                minted += sum(e.amount for e, outcome
                              in zip(tx.entries, outcomes) if outcome == "ok")
            else:
                assert receipt.status == "UnknownPulse"
                assert data_hash not in open_hashes
    state = chain.canonical_state
    assert set(state.nebula.pulses) == open_hashes
    assert state.ledger.supply.get("swT", 0) == minted
    processed = {swap_id for swap_id, status in state.port.swaps.items()
                 if status == SwapStatus.PROCESSED}
    assert processed == {event.swap_id for event in chain.canonical_events()
                         if event.kind == EventKind.MINT_EXECUTED}


@given(STEPS)
def test_reveal_opens_exactly_the_open_pulse_of_its_hash(steps):
    # no reorg bound: extending a stale branch may reorg arbitrarily deep
    world = World(window=1000, fin_depth=10**6)
    dest = world.destination
    txs = [world.attested(1, payload) for payload in POOL]
    for step in steps:
        kind = step[0]
        if kind in ("pulse", "reveal"):
            dest.submit(txs[step[1]][kind == "reveal"])
        elif kind == "produce":
            branches = sorted(dest.branches)
            dest.produce_block(branches[step[1] % len(branches)])
        elif kind == "fork":
            dest.fork_at(max(0, dest.canonical_tip.height - step[1]),
                         f"fork{len(dest.branches)}")
        else:
            branches = sorted(dest.branches)
            dest.extend(branches[step[1] % len(branches)], step[2])
        check_canonical_receipts(dest)
        assert_replay_matches_genesis(dest)
