"""Block production, forks, reorgs, canonical selection, replay oracle."""

import copy
from dataclasses import dataclass, field

import pytest

from swapgate import Chain, Direction, EventKind, LockTx, PayloadEntry
from swapgate.crypto import json_digest
from swapgate.errors import HeightBeyondTip, UnknownBranch, ZeroAmount

from conftest import ALICE, BOB, World

from reference_codec import ref_block_hash


def lock_tx(amount=100, sender=ALICE, receiver=BOB):
    return LockTx(0, sender, "T", amount, receiver)


def test_empty_block_on_genesis(world):
    ref = world.origin.produce_block()
    assert ref.height == 1
    before = world.origin.states[world.origin.canonical_chain()[0].ref.block_hash]
    assert world.origin.canonical_state == before


def test_block_without_txs_stores_its_parents_state_object(world):
    """A block with no txs changes nothing, so it stores its parent's state
    object instead of a clone; a block with a tx stores a state of its own,
    and an empty block on top of it shares that one."""
    origin = world.origin
    empty = origin.produce_block()
    assert origin.states[empty.block_hash] is origin.genesis_state
    origin.submit(lock_tx())
    locked = origin.produce_block()
    assert origin.states[locked.block_hash] is not origin.genesis_state
    alt = origin.fork_at(locked.height, "alt")
    for branch in ("main", alt):
        on_top = origin.produce_block(branch)
        assert origin.states[on_top.block_hash] is \
            origin.states[locked.block_hash]


def test_lock_tx_emits_event(world):
    world.origin.submit(lock_tx())
    ref = world.origin.produce_block()
    block = world.origin.blocks[ref.block_hash]
    assert [e.kind for e in block.events] == [EventKind.LOCK_REGISTERED]
    assert block.receipts[0].status == "ok"
    assert world.origin.canonical_state.ledger.locked["T"] == 100


def test_failed_tx_recorded_with_marker(world):
    world.origin.submit(lock_tx(amount=10**9))  # more than alice holds
    ref = world.origin.produce_block()
    block = world.origin.blocks[ref.block_hash]
    assert block.receipts[0].status == "InsufficientBalance"
    assert block.events == []
    assert world.origin.canonical_state.ledger.locked == {}


def test_block_hash_matches_reference(world):
    world.origin.submit(lock_tx())
    ref = world.origin.produce_block()
    block = world.origin.blocks[ref.block_hash]
    digests = [json_digest(r.tx.describe()) for r in block.receipts]
    assert ref.block_hash == ref_block_hash(block.parent_hash, 1, digests)


def test_tie_break_smallest_hash_both_orders():
    """Two equal-length branches: the lexicographically smaller tip hash wins,
    no matter which branch produced last."""
    outcomes = []
    for order in ((40, 70), (70, 40)):
        w = World()
        w.origin.produce_block()
        fork = w.origin.fork_at(1, "rival")
        w.origin.submit(lock_tx(amount=order[0]))
        w.origin.produce_block("main")
        w.origin.submit(lock_tx(amount=order[1]))
        w.origin.produce_block(fork)
        tips = {name: w.origin.blocks[h].ref
                for name, h in w.origin.branches.items()}
        assert tips["main"].height == tips["rival"].height == 2
        expected = min(tips.values(), key=lambda r: r.block_hash)
        assert w.origin.canonical_tip.block_hash == expected.block_hash
        outcomes.append(w.origin.canonical_branch)
    # both orderings agree on a winner determined by hash, not recency
    assert set(outcomes) <= {"main", "rival"}


def test_fork_at_tip_is_canonical_prefix(world):
    world.origin.produce_block()
    world.origin.produce_block()
    name = world.origin.fork_at(2, "twin")
    assert world.origin.branches[name] == world.origin.canonical_tip.block_hash
    assert world.origin.canonical_branch == "main"


def test_fork_beyond_tip(world):
    with pytest.raises(HeightBeyondTip):
        world.origin.fork_at(5, "ahead")


def test_unknown_branch(world):
    with pytest.raises(UnknownBranch):
        world.origin.produce_block("nope")


def test_reorg_switches_canonical_and_drops_events(world):
    world.origin.submit(lock_tx())
    world.origin.produce_block()          # h1 with lock
    event = world.origin.canonical_events()[0]
    assert world.origin.is_canonical(event.block)

    fork = world.origin.fork_at(0, "alt")
    world.origin.extend(fork, 2)          # alt is longer -> reorg
    assert world.origin.canonical_branch == "alt"
    assert not world.origin.is_canonical(event.block)
    assert world.origin.canonical_state.ledger.locked == {}
    info = world.origin.last_reorg
    assert info is not None and info.fork_height == 0
    assert info.abandoned_depth == 1


def test_reorg_replays_both_branch_ledgers():
    """State after a reorg equals an independent replay of each branch's
    transaction sequence."""
    w = World()
    w.origin.submit(lock_tx(amount=10))
    w.origin.produce_block()
    fork = w.origin.fork_at(0, "alt")
    w.origin.submit(lock_tx(amount=25))
    w.origin.produce_block(fork)
    w.origin.submit(lock_tx(amount=30))
    w.origin.produce_block(fork)          # alt wins at height 2

    assert w.origin.canonical_branch == "alt"
    assert w.origin.canonical_state.ledger.locked["T"] == 55
    replayed = w.origin.replay_canonical()
    assert replayed == w.origin.canonical_state
    # abandoned branch state is still a pure function of its own txs
    main_state = w.origin.states[w.origin.branches["main"]]
    assert main_state.ledger.locked["T"] == 10


def test_confirmations_arithmetic(world):
    world.origin.submit(lock_tx())
    world.origin.produce_block()
    event = world.origin.canonical_events()[0]
    for depth in range(1, 7):
        world.origin.produce_block()
        assert world.origin.is_canonical(event.block)
        assert world.origin.canonical_tip.height - event.block.height == depth


def test_confirmations_monotone_without_reorg(world):
    world.origin.submit(lock_tx())
    world.origin.produce_block()
    event = world.origin.canonical_events()[0]
    seen = []
    for _ in range(10):
        assert world.origin.is_canonical(event.block)
        seen.append(world.origin.canonical_tip.height - event.block.height)
        world.origin.produce_block()
    assert seen == sorted(seen)


def test_events_since_cursor_and_determinism(world):
    world.origin.submit(lock_tx(amount=10))
    world.origin.submit(lock_tx(amount=20))
    world.origin.produce_block()
    world.origin.produce_block()
    assert world.origin.events_since(world.origin.canonical_tip.height) == []
    events = world.origin.events_since(0)
    assert [e.payload["amount"] for e in events] == [10, 20]
    assert world.origin.events_since(0) == events  # repeatable
    assert [(e.block.height, e.index) for e in events] == [(1, 0), (1, 1)]


def test_block_hashes_unique_across_both_chains(world):
    hashes = set()
    for _ in range(5):
        hashes.add(world.origin.produce_block().block_hash)
        hashes.add(world.destination.produce_block().block_hash)
    genesis = {c.canonical_chain()[0].ref.block_hash
               for c in (world.origin, world.destination)}
    assert len(genesis) == 2
    assert len(hashes) == 10


def test_pending_consumed_once_not_requeued_after_reorg(world):
    world.origin.submit(lock_tx())
    world.origin.produce_block()
    fork = world.origin.fork_at(0, "alt")
    world.origin.extend(fork, 2)
    # the lock lives only on the abandoned branch; nothing re-mines it
    kinds = [e.kind for e in world.origin.canonical_events()]
    assert EventKind.LOCK_REGISTERED not in kinds
    assert world.origin.pending == []


def test_rejected_tx_mid_block_matches_block_without_it():
    """A tx refused mid-block leaves exactly the state, events and
    receipts of the block built without it (block hashes aside)."""
    with_reject, without = World(), World()
    for tx in (lock_tx(10), lock_tx(10**9), lock_tx(20)):
        with_reject.origin.submit(tx)
    for tx in (lock_tx(10), lock_tx(20)):
        without.origin.submit(tx)

    def produced(world):
        ref = world.origin.produce_block()
        return world.origin.blocks[ref.block_hash], world.origin.canonical_state

    block, state = produced(with_reject)
    expected_block, expected_state = produced(without)
    assert len(state.port.swaps) == 2
    assert state == expected_state
    assert [r.status for r in block.receipts] == \
        ["ok", "InsufficientBalance", "ok"]
    assert [r.extra for r in block.receipts] == [
        expected_block.receipts[0].extra, None,
        expected_block.receipts[1].extra]
    assert [e.index for e in block.events] == [0, 1]
    assert [(e.kind, e.swap_id, e.payload) for e in block.events] == \
        [(e.kind, e.swap_id, e.payload) for e in expected_block.events]


@dataclass
class ListState:
    values: list = field(default_factory=list)

    def clone(self):
        return ListState(list(self.values))


@dataclass(frozen=True)
class ValueTx:
    value: int

    def describe(self):
        return {"value": self.value}


def check_then_append(state, tx, ctx):
    """Refuses negative values before it changes the state or emits an
    event, as every contract does (see Chain)."""
    if tx.value < 0:
        raise ZeroAmount("negative value")
    state.values.append(tx.value)
    ctx.emit(EventKind.LOCK_REGISTERED, None, {"value": tx.value})
    return {"count": len(state.values)}


def test_tx_refused_before_writing_leaves_only_its_receipt():
    """A block clones its parent once and applies each tx once, refused
    ones included, and so does the replay; a refused tx leaves its receipt
    and nothing else, so the accepted txs' event indices stay contiguous."""
    clones, applied = [], []

    class CountedState(ListState):
        def clone(self):
            clones.append(self)
            return CountedState(list(self.values))

    def apply(state, tx, ctx):
        applied.append(tx.value)
        return check_then_append(state, tx, ctx)

    chain = Chain(7, CountedState, apply, finality_depth=6)
    for value in (1, -1, 2, -2, 3):
        chain.submit(ValueTx(value))
    ref = chain.produce_block()
    block = chain.blocks[ref.block_hash]

    assert len(clones) == 1
    assert applied == [1, -1, 2, -2, 3]
    assert chain.canonical_state.values == [1, 2, 3]
    assert [(e.index, e.payload["value"]) for e in block.events] == \
        [(0, 1), (1, 2), (2, 3)]
    assert [(r.status, r.extra) for r in block.receipts] == [
        ("ok", {"count": 1}), ("ZeroAmount", None), ("ok", {"count": 2}),
        ("ZeroAmount", None), ("ok", {"count": 3})]
    assert chain.states[chain.canonical_chain()[0].ref.block_hash].values == []
    assert chain.replay_canonical().values == [1, 2, 3]
    assert len(clones) == 2
    assert applied == [1, -1, 2, -2, 3] * 2


def test_parent_state_unchanged_by_child_and_sibling_blocks(world):
    """Per-block states share frozen pulses; building on a
    block, on two branches, must not change that block's state."""
    entry = PayloadEntry(Direction.ORIGIN_TO_DESTINATION, b"\x01" * 32, "T",
                         0, BOB.address, 5)
    pulse, reveal = world.attested(1, [entry])
    dest = world.destination
    dest.submit(pulse)
    parent = dest.produce_block()
    before = copy.deepcopy(dest.states[parent.block_hash])

    dest.submit(reveal)
    child = dest.produce_block()
    sibling = dest.fork_at(parent.height, "alt")
    dest.submit(reveal)
    dest.submit(reveal)                   # UnknownPulse: refused
    dest.extend(sibling, 2)               # alt wins: replay self-check runs

    assert dest.states[parent.block_hash] == before
    parent_state = dest.states[parent.block_hash]
    assert parent_state.nebula.pulses == {pulse.data_hash: 1}
    assert parent_state.port.swaps == {}
    for tip in (child.block_hash, dest.branches[sibling]):
        state = dest.states[tip]
        assert state.nebula.pulses == {}
        assert state.ledger.supply == {"swT": 5}
    receipts = dest.blocks[dest.canonical_chain()[2].ref.block_hash].receipts
    assert [r.status for r in receipts] == ["ok", "UnknownPulse"]


def test_twin_block_on_another_branch_keeps_replay_consistent(world):
    """A lock block produced again on a second branch has the same hash and
    replaces its twin in the block tree; the state it builds must not
    depend on which branch produced it, or the replay self-check of a later
    reorg disagrees with the states built on the first twin."""
    origin = world.origin
    origin.produce_block()
    origin.fork_at(1, "alt")
    origin.submit(lock_tx(amount=5))
    first = origin.produce_block("main")
    origin.produce_block("main")
    origin.submit(lock_tx(amount=5))
    twin = origin.produce_block("alt")
    assert twin.block_hash == first.block_hash
    origin.fork_at(1, "x")
    origin.extend("x", 3)
    assert origin.canonical_branch == "x"
    origin.extend("main", 2)              # main wins again: replay self-check

    assert origin.canonical_branch == "main"
    assert origin.replay_canonical() == origin.canonical_state
    assert origin.canonical_state.ledger.locked == {"T": 5}


def test_orphaned_reveal_reopens_a_pulse_that_stays_canonical(world):
    """A reorg that abandons the block consuming a pulse, but not the block
    that registered it, leaves the pulse open on the new canonical branch,
    and the same reveal is accepted there."""
    dest = world.destination
    entry = PayloadEntry(Direction.ORIGIN_TO_DESTINATION, b"\x05" * 32, "T",
                         0, BOB.address, 30)
    pulse, reveal = world.attested(1, [entry])
    dest.submit(pulse)
    dest.produce_block()
    dest.submit(reveal)
    consumed = dest.produce_block()
    assert dest.canonical_state.nebula.pulses == {}
    assert dest.canonical_state.ledger.supply == {"swT": 30}

    dest.fork_at(1, "alt")
    dest.extend("alt", 2)
    assert not dest.is_canonical(consumed)
    state = dest.canonical_state
    assert state.nebula.pulses == {pulse.data_hash: 1}
    assert state.ledger.supply == {}
    # the abandoned tip keeps its own state: the pulse stays consumed there
    assert dest.states[consumed.block_hash].nebula.pulses == {}

    dest.submit(reveal)
    ref = dest.produce_block("alt")
    (receipt,) = dest.blocks[ref.block_hash].receipts
    assert (receipt.status, receipt.extra) == \
        ("ok", {"entry_outcomes": ["ok"]})
    assert dest.canonical_state.nebula.pulses == {}
    assert dest.canonical_state.ledger.supply == {"swT": 30}
