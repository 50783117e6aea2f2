"""The canonical list, swap index, reorg bound and state retention of Chain
against a full recomputation.

Random sequences of produce_block on any branch, fork_at and extend (which
include equal-height tie-break flips and blocks re-produced with the same
hash on another branch) are mirrored by a reference that derives
everything from the block tree alone, the way the chain did before it kept
an index: the canonical tip by scanning every branch, the canonical chain
by walking back from the tip, a reorg by an ancestor walk and a
common-ancestor walk.

Each walk runs twice: with a finality depth above any height it reaches,
and with a depth of 2. With the small depth the reference predicts every
refusal from its own walks: a fork below the final height (its tip height
minus the depth), or a next block (it hashes that block itself) whose
parent's ancestry meets the reference tip's below it. A refused call must
leave the chain equal to a snapshot taken before it. After every step the
chain holds a state for genesis and for every block at or above the final
height, and for no other block.
"""

import copy
from dataclasses import dataclass, field

import pytest
from hypothesis import given
from hypothesis import strategies as st

from swapgate import Chain, EventKind
from swapgate.chain import GENESIS_PARENT, BlockRef, ReorgInfo
from swapgate.crypto import json_digest
from swapgate.errors import BeyondFinality, HeightBeyondTip, ZeroAmount

from reference_codec import ref_block_hash

UNBOUNDED = 10**6           # a finality depth above any height a walk reaches
SMALL = 2

KINDS = [EventKind.LOCK_REGISTERED, EventKind.MINT_EXECUTED,
         EventKind.PULSE_ACCEPTED]


@dataclass(frozen=True)
class EventTx:
    kind: int               # index into KINDS; -1 rejects the tx
    swap: int

    def describe(self):
        return {"kind": self.kind, "swap": self.swap}


@dataclass
class Values:
    values: list = field(default_factory=list)

    def clone(self):
        return Values(list(self.values))


def apply_event_tx(state, tx, ctx):
    if tx.kind < 0:
        raise ZeroAmount("rejected")
    kind = KINDS[tx.kind]
    swap_id = None if kind == EventKind.PULSE_ACCEPTED else bytes([tx.swap]) * 32
    state.values.append((tx.kind, tx.swap))
    ctx.emit(kind, swap_id, {"swap": tx.swap})
    return None


class Reference:
    """Old-style canonical queries over a chain's block tree. The tree maps
    a block hash to (parent hash, height); it is the chain's own tree
    unless a prediction adds blocks not produced yet."""

    def __init__(self, chain: Chain):
        self.chain = chain
        self.order = ["main"]       # branch creation order

    def tree(self) -> dict[bytes, tuple[bytes, int]]:
        return {h: (b.parent_hash, b.ref.height)
                for h, b in self.chain.blocks.items()}

    def tip(self, branches: dict[str, bytes], tree=None) -> BlockRef:
        tree = tree or self.tree()
        best = None
        for name in self.order:
            tip_hash = branches[name]
            key = (-tree[tip_hash][1], tip_hash)
            if best is None or key < best[0]:
                best = (key, name, tip_hash)
        _, name, tip_hash = best
        return BlockRef(self.chain.chain_id, name, tree[tip_hash][1], tip_hash)

    def ancestry(self, tip_hash: bytes, tree=None) -> list[bytes]:
        """Hashes from genesis to `tip_hash`."""
        tree = tree or self.tree()
        out, cursor = [], tip_hash
        while cursor != GENESIS_PARENT:
            out.append(cursor)
            cursor = tree[cursor][0]
        return out[::-1]

    def walk(self, tip_hash: bytes) -> list:
        return [self.chain.blocks[h] for h in self.ancestry(tip_hash)]

    def common_height(self, a: bytes, b: bytes, tree=None) -> int:
        tree = tree or self.tree()
        ancestors = set(self.ancestry(a, tree))
        return max(tree[h][1] for h in self.ancestry(b, tree)
                   if h in ancestors)

    def reorg(self, before: dict[str, bytes], after: dict[str, bytes],
              tree=None):
        tree = tree or self.tree()
        old, new = self.tip(before, tree), self.tip(after, tree)
        if old.block_hash in self.ancestry(new.block_hash, tree):
            return None
        return ReorgInfo(old, new, self.common_height(
            old.block_hash, new.block_hash, tree))

    def final_height(self, bound: int, branches=None, tree=None) -> int:
        tip = self.tip(branches or self.chain.branches, tree)
        return max(0, tip.height - bound)

    def fork_refused(self, height: int, bound: int) -> bool:
        return height < self.final_height(bound)

    def blocks_accepted(self, branch: str, count: int, bound: int) -> int:
        """How many of `count` blocks produced on `branch` the chain accepts
        before one whose parent's ancestry meets the tip's below the final
        height: a reorg deeper than `bound`, or a branch that can never
        become canonical."""
        tree, branches = self.tree(), dict(self.chain.branches)
        digests = [json_digest(tx.describe()) for tx in self.chain.pending]
        for accepted in range(count):
            parent = branches[branch]
            tip = self.tip(branches, tree)
            if self.common_height(parent, tip.block_hash, tree) < \
                    self.final_height(bound, branches, tree):
                return accepted
            height = tree[parent][1] + 1
            new_hash = ref_block_hash(parent, height, digests)
            digests = []
            tree[new_hash] = (parent, height)
            branches = dict(branches, **{branch: new_hash})
        return count


def check(chain: Chain, ref: Reference, expected_reorg, bound: int) -> None:
    tip = ref.tip(chain.branches)
    assert chain.canonical_tip == tip
    canonical = ref.walk(tip.block_hash)
    assert chain.canonical_chain() == canonical
    assert all(a is b for a, b in zip(chain.canonical_chain(), canonical))
    assert chain.last_reorg == expected_reorg

    final = ref.final_height(bound)
    assert chain.final_height == final
    genesis = canonical[0].ref.block_hash
    assert set(chain.states) == {genesis} | {
        h for h, (_, height) in ref.tree().items() if height >= final}

    events = [e for block in canonical for e in block.events]
    for cursor in range(-2, tip.height + 2):
        assert chain.events_since(cursor) == \
            [e for e in events if e.block.height > cursor]
        # an upper bound as the oracles use it: the tip minus a depth
        for upto in (cursor + 2, tip.height - 3):
            assert chain.events_since(cursor, upto) == \
                [e for e in events if cursor < e.block.height <= upto]
    on_chain = {block.ref.block_hash for block in canonical}
    swap_ids = set()
    for block in chain.blocks.values():
        assert chain.is_canonical(block.ref) == \
            (block.ref.block_hash in on_chain)
        swap_ids.update(event.swap_id for event in block.events)
    for swap_id in swap_ids - {None}:
        assert chain.swap_events(swap_id) == \
            [e for e in events if e.swap_id == swap_id]


txs = st.lists(st.builds(EventTx, st.integers(-1, 2), st.integers(0, 2)),
               max_size=2)
steps = st.lists(st.one_of(
    st.tuples(st.just("produce"), st.integers(0, 9), txs),
    st.tuples(st.just("fork"), st.integers(0, 99), st.just(None)),
    st.tuples(st.just("extend"), st.integers(0, 9), st.integers(1, 3)),
), max_size=30)


def refused(call, chain: Chain) -> None:
    """`call` must raise BeyondFinality and leave `chain` as it was."""
    before = copy.deepcopy(vars(chain))
    with pytest.raises(BeyondFinality, match="finality depth"):
        call()
    assert vars(chain) == before


def replay(ops, bound: int = UNBOUNDED) -> None:
    chain = Chain(5, Values, apply_event_tx, finality_depth=bound)
    ref = Reference(chain)
    reorg = None
    check(chain, ref, reorg, bound)
    for op, arg, extra in ops:
        if op == "fork":
            tip = chain.canonical_tip.height
            height = tip - arg % (min(tip, bound + 1) + 1)
            if ref.fork_refused(height, bound):
                refused(lambda: chain.fork_at(height, "refused"), chain)
            else:
                ref.order.append(chain.fork_at(height, f"fork{len(ref.order)}"))
        else:
            branch = ref.order[arg % len(ref.order)]
            if op == "produce":
                for tx in extra:
                    chain.submit(tx)
            count = 1 if op == "produce" else extra
            accepted = ref.blocks_accepted(branch, count, bound)
            if accepted:
                # extend() is produce_block on one branch, `accepted` times
                chain.extend(branch, accepted)
                before = dict(chain.branches)
                before[branch] = chain.blocks[before[branch]].parent_hash
                reorg = ref.reorg(before, chain.branches)
            if accepted < count:
                check(chain, ref, reorg, bound)
                refused(lambda: chain.extend(branch, count - accepted), chain)
        check(chain, ref, reorg, bound)


@given(steps)
def test_index_matches_full_recomputation(ops):
    replay(ops)


@given(steps)
def test_reorg_bound_and_state_retention(ops):
    replay(ops, bound=SMALL)


def test_equal_height_flip_and_twin_block():
    """A rival branch draws level and wins on the smaller tip hash; an empty
    block re-produced on a third branch shares its twin's hash."""
    flips = 0
    for swap in range(6):
        ops = [("produce", 0, []), ("fork", 0, None),
               ("produce", 1, [EventTx(0, swap)]),
               ("produce", 1, []), ("produce", 0, [EventTx(1, swap)]),
               ("fork", 0, None), ("produce", 2, [])]
        replay(ops)
        chain = Chain(5, Values, apply_event_tx, finality_depth=UNBOUNDED)
        chain.produce_block()
        chain.fork_at(0, "rival")
        chain.submit(EventTx(0, swap))
        chain.produce_block("rival")
        flips += chain.last_reorg is not None
    assert 0 < flips < 6


def test_refused_block_leaves_its_pending_txs_queued():
    """A refused block takes no pending tx; the next accepted block
    includes them."""
    chain = Chain(5, Values, apply_event_tx, finality_depth=SMALL)
    chain.produce_block()
    chain.fork_at(1, "alt")
    chain.extend("main", 3)               # final height 2: alt is dead
    tx = EventTx(1, 1)
    chain.submit(tx)
    refused(lambda: chain.produce_block("alt"), chain)  # alt's first block
    assert chain.pending == [tx]
    ref = chain.produce_block("main")
    assert [r.tx for r in chain.blocks[ref.block_hash].receipts] == [tx]


def test_deep_twin_of_a_final_block_is_refused():
    """An empty block on a branch rooted at height 5 would be the twin of
    canonical block 6; with tip 20 and depth 6 that block is final."""
    chain = Chain(5, Values, apply_event_tx, finality_depth=6)
    chain.submit(EventTx(0, 0))
    chain.extend("main", 8)
    chain.fork_at(5, "x")
    chain.extend("main", 12)
    assert chain.canonical_tip.height == 20
    refused(lambda: chain.produce_block("x"), chain)
    assert chain.canonical_chain()[6].ref.branch == "main"


def test_block_on_a_branch_forked_below_the_final_height_is_refused():
    """alt's tip is at the final height, but alt meets the canonical chain
    below it, so alt can never become canonical."""
    chain = Chain(5, Values, apply_event_tx, finality_depth=SMALL)
    chain.extend("main", 3)
    chain.fork_at(1, "alt")
    chain.submit(EventTx(0, 0))
    chain.produce_block("alt")            # alt@2, fork height 1 = final 1
    chain.produce_block("main")           # tip 4, final height 2
    assert chain.blocks[chain.branches["alt"]].ref.height == 2
    refused(lambda: chain.produce_block("alt"), chain)


@pytest.mark.parametrize("height", [-2, 4])
def test_fork_outside_the_canonical_heights_is_refused(height):
    chain = Chain(5, Values, apply_event_tx, finality_depth=6)
    chain.extend("main", 3)
    before = copy.deepcopy(vars(chain))
    with pytest.raises(HeightBeyondTip, match=r"outside 0\.\.3"):
        chain.fork_at(height, "x")
    assert vars(chain) == before
