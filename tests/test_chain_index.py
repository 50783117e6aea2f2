"""The canonical list and swap index of Chain against a full recomputation.

Random sequences of produce_block on any branch, fork_at and extend (which
include equal-height tie-break flips and blocks re-produced with the same
hash on another branch) are mirrored by a reference that derives
everything from the block tree alone, the way the chain did before it kept
an index: the canonical tip by scanning every branch, the canonical chain
by walking back from the tip, a reorg by an ancestor walk and a
common-ancestor walk.
"""

from dataclasses import dataclass, field

from hypothesis import given
from hypothesis import strategies as st

from swapgate import Chain, EventKind
from swapgate.chain import GENESIS_PARENT, BlockRef, ReorgInfo
from swapgate.errors import ZeroAmount

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

    def summary(self):
        return {"values": self.values}


def apply_event_tx(state, tx, ctx):
    if tx.kind < 0:
        raise ZeroAmount("rejected")
    kind = KINDS[tx.kind]
    swap_id = None if kind == EventKind.PULSE_ACCEPTED else bytes([tx.swap]) * 32
    state.values.append((tx.kind, tx.swap))
    ctx.emit(kind, swap_id, {"swap": tx.swap})
    return None


class Reference:
    """Old-style canonical queries over a chain's block tree."""

    def __init__(self, chain: Chain):
        self.chain = chain
        self.order = ["main"]       # branch creation order

    def tip(self, branches: dict[str, bytes]) -> BlockRef:
        best = None
        for name in self.order:
            tip_hash = branches[name]
            key = (-self.chain.blocks[tip_hash].ref.height, tip_hash)
            if best is None or key < best[0]:
                best = (key, name, tip_hash)
        _, name, tip_hash = best
        return BlockRef(self.chain.chain_id, name,
                        self.chain.blocks[tip_hash].ref.height, tip_hash)

    def walk(self, tip_hash: bytes) -> list:
        out, cursor = [], tip_hash
        while cursor != GENESIS_PARENT:
            out.append(self.chain.blocks[cursor])
            cursor = out[-1].parent_hash
        return out[::-1]

    def is_ancestor(self, ancestor: bytes, descendant: bytes) -> bool:
        return any(b.ref.block_hash == ancestor for b in self.walk(descendant))

    def common_height(self, a: bytes, b: bytes) -> int:
        ancestors = {blk.ref.block_hash for blk in self.walk(a)}
        return max(blk.ref.height for blk in self.walk(b)
                   if blk.ref.block_hash in ancestors)

    def reorg(self, before: dict[str, bytes], after: dict[str, bytes]):
        old, new = self.tip(before), self.tip(after)
        if old.block_hash == new.block_hash or \
                self.is_ancestor(old.block_hash, new.block_hash):
            return None
        return ReorgInfo(old, new, self.common_height(old.block_hash,
                                                      new.block_hash))


def check(chain: Chain, ref: Reference, expected_reorg) -> None:
    tip = ref.tip(chain.branches)
    assert chain.canonical_tip == tip
    canonical = ref.walk(tip.block_hash)
    assert chain.canonical_chain() == canonical
    assert all(a is b for a, b in zip(chain.canonical_chain(), canonical))
    assert chain.last_reorg == expected_reorg

    events = [e for block in canonical for e in block.events]
    for cursor in range(-2, tip.height + 2):
        assert chain.events_since(cursor) == \
            [e for e in events if e.block.height > cursor]
    on_chain = {block.ref.block_hash for block in canonical}
    swap_ids = set()
    for block in chain.blocks.values():
        assert chain.is_canonical(block.ref) == \
            (block.ref.block_hash in on_chain)
        for event in block.events:
            depth = tip.height - event.block.height
            assert chain.confirmations(event) == \
                (depth if block.ref.block_hash in on_chain else None)
            swap_ids.add(event.swap_id)
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


def replay(ops) -> None:
    chain = Chain(5, Values(), apply_event_tx)
    ref = Reference(chain)
    reorg = None
    check(chain, ref, reorg)
    for op, arg, extra in ops:
        if op == "fork":
            name = chain.fork_at(arg % (chain.canonical_tip.height + 1))
            ref.order.append(name)
        else:
            branch = ref.order[arg % len(ref.order)]
            if op == "produce":
                for tx in extra:
                    chain.submit(tx)
                before = dict(chain.branches)
                chain.produce_block(branch)
            else:
                chain.extend(branch, extra)
                before = dict(chain.branches)
                before[branch] = chain.blocks[before[branch]].parent_hash
            reorg = ref.reorg(before, chain.branches)
        check(chain, ref, reorg)


@given(steps)
def test_index_matches_full_recomputation(ops):
    replay(ops)


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
        chain = Chain(5, Values(), apply_event_tx)
        chain.produce_block()
        chain.fork_at(0, "rival")
        chain.submit(EventTx(0, swap))
        chain.produce_block("rival")
        flips += chain.last_reorg is not None
    assert 0 < flips < 6
