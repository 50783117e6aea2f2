"""Deterministic single-process blockchain simulator.

A Chain owns a block tree, named branches, a pending transaction queue and
the embedded states a reorg can reach. Contract logic is injected as an
``apply_tx`` callable so the block machinery stays independent of what the
transactions mean. Everything is driven externally: blocks exist only when
someone calls produce_block, heights are the only notion of time.

Canonical-branch rule: longest branch wins; equal heights are broken by the
lexicographically smallest tip hash, then by branch creation order (which
only matters when two branches point at the very same block).

Finality bound: a fork_at more than ``finality_depth`` below the tip, or a
block whose reorg (equal-height flips included) would abandon more blocks,
raises BeyondFinality before anything changes. A canonical block deeper
than that can never be abandoned or forked from, so its state is dropped
unless it is genesis or a branch tip.

The chain keeps the canonical branch as one list of blocks indexed by
height, plus an index from swap id to that swap's canonical events. When
the tip extends, the list grows by one block. On a reorg it is spliced:
the new tip is walked back until it meets the list, the list is cut
there and the new blocks are appended; the meeting height is the fork
height. Both indexes change only by the blocks cut and appended, so the
cost follows the reorg depth, not the chain height.

After every reorg the chain checks itself: it replays the canonical chain
from genesis and requires the result to equal the incremental tip state.
Embedded states therefore compare by value (see EmbeddedState), and what
they store must not depend on the branch a block was produced on: a block
produced again on another branch has the same hash and replaces its twin,
so records name blocks by BlockId, which leaves the branch out.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Any, Callable, Protocol

from .crypto import json_digest, sha256
from .errors import BeyondFinality, GatewayError, HeightBeyondTip, UnknownBranch

GENESIS_PARENT = bytes(32)


class EventKind(str, Enum):
    LOCK_REGISTERED = "LockRegistered"
    BURN_REGISTERED = "BurnRegistered"
    MINT_EXECUTED = "MintExecuted"
    UNLOCK_EXECUTED = "UnlockExecuted"
    PULSE_ACCEPTED = "PulseAccepted"
    SEND_DATA_CONSUMED = "SendDataConsumed"


REGISTRATION_KINDS = (EventKind.LOCK_REGISTERED, EventKind.BURN_REGISTERED)
EXECUTION_KINDS = (EventKind.MINT_EXECUTED, EventKind.UNLOCK_EXECUTED)


@dataclass(frozen=True)
class BlockRef:
    chain: int
    branch: str
    height: int
    block_hash: bytes

    def to_json(self) -> dict:
        return {
            "chain": self.chain,
            "branch": self.branch,
            "height": self.height,
            "hash": self.block_hash.hex(),
        }


@dataclass(frozen=True)
class BlockId:
    """A block as chain state names it: a BlockRef without the branch."""

    chain: int
    height: int
    block_hash: bytes

    def to_json(self) -> dict:
        return {
            "chain": self.chain,
            "height": self.height,
            "hash": self.block_hash.hex(),
        }


@dataclass(frozen=True)
class ChainEvent:
    kind: EventKind
    swap_id: bytes | None
    block: BlockRef
    index: int
    payload: dict

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "swap_id": self.swap_id.hex() if self.swap_id else None,
            "block": self.block.to_json(),
            "index": self.index,
            "payload": self.payload,
        }


@dataclass
class TxReceipt:
    tx: Any
    status: str               # "ok" or an error code
    detail: str | None = None
    extra: dict | None = None  # e.g. per-entry outcomes of a reveal tx

    def to_json(self) -> dict:
        out = {"tx": self.tx.describe(), "status": self.status}
        if self.detail:
            out["detail"] = self.detail
        if self.extra:
            out.update(self.extra)
        return out


@dataclass
class Block:
    ref: BlockRef
    parent_hash: bytes
    receipts: list[TxReceipt]
    events: list[ChainEvent]

    def to_json(self) -> dict:
        return {
            "chain": self.ref.chain,
            "branch": self.ref.branch,
            "height": self.ref.height,
            "hash": self.ref.block_hash.hex(),
            "parent": self.parent_hash.hex(),
            "txs": [r.to_json() for r in self.receipts],
            "events": [e.to_json() for e in self.events],
        }


@dataclass(frozen=True)
class ReorgInfo:
    old_tip: BlockRef
    new_tip: BlockRef
    fork_height: int

    @property
    def abandoned_depth(self) -> int:
        return self.old_tip.height - self.fork_height


class EmbeddedState(Protocol):
    """What a Chain needs of its per-block state.

    clone() returns a copy that later transactions can change without
    touching the original. Two states compare equal (==) exactly when
    every field of the one equals the same field of the other; the replay
    self-check relies on that, so each state type derives its equality
    from all of its fields (a dataclass with eq). summary() is a JSON view
    for tests and for naming the parts of a state that differ; equality
    covers at least what it shows.
    """

    def clone(self) -> "EmbeddedState": ...

    def summary(self) -> dict: ...

    def __eq__(self, other: object) -> bool: ...


class BlockCtx:
    """Per-block application context handed to contract code."""

    def __init__(self, block_ref: BlockRef):
        self.block_ref = block_ref
        self.events: list[ChainEvent] = []

    @property
    def height(self) -> int:
        return self.block_ref.height

    @cached_property
    def block_id(self) -> BlockId:
        """The block as records in state name it; built on first use, so a
        block that stores no record never builds one."""
        ref = self.block_ref
        return BlockId(ref.chain, ref.height, ref.block_hash)

    def emit(self, kind: EventKind, swap_id: bytes | None, payload: dict) -> ChainEvent:
        event = ChainEvent(kind, swap_id, self.block_ref, len(self.events), payload)
        self.events.append(event)
        return event


def block_hash(parent_hash: bytes, height: int, tx_digests: list[bytes]) -> bytes:
    material = parent_hash + struct.pack(">Q", height)
    for d in tx_digests:
        material += d
    return sha256(material)


ApplyTx = Callable[[Any, Any, BlockCtx], dict | None]


class Chain:
    """One simulated blockchain with fork/reorg support.

    apply_tx(state, tx, ctx) mutates state in place and emits events via
    ctx; it raises GatewayError to reject the transaction. Rejected
    transactions are still included in the block, marked with the error
    code, and leave state untouched: the block is rebuilt from its parent
    state without them (see _apply_block).

    finality_depth is the deepest reorg accepted; a deeper one is refused
    with the chain left exactly as it was, pending txs included. states
    holds genesis, the branch tips, the canonical blocks within
    finality_depth of the tip and blocks orphaned by a reorg.
    """

    def __init__(self, chain_id: int, genesis_state: Any, apply_tx: ApplyTx,
                 finality_depth: int):
        self.chain_id = chain_id
        self._apply_tx = apply_tx
        self.finality_depth = finality_depth

        genesis_digest = sha256(b"genesis" + struct.pack(">B", chain_id))
        g_hash = block_hash(GENESIS_PARENT, 0, [genesis_digest])
        g_ref = BlockRef(chain_id, "main", 0, g_hash)
        genesis = Block(g_ref, GENESIS_PARENT, [], [])

        self.blocks: dict[bytes, Block] = {g_hash: genesis}
        self.states: dict[bytes, Any] = {g_hash: genesis_state.clone()}
        # insertion order is creation order, the canonical rule's last tie-break
        self.branches: dict[str, bytes] = {"main": g_hash}
        self.pending: list[Any] = []
        self._fork_seq = 0
        self._canonical_tip = g_ref
        self._canonical: list[Block] = [genesis]
        self._swap_events: dict[bytes, list[ChainEvent]] = {}
        self.last_reorg: ReorgInfo | None = None

    # --- transaction queue -------------------------------------------------

    def submit(self, tx: Any) -> None:
        self.pending.append(tx)

    # --- block production --------------------------------------------------

    def produce_block(self, branch: str = "main") -> BlockRef:
        if branch not in self.branches:
            raise UnknownBranch(f"chain {self.chain_id} has no branch {branch!r}")
        parent_hash = self.branches[branch]
        parent = self.blocks[parent_hash]
        height = parent.ref.height + 1

        digests = [json_digest(tx.describe()) for tx in self.pending]
        new_hash = block_hash(parent_hash, height, digests)
        ref = BlockRef(self.chain_id, branch, height, new_hash)
        abandoned = self._abandoned_by(ref, parent)
        if abandoned > self.finality_depth:
            raise BeyondFinality(
                f"chain {self.chain_id}: reorg abandoned {abandoned} blocks, "
                f"deeper than the finality depth {self.finality_depth}")

        txs = self.pending
        self.pending = []
        state, receipts, events = self._apply_block(
            self.states[parent_hash], ref, txs)

        block = Block(ref, parent_hash, receipts, events)
        if self.is_canonical(ref):
            # a canonical block produced again on another branch has the
            # same hash; self.blocks keeps the new object, so the list drops
            # its twin here and the splice re-appends from the new one
            self._truncate(height - 1)
        self.blocks[new_hash] = block
        self.states[new_hash] = state
        self.branches[branch] = new_hash
        self._recompute_canonical()
        # only two blocks can just have fallen out of reach: the branch's old
        # tip, and the canonical block the tip's growth pushed past the
        # depth (a bounded reorg replaces no canonical block deeper than it)
        self._prune(parent)
        deepest_kept = self._canonical_tip.height - self.finality_depth
        if deepest_kept > 1:
            self._prune(self._canonical[deepest_kept - 1])
        return ref

    def _abandoned_by(self, ref: BlockRef, parent: Block) -> int:
        """How many canonical blocks a reorg to the new block `ref` on
        `parent` would abandon; 0 when `ref` would not become the tip."""
        tip = self._canonical_tip
        # the canonical rule's order: taller, then the smaller hash
        if (-ref.height, ref.block_hash) >= (-tip.height, tip.block_hash):
            return 0
        fork = parent
        while not self.is_canonical(fork.ref):
            fork = self.blocks[fork.parent_hash]
        return tip.height - fork.ref.height

    def _prune(self, block: Block) -> None:
        """Drop the state of `block` if it is canonical, deeper than the
        finality depth, and neither genesis nor a branch tip."""
        height = block.ref.height
        if 0 < height < self._canonical_tip.height - self.finality_depth \
                and self.is_canonical(block.ref) \
                and block.ref.block_hash not in self.branches.values():
            self.states.pop(block.ref.block_hash, None)

    def _apply_block(self, parent_state: Any, ref: BlockRef, txs: list
                     ) -> tuple[Any, list[TxReceipt], list[ChainEvent]]:
        """Apply txs in order to a clone of parent_state, which stays untouched.

        A rejected tx may leave the working copy half-mutated, so the copy is
        dropped: the parent is cloned again and the accepted txs re-applied
        under a fresh context, which rebuilds the same state and events.
        """
        state = parent_state.clone()
        ctx = BlockCtx(ref)
        accepted: list = []
        receipts: list[TxReceipt] = []
        for tx in txs:
            try:
                extra = self._apply_tx(state, tx, ctx)
            except GatewayError as err:
                state = parent_state.clone()
                ctx = BlockCtx(ref)
                for done in accepted:
                    self._apply_tx(state, done, ctx)
                receipts.append(TxReceipt(tx, err.code, detail=str(err)))
                continue
            accepted.append(tx)
            receipts.append(TxReceipt(tx, "ok", extra=extra))
        return state, receipts, ctx.events

    def fork_at(self, height: int, name: str | None = None) -> str:
        """Create a branch rooted at the canonical block at `height`."""
        tip = self.canonical_tip
        if height > tip.height:
            raise HeightBeyondTip(
                f"fork height {height} beyond canonical tip {tip.height}")
        if tip.height - height > self.finality_depth:
            raise BeyondFinality(
                f"fork at height {height} is deeper than the finality depth "
                f"below tip {tip.height}")
        base = self.canonical_chain()[height]
        if name is None:
            self._fork_seq += 1
            name = f"fork{self._fork_seq}"
        if name in self.branches:
            raise UnknownBranch(f"branch name {name!r} already in use")
        self.branches[name] = base.ref.block_hash
        return name

    def extend(self, branch: str, count: int) -> list[BlockRef]:
        return [self.produce_block(branch) for _ in range(count)]

    # --- canonical selection -----------------------------------------------

    def _recompute_canonical(self) -> None:
        best = None
        for name, tip_hash in self.branches.items():
            height = self.blocks[tip_hash].ref.height
            key = (-height, tip_hash)
            if best is None or key < best[0]:
                best = (key, name, tip_hash)
        assert best is not None
        _, name, tip_hash = best
        prev_tip = self._canonical_tip
        block = self.blocks[tip_hash]
        self._canonical_tip = BlockRef(self.chain_id, name, block.ref.height, tip_hash)

        added: list[Block] = []
        while not self.is_canonical(block.ref):
            added.append(block)
            block = self.blocks[block.parent_hash]
        fork_height = block.ref.height
        self._truncate(fork_height)
        for block in reversed(added):
            self._canonical.append(block)
            for event in block.events:
                if event.swap_id is not None:
                    self._swap_events.setdefault(event.swap_id, []).append(event)

        self.last_reorg = None
        if not self.is_canonical(prev_tip):
            self.last_reorg = ReorgInfo(prev_tip, self._canonical_tip, fork_height)
            self._verify_replay()

    def _truncate(self, height: int) -> None:
        """Cut the canonical list above `height` and unindex its events."""
        for block in reversed(self._canonical[height + 1:]):
            for event in reversed(block.events):
                if event.swap_id is not None:
                    events = self._swap_events[event.swap_id]
                    events.pop()
                    if not events:
                        del self._swap_events[event.swap_id]
        del self._canonical[height + 1:]

    @property
    def canonical_tip(self) -> BlockRef:
        return self._canonical_tip

    @property
    def canonical_branch(self) -> str:
        return self._canonical_tip.branch

    def canonical_chain(self) -> list[Block]:
        """Blocks from genesis to the canonical tip, inclusive, indexed by
        height. This is the chain's own list, updated in place by every
        block: callers index it and do not hold it across blocks."""
        return self._canonical

    def is_canonical(self, block_ref: BlockRef) -> bool:
        chain = self._canonical
        if block_ref.height >= len(chain):
            return False
        return chain[block_ref.height].ref.block_hash == block_ref.block_hash

    # --- queries ------------------------------------------------------------

    @property
    def canonical_state(self) -> Any:
        return self.states[self._canonical_tip.block_hash]

    def events_since(self, cursor: int) -> list[ChainEvent]:
        """Canonical events above `cursor`, in (height, intra-block) order."""
        out: list[ChainEvent] = []
        for height in range(max(cursor + 1, 0), len(self._canonical)):
            out.extend(self._canonical[height].events)
        return out

    def swap_events(self, swap_id: bytes) -> list[ChainEvent]:
        """Canonical events of one swap, in canonical order. Like
        canonical_chain() this is the chain's own list: read, don't keep."""
        return self._swap_events.get(swap_id, [])

    def canonical_events(self) -> list[ChainEvent]:
        return self.events_since(-1)

    # --- replay oracle -------------------------------------------------------

    def replay_canonical(self) -> Any:
        """Re-derive the canonical tip state by applying every canonical
        block's transactions against a fresh copy of the genesis state,
        which is never pruned or changed."""
        genesis, *blocks = self.canonical_chain()
        state = self.states[genesis.ref.block_hash].clone()
        for block in blocks:
            state, _, _ = self._apply_block(
                state, block.ref, [r.tx for r in block.receipts])
        return state

    def _verify_replay(self) -> None:
        replayed = self.replay_canonical()
        if replayed != self.canonical_state:
            raise RuntimeError(self._divergence(replayed))

    def _divergence(self, replayed: Any) -> str:
        """The self-check's failure message: the reorg, and the top-level
        summary() parts in which the two states differ."""
        ours, theirs = self.canonical_state.summary(), replayed.summary()
        differing = [key for key in sorted(ours.keys() | theirs.keys())
                     if ours.get(key) != theirs.get(key)]
        info = self.last_reorg
        assert info is not None

        def tip(ref: BlockRef) -> str:
            return f"{ref.branch}@{ref.height} ({ref.block_hash.hex()[:12]})"

        parts = ", ".join(differing) or "fields outside summary()"
        return (f"chain {self.chain_id}: canonical replay diverged from "
                f"incremental state after reorg from {tip(info.old_tip)} to "
                f"{tip(info.new_tip)} (fork height {info.fork_height}); "
                f"differing: {parts}")
