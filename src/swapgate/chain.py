"""Deterministic single-process blockchain simulator.

A Chain owns a block tree, named branches, a pending transaction queue and
the embedded states a reorg can reach. Contract logic is injected as an
``apply_tx`` callable so the block machinery stays independent of what the
transactions mean. Everything is driven externally: blocks exist only when
someone calls produce_block, heights are the only notion of time.

Canonical-branch rule: longest branch wins; equal heights are broken by the
lexicographically smallest tip hash, then by branch creation order (which
only matters when two branches point at the very same block). A block moves
one branch tip, and every other tip already lost to the canonical tip, so
each block compares its branch's new tip with the canonical tip alone; the
cost does not grow with the number of branches.

Stored states are never changed: a block is applied to a clone of its
parent's state, and a block without transactions stores its parent's state
object itself.

Finality horizon: final_height is the canonical tip height minus
``finality_depth`` (at least 0), and at and below it the canonical chain
never changes. It is the one horizon every rule reads. A fork_at below it,
or a block on a branch that meets the canonical chain below it, raises
BeyondFinality before anything changes: for a block that would take the
tip that is a reorg deeper than the depth, and any other such block sits on
a branch that can never become canonical. states holds genesis and every
block at or above final_height, and nothing else. The tip height grows by
at most one per block and no block is produced at or below final_height,
so each block pushes at most the one height below the new horizon out of
reach, and its states are dropped from a per-height bucket.

The chain keeps the canonical branch as one list of blocks indexed by
height, plus an index from swap id to that swap's canonical events. A
block walks its parent back until it meets the list, which it must do
anyway to find its fork height, and when the block takes the tip that
walk is the splice: the list is cut at the fork height and the block and
the walked blocks are appended. So a block that extends the tip walks no
block, cuts nothing and is appended, and its own BlockRef is the tip. A
reorg is the old tip no longer being on the list. Both indexes change
only by the blocks cut and appended, so the cost follows the reorg depth,
not the chain height.

After every reorg the chain checks itself: it replays the canonical chain
and requires the result to equal the incremental tip state; on a mismatch
it names the top-level state fields that differ. Embedded states are
therefore dataclasses that compare by value (see EmbeddedState), and what
they store must not depend on the branch a block was produced on: a block
produced again on another branch has the same hash and replaces its twin,
so the two must build equal states. No state names a block at all. A twin
lies above final_height, so its re-splice of the canonical list is bounded
by the finality depth.

The replay resumes from its last tip, the last block it reached, while that
block is canonical, so each canonical block is replayed once; a reorg that
orphans the last tip falls back to the checkpoint, the replay's own state
at the highest block it has replayed or started from that was at or below
final_height. At first both are its own build of the genesis state: the
chain is handed a genesis builder and calls it twice, once for states and
once for the replay. So the replay never holds a state object of the
chain's, and a clone() that shares a map with its parent shares it within
one side only, where the self-check sees it. A reorg therefore costs the
blocks since the last one, not the chain height, and the check is still
the replay from genesis: both kept states were built only by replaying
from genesis, never taken from the incremental states, a canonical block's
state depends only on its ancestors, and a block at or below final_height
stays canonical for good.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from enum import Enum
from typing import Any, Callable, Protocol

from .crypto import built_once, json_digest, sha256
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

    @built_once
    def to_json(self) -> dict:
        return {
            "chain": self.chain,
            "branch": self.branch,
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
        """The event inside its block's record, which states the block: so
        the event's own `block` is left out."""
        return {
            "kind": self.kind.value,
            "swap_id": self.swap_id.hex() if self.swap_id else None,
            "index": self.index,
            "payload": self.payload,
        }


@dataclass
class TxReceipt:
    tx: Any
    status: str               # "ok" or an error code
    detail: str | None = None
    extra: dict | None = None  # e.g. per-entry outcomes of a reveal tx

    def to_json(self, tx_dict: dict) -> dict:
        out = {"tx": tx_dict, "status": self.status}
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

    def to_json(self, txs: list[dict]) -> dict:
        """The block's trace form; txs[i] is what receipt i records of its
        tx, either its describe() or a reference to the record that already
        states it (see scenario.Runner)."""
        return {
            "chain": self.ref.chain,
            "branch": self.ref.branch,
            "height": self.ref.height,
            "hash": self.ref.block_hash.hex(),
            "parent": self.parent_hash.hex(),
            "txs": [r.to_json(tx) for r, tx in zip(self.receipts, txs)],
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

    clone() is how a block starts from its parent: it returns a copy that
    later transactions can change without touching the original. Genesis
    comes from the chain's genesis builder, not from a clone (see Chain).
    The chain never changes a state it has stored, and shares one between
    a block without transactions and its parent; callers only read them.

    A state is a dataclass whose equality (==) compares every field; the
    replay self-check relies on that, and on a mismatch names the
    top-level fields that differ (dataclasses.fields).
    """

    def clone(self) -> "EmbeddedState": ...

    def __eq__(self, other: object) -> bool: ...


class BlockCtx:
    """Per-block application context handed to contract code. `accounts`
    is the chain's own table of account objects, the same for every block
    of that chain (see Chain)."""

    def __init__(self, block_ref: BlockRef, accounts: dict):
        self.block_ref = block_ref
        self.events: list[ChainEvent] = []
        self.accounts = accounts

    @property
    def height(self) -> int:
        return self.block_ref.height

    def emit(self, kind: EventKind, swap_id: bytes | None, payload: dict) -> ChainEvent:
        event = ChainEvent(kind, swap_id, self.block_ref, len(self.events), payload)
        self.events.append(event)
        return event


_HEIGHT = struct.Struct(">Q")


def block_hash(parent_hash: bytes, height: int, tx_digests: list[bytes]) -> bytes:
    return sha256(b"".join((parent_hash, _HEIGHT.pack(height), *tx_digests)))


ApplyTx = Callable[[Any, Any, BlockCtx], dict | None]


class Chain:
    """One simulated blockchain with fork/reorg support.

    apply_tx(state, tx, ctx) mutates state in place and emits events via
    ctx; it raises GatewayError to refuse the transaction, and only before
    it has changed the state or emitted an event. A refused transaction is
    still included in the block, marked with the error code, and changes
    nothing: that is apply_tx's rule alone, the chain has no rollback.

    final_height, the canonical tip height minus finality_depth, is the
    one horizon: a block or fork that would meet the canonical chain below
    it is refused with the chain left exactly as it was, pending txs
    included, and states holds genesis plus every block at or above it.

    genesis is a zero-argument builder of the genesis state. The chain
    calls it twice and clones neither result: one build is the genesis
    block's state, the other the replay's first checkpoint and last tip.

    accounts is the chain's own table, handed to every block's context, in
    which contract code builds one account object per address on this
    chain (ledger.account_id), so that every record of an account shares
    its JSON. It is not state: the chain neither clones nor compares it,
    and a block builds equal values whether the table holds them or not.
    """

    def __init__(self, chain_id: int, genesis: Callable[[], Any],
                 apply_tx: ApplyTx, finality_depth: int):
        self.chain_id = chain_id
        self._apply_tx = apply_tx
        self.finality_depth = finality_depth
        self.accounts: dict = {}

        genesis_digest = sha256(b"genesis" + struct.pack(">B", chain_id))
        g_hash = block_hash(GENESIS_PARENT, 0, [genesis_digest])
        g_ref = BlockRef(chain_id, "main", 0, g_hash)
        g_block = Block(g_ref, GENESIS_PARENT, [], [])

        self.blocks: dict[bytes, Block] = {g_hash: g_block}
        self.states: dict[bytes, Any] = {g_hash: genesis()}
        # the hashes of the blocks produced at each height above genesis (a
        # twin's twice), so a height that falls below final_height drops at once
        self._by_height: dict[int, list[bytes]] = {}
        # insertion order is creation order, the canonical rule's last tie-break
        self.branches: dict[str, bytes] = {"main": g_hash}
        self.pending: list[Any] = []
        self._canonical_tip = g_ref
        # at and below this height the canonical chain never changes; it is
        # set with the canonical tip, so it is worked out once per block
        self.final_height = 0
        self._canonical: list[Block] = [g_block]
        self._swap_events: dict[bytes, list[ChainEvent]] = {}
        self.last_reorg: ReorgInfo | None = None
        # the replay's checkpoint: (block, the replay's state at it); its own
        # build, so that the replay shares no state object with self.states
        self._replayed: tuple[Block, Any] = (g_block, genesis())
        # the replay's last tip: the last block it reached, and its state
        self._replay_tip: tuple[Block, Any] = self._replayed

    # --- transaction queue -------------------------------------------------

    def submit(self, tx: Any) -> None:
        self.pending.append(tx)

    # --- block production --------------------------------------------------

    def produce_block(self, branch: str = "main") -> BlockRef:
        if branch not in self.branches:
            raise UnknownBranch(f"chain {self.chain_id} has no branch {branch!r}")
        parent_hash = self.branches[branch]
        parent = self.blocks[parent_hash]
        above = self.off_canonical(parent)
        fork_height = parent.ref.height - len(above)
        final = self.final_height
        if fork_height < final:
            raise BeyondFinality(
                f"chain {self.chain_id}: branch {branch!r} meets the canonical "
                f"chain at height {fork_height}, below the final height "
                f"{final} (tip minus the finality depth {self.finality_depth})")

        height = parent.ref.height + 1
        digests = [json_digest(tx.describe()) for tx in self.pending]
        new_hash = block_hash(parent_hash, height, digests)
        ref = BlockRef(self.chain_id, branch, height, new_hash)
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
        self._by_height.setdefault(height, []).append(new_hash)
        self.branches[branch] = new_hash
        self._recompute_canonical(block, above)
        if self.final_height > final:
            for dropped in self._by_height.pop(final, ()):
                self.states.pop(dropped, None)
        return ref

    def _apply_block(self, parent_state: Any, ref: BlockRef, txs: list
                     ) -> tuple[Any, list[TxReceipt], list[ChainEvent]]:
        """Apply txs in order to a clone of parent_state, which stays untouched.

        A block without txs changes nothing, so it returns parent_state
        itself: such blocks share their parent's state object, which is safe
        because no stored state is ever changed. Otherwise the parent is
        cloned once and each tx applied once: apply_tx raises GatewayError
        only before it has changed the state or emitted an event (see
        Chain), so a refused tx leaves its receipt and nothing else.
        """
        if not txs:
            return parent_state, [], []
        state = parent_state.clone()
        ctx = BlockCtx(ref, self.accounts)
        receipts: list[TxReceipt] = []
        for tx in txs:
            try:
                extra = self._apply_tx(state, tx, ctx)
            except GatewayError as err:
                receipts.append(TxReceipt(tx, err.code, detail=str(err)))
            else:
                receipts.append(TxReceipt(tx, "ok", extra=extra))
        return state, receipts, ctx.events

    def fork_at(self, height: int, name: str) -> str:
        """Create a branch rooted at the canonical block at `height`."""
        tip = self.canonical_tip
        if not 0 <= height <= tip.height:
            raise HeightBeyondTip(
                f"fork height {height} outside 0..{tip.height}, the heights "
                f"of the canonical chain")
        if height < self.final_height:
            raise BeyondFinality(
                f"fork at height {height} is below the final height "
                f"{self.final_height} (tip {tip.height} minus the finality "
                f"depth {self.finality_depth})")
        base = self.canonical_chain()[height]
        if name in self.branches:
            raise UnknownBranch(f"branch name {name!r} already in use")
        self.branches[name] = base.ref.block_hash
        return name

    def extend(self, branch: str, count: int) -> list[BlockRef]:
        return [self.produce_block(branch) for _ in range(count)]

    # --- canonical selection -----------------------------------------------

    def _recompute_canonical(self, block: Block, above: list[Block]) -> None:
        """Apply the canonical rule after `block` became its branch's tip;
        `above` is its parent's off_canonical walk.

        Only that tip moved, and every other branch tip already lost to the
        canonical tip, so the new tip is compared with the canonical tip
        alone. On an exact tie (a twin of the canonical tip) the older of the
        two branches wins, as in a scan of every branch in creation order.
        When the block wins, the blocks to append are the block and `above`;
        otherwise the old tip stays, and is walked only to re-append what a
        twin cut from the list (see produce_block).
        """
        prev_tip = self._canonical_tip
        ref = block.ref
        key = (-ref.height, ref.block_hash)
        prev_key = (-prev_tip.height, prev_tip.block_hash)
        if key == prev_key:
            name = next(n for n in self.branches
                        if n in (ref.branch, prev_tip.branch))
        else:
            name = ref.branch if key < prev_key else prev_tip.branch
        winner = self.blocks[self.branches[name]]
        tip = winner.ref
        if tip.branch != name:
            # a twin stored under another branch's name
            tip = BlockRef(self.chain_id, name, tip.height, tip.block_hash)
        self._canonical_tip = tip
        self.final_height = max(0, tip.height - self.finality_depth)

        added = [block, *above] if winner is block else self.off_canonical(winner)
        fork_height = tip.height - len(added)
        self._truncate(fork_height)
        for block in reversed(added):
            self._canonical.append(block)
            for event in block.events:
                if event.swap_id is not None:
                    self._swap_events.setdefault(event.swap_id, []).append(event)

        self.last_reorg = None
        if not self.is_canonical(prev_tip):
            self.last_reorg = ReorgInfo(prev_tip, tip, fork_height)
            self._verify_replay()

    def _truncate(self, height: int) -> None:
        """Cut the canonical list above `height` and unindex its events."""
        if height + 1 >= len(self._canonical):
            return
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

    def off_canonical(self, block: Block) -> list[Block]:
        """`block` and its ancestors above the newest canonical one, newest
        first; empty when `block` is canonical. The fork height is the
        block's height minus the list's length."""
        out: list[Block] = []
        while not self.is_canonical(block.ref):
            out.append(block)
            block = self.blocks[block.parent_hash]
        return out

    # --- queries ------------------------------------------------------------

    @property
    def canonical_state(self) -> Any:
        return self.states[self._canonical_tip.block_hash]

    @property
    def genesis_state(self) -> Any:
        """The genesis block's state, which is never dropped or changed."""
        return self.states[self._canonical[0].ref.block_hash]

    def events_since(self, cursor: int, upto: int | None = None
                     ) -> list[ChainEvent]:
        """Canonical events above height `cursor` and at or below `upto`
        (the tip if None), in (height, intra-block) order."""
        end = len(self._canonical)
        if upto is not None:
            end = min(end, upto + 1)
        out: list[ChainEvent] = []
        for height in range(max(cursor + 1, 0), end):
            out.extend(self._canonical[height].events)
        return out

    def swap_events(self, swap_id: bytes) -> list[ChainEvent]:
        """Canonical events of one swap, in canonical order. Like
        canonical_chain() this is the chain's own list: read, don't keep."""
        return self._swap_events.get(swap_id, [])

    def first_event(self, swap_id: bytes,
                    kinds: tuple[EventKind, ...]) -> ChainEvent | None:
        """The swap's first canonical event of one of `kinds`."""
        for event in self._swap_events.get(swap_id, ()):
            if event.kind in kinds:
                return event
        return None

    def canonical_events(self) -> list[ChainEvent]:
        return self.events_since(-1)

    # --- replay oracle -------------------------------------------------------

    def replay_canonical(self) -> Any:
        """Re-derive the canonical tip state by applying the transactions
        of the canonical blocks above the replay's start to its state.

        The start is the replay's last tip when that block is still
        canonical, and otherwise its checkpoint. The checkpoint starts at
        genesis and moves up to the highest block this replay passes or
        starts from at or below final_height; such a block can never be
        abandoned. A canonical block's state depends only on its ancestors,
        so either start gives the replay from genesis. Both kept states
        come only from the replay's own applies, starting from its own build
        of the genesis state, and _apply_block never changes its parent
        state, so neither is ever changed. The result may be the kept tip's
        or the checkpoint's state itself (no block above it, or none with a
        transaction): read it, don't change it.
        """
        block, state = self._replayed
        if not self.is_canonical(block.ref):
            raise RuntimeError(
                f"chain {self.chain_id}: replay checkpoint at height "
                f"{block.ref.height} is no longer canonical")
        if self.is_canonical(self._replay_tip[0].ref):
            block, state = self._replay_tip
        final = self.final_height
        if block.ref.height <= final:
            self._replayed = (block, state)
        for block in self._canonical[block.ref.height + 1:]:
            state, _, _ = self._apply_block(
                state, block.ref, [r.tx for r in block.receipts])
            if block.ref.height <= final:
                self._replayed = (block, state)
        self._replay_tip = (block, state)
        return state

    def _verify_replay(self) -> None:
        replayed = self.replay_canonical()
        if replayed != self.canonical_state:
            raise RuntimeError(self._divergence(replayed))

    def _divergence(self, replayed: Any) -> str:
        """The self-check's failure message: the reorg, and the top-level
        fields in which the two states differ."""
        ours = self.canonical_state
        differing = [f.name for f in fields(ours)
                     if getattr(ours, f.name) != getattr(replayed, f.name)]
        info = self.last_reorg
        assert info is not None

        def tip(ref: BlockRef) -> str:
            return f"{ref.branch}@{ref.height} ({ref.block_hash.hex()[:12]})"

        return (f"chain {self.chain_id}: canonical replay diverged from "
                f"incremental state after reorg from {tip(info.old_tip)} to "
                f"{tip(info.new_tip)} (fork height {info.fork_height}); "
                f"differing: {', '.join(differing)}")
