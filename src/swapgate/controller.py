"""Off-chain status registry: finalization and stuck-swap recovery.

The controller never writes to a chain. It watches canonical events on both
chains and keeps its own per-swap view: a swap becomes Processed when its
execution event is canonical, Finalized once that event sits at or below
the executing chain's final height (Chain.final_height, the tip minus its
finality depth), and flagged stuck when it has sat unexecuted past the
recovery timeout (measured in blocks of the chain that should execute it).
A tick returns {"transitions": [...], "stuck": [...]}, the lists its trace
record holds; each names a swap by the kept hex string of its registration's
id (encoding.SwapId). The runner hands exactly the swaps the stuck entries
name back to the oracle network for re-attestation; the executing port's
duplicate guard makes a re-delivered entry harmless.

If an execution event disappears in a reorg before the controller saw it
finalize, the view reverts to Registered and the timeout clock keeps
running from the original observation, so recovery fires as early as
possible. A Finalized swap cannot lose its execution event: at and below
its final height the Chain's canonical chain never changes.

Each tick reads only what is new. Per chain the controller keeps a cursor,
the last canonical block it read. When the cursor block is no longer
canonical, however many reorgs happened since, the cursor walks back to the
newest of its ancestors that still is: the fork height. The swaps named in
the orphaned blocks it passes are revisited, and the events above the fork
height are read again for new registrations. A cursor that is still
canonical is not walked, and a chain whose cursor is its tip is not read.
When no swap is open and no block was orphaned, the tick ends there: it
has nothing to revisit and emits nothing. A swap's first canonical
registration and execution come from the chain's own swap index
(Chain.swap_events). A view keeps the registration it found, and while the
swap is Processed the height of its execution: both stay canonical until a
reorg orphans their block, and the walk names every such swap, which the
tick then looks up again. So the tick revisits only the swaps the walk
passed, the Registered ones, and the Processed ones whose execution has
become final; the chain order, each chain's counterpart and that
counterpart's tip, final height and recovery timeout are worked out once
per tick. A swap the walk named is looked up once: the same lookup finds
the registration it is revisited from, or tells that its view lost it. Per
visited swap the tick reads the swap's id string and status once, makes
one execution lookup, and builds nothing but the transitions and stuck
entries it emits, each a dict literal. Transitions come out in canonical
registration order (chain by chain), exactly as a full rescan would emit
them, and retractions in the order the swaps were first observed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import EXECUTION_KINDS, REGISTRATION_KINDS, Block, Chain, ChainEvent
from .ports import SwapStatus

REGISTERED, PROCESSED, FINALIZED = SwapStatus


@dataclass
class _SwapView:
    status: SwapStatus
    first_seen_exec_height: int
    # the swap's first canonical registration: it stays canonical until a
    # reorg orphans its block, which the cursor walk then names
    registration: ChainEvent
    # the height of the first canonical execution, read while the swap is
    # Processed; like the registration, it stays until the walk names it
    executed_at: int = -1
    last_stuck_height: int | None = None


class StatusController:
    def __init__(self, recovery_timeout: dict[int, int]):
        self.recovery_timeout = dict(recovery_timeout)
        self.views: dict[bytes, _SwapView] = {}
        self._cursors: dict[int, Block] = {}
        self._open: set[bytes] = set()      # registered, not yet finalized

    def status_of(self, swap_id: bytes) -> SwapStatus | None:
        view = self.views.get(swap_id)
        return view.status if view else None

    def tick(self, chains: dict[int, Chain]) -> dict:
        """Single controller pass over both chains' new canonical events:
        {"transitions": [...], "stuck": [...]}, the lists the tick record
        holds. A stuck entry's `swap_id` names the swap to re-attest.

        Idempotent per block height: a second tick without new blocks emits
        nothing.
        """
        order = [chains[chain_id] for chain_id in sorted(chains)]
        assert len(order) == 2, "controller expects exactly two chains"
        touched: set[bytes] = set()
        for chain in order:
            self._advance(chain, touched)
        transitions: list[dict] = []
        stuck: list[dict] = []
        result = {"transitions": transitions, "stuck": stuck}
        if not (self._open or touched):
            # nothing to revisit, and no view can have lost its registration
            return result
        # per registering chain: the chain that executes its swaps, its id,
        # tip and final heights and recovery timeout, which stay put for the
        # whole tick
        executor = {
            reg.chain_id: (on, on.chain_id, on.canonical_tip.height,
                           on.final_height, self.recovery_timeout[on.chain_id])
            for reg, on in zip(order, order[::-1])}
        views = self.views
        live: list[ChainEvent] = []
        gone: set[bytes] = set()
        for swap_id in self._open | touched if touched else self._open:
            view = views.get(swap_id)
            if view is None or swap_id in touched:
                event = _registration(order, swap_id)
                if event is not None:
                    live.append(event)
                elif view is not None:
                    gone.add(swap_id)
            # a Processed swap the walk did not name is visited again only
            # once its execution is final
            elif view.status != PROCESSED or view.executed_at <= \
                    executor[view.registration.block.chain][3]:
                live.append(view.registration)
        live.sort(key=_position)

        for reg_event in live:
            swap_id = reg_event.swap_id
            sid = swap_id.hex()
            reg_chain = reg_event.block.chain
            exec_on, exec_chain, exec_tip, exec_final, timeout = \
                executor[reg_chain]
            view = views.get(swap_id)
            if view is None:
                view = views[swap_id] = _SwapView(REGISTERED, exec_tip,
                                                  reg_event)
                transitions.append({
                    "swap_id": sid, "from": None, "to": "registered",
                    "reason": "registration_observed", "revert": False,
                    "chain": reg_chain})
            else:
                view.registration = reg_event
            status = view.status

            exec_event = exec_on.first_event(swap_id, EXECUTION_KINDS)
            if exec_event is not None:
                height = view.executed_at = exec_event.block.height
                if status == REGISTERED:
                    transitions.append({
                        "swap_id": sid, "from": "registered",
                        "to": "processed", "reason": "execution_canonical",
                        "revert": False, "chain": exec_chain})
                    status = view.status = PROCESSED
                if status == PROCESSED and height <= exec_final:
                    transitions.append({
                        "swap_id": sid, "from": "processed",
                        "to": "finalized",
                        "reason": f"execution_depth_{exec_tip - height}",
                        "revert": False, "chain": exec_chain})
                    status = view.status = FINALIZED
                if status == FINALIZED:
                    self._open.discard(swap_id)
            else:
                assert status != FINALIZED, \
                    "the canonical chain never changes at or below the final height"
                if status == PROCESSED:
                    transitions.append({
                        "swap_id": sid, "from": "processed",
                        "to": "registered", "reason": "execution_reorged",
                        "revert": True, "chain": exec_chain})
                    view.status = REGISTERED
                waited = exec_tip - view.first_seen_exec_height
                if waited > timeout and view.last_stuck_height != exec_tip:
                    view.last_stuck_height = exec_tip
                    stuck.append({"swap_id": sid, "execution_chain": exec_chain,
                                  "waited_blocks": waited})

        if gone:
            # views is in observation order: a re-created view is appended
            for swap_id in [s for s in views if s in gone]:
                view = views.pop(swap_id)
                self._open.discard(swap_id)
                transitions.append({
                    "swap_id": view.registration.swap_id.hex(),
                    "from": view.status.label, "to": None,
                    "reason": "registration_reorged", "revert": True,
                    "chain": None})
        return result

    # --- helpers -----------------------------------------------------------

    def _advance(self, chain: Chain, touched: set[bytes]) -> None:
        """Walk this chain's cursor back to the newest block it read that is
        still canonical, note the new registrations above it and move the
        cursor to the tip. Adds to `touched` the swaps named in the
        orphaned blocks the walk passed."""
        cursor = self._cursors.get(chain.chain_id)
        height = -1
        if cursor is not None:
            height = cursor.ref.height
            if not chain.is_canonical(cursor.ref):
                orphaned = chain.off_canonical(cursor)
                for block in orphaned:
                    touched.update(event.swap_id for event in block.events
                                   if event.swap_id is not None)
                height -= len(orphaned)
        tip = chain.canonical_tip
        if height < tip.height:
            for event in chain.events_since(height):
                if event.kind in REGISTRATION_KINDS:
                    self._open.add(event.swap_id)
            self._cursors[chain.chain_id] = chain.blocks[tip.block_hash]


def _registration(order: list[Chain], swap_id: bytes) -> ChainEvent | None:
    """The swap's first canonical registration on the chains in `order`,
    lowest chain id first."""
    for chain in order:
        event = chain.first_event(swap_id, REGISTRATION_KINDS)
        if event is not None:
            return event
    return None


def _position(event: ChainEvent) -> tuple[int, int, int]:
    """An event's canonical position: chain, height, index in its block."""
    block = event.block
    return block.chain, block.height, event.index
