"""Off-chain status registry: finalization and stuck-swap recovery.

The controller never writes to a chain. It watches canonical events on both
chains and keeps its own per-swap view: a swap becomes Processed when its
execution event is canonical, Finalized once that event is buried at least
the finality depth, and flagged stuck when it has sat unexecuted past the
recovery timeout (measured in blocks of the chain that should execute it).
A flagged swap is handed back to the oracle network for re-attestation; the
executing port's duplicate guard makes a re-delivered entry harmless.

If an execution event disappears in a reorg before the controller saw it
finalize, the view reverts to Registered and the timeout clock keeps
running from the original observation, so recovery fires as early as
possible. A Finalized swap losing its execution event would mean the chain
reorged deeper than the finality depth, which the Chain itself refuses; the
controller treats it as fatal.

Each tick reads only what is new. Per chain the controller keeps a cursor,
the last canonical block it read. When the cursor block is no longer
canonical, however many reorgs happened since, the cursor walks back to the
newest of its ancestors that still is: the fork height. The swaps named in
the orphaned blocks it passes are revisited, and the events above the fork
height are read again for new registrations. A swap's first canonical
registration and execution come from the chain's own swap index
(Chain.swap_events). The tick revisits only the swaps that are not
finalized and those the walk passed. Transitions come out in canonical
registration order (chain by chain), exactly as a full rescan would emit
them, and retractions in the order the swaps were first observed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .chain import (EXECUTION_KINDS, REGISTRATION_KINDS, Block, Chain, ChainEvent,
                    EventKind)
from .errors import InvalidScenario
from .ports import SwapStatus


@dataclass
class FinalityPolicy:
    finality_depth: int = 6
    recovery_timeout: int = 50

    def __post_init__(self):
        if self.finality_depth < 1:
            raise ValueError("finality depth must be at least 1")


@dataclass
class _SwapView:
    status: SwapStatus
    first_seen_exec_height: int
    observed: int                 # the order in which views were created
    last_stuck_height: int | None = None


@dataclass
class TickResult:
    transitions: list[dict] = field(default_factory=list)
    stuck: list[dict] = field(default_factory=list)
    requeue: list[bytes] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"transitions": self.transitions, "stuck": self.stuck}


class StatusController:
    def __init__(self, policies: dict[int, FinalityPolicy]):
        self.policies = dict(policies)
        self.views: dict[bytes, _SwapView] = {}
        self._cursors: dict[int, Block] = {}
        self._open: set[bytes] = set()      # registered, not yet finalized
        self._observed = itertools.count()

    def status_of(self, swap_id: bytes) -> SwapStatus | None:
        view = self.views.get(swap_id)
        return view.status if view else None

    def tick(self, chains: dict[int, Chain]) -> TickResult:
        """Single controller pass over both chains' new canonical events.

        Idempotent per block height: a second tick without new blocks emits
        nothing.
        """
        result = TickResult()
        touched: set[bytes] = set()
        for chain_id in sorted(chains):
            touched |= self._advance(chains[chain_id])
        live = [event for swap_id in self._open | touched
                if (event := self._registration(chains, swap_id)) is not None]
        live.sort(key=lambda e: (e.block.chain, e.block.height, e.index))

        for reg_event in live:
            swap_id = reg_event.swap_id
            assert swap_id is not None
            reg_chain = reg_event.block.chain
            exec_chain = self._counterpart(chains, reg_chain)
            exec_tip = chains[exec_chain].canonical_tip.height
            view = self.views.get(swap_id)
            if view is None:
                view = _SwapView(
                    status=SwapStatus.REGISTERED,
                    first_seen_exec_height=exec_tip,
                    observed=next(self._observed),
                )
                self.views[swap_id] = view
                self._transition(result, swap_id, None, SwapStatus.REGISTERED,
                                 "registration_observed", chain=reg_chain)

            exec_event = _first(chains[exec_chain], swap_id, EXECUTION_KINDS)
            if exec_event is not None:
                depth = exec_tip - exec_event.block.height
                policy = self.policies[exec_chain]
                target = (SwapStatus.FINALIZED if depth >= policy.finality_depth
                          else SwapStatus.PROCESSED)
                if view.status == SwapStatus.REGISTERED and \
                        target >= SwapStatus.PROCESSED:
                    self._transition(result, swap_id, SwapStatus.REGISTERED,
                                     SwapStatus.PROCESSED,
                                     "execution_canonical", chain=exec_chain)
                    view.status = SwapStatus.PROCESSED
                if view.status == SwapStatus.PROCESSED and \
                        target == SwapStatus.FINALIZED:
                    self._transition(result, swap_id, SwapStatus.PROCESSED,
                                     SwapStatus.FINALIZED,
                                     f"execution_depth_{depth}",
                                     chain=exec_chain)
                    view.status = SwapStatus.FINALIZED
                if view.status == SwapStatus.FINALIZED:
                    self._open.discard(swap_id)
            else:
                if view.status == SwapStatus.FINALIZED:
                    raise InvalidScenario(
                        f"finalized swap {swap_id.hex()} lost its execution "
                        f"event: reorg deeper than the finality depth")
                if view.status == SwapStatus.PROCESSED:
                    self._transition(result, swap_id, SwapStatus.PROCESSED,
                                     SwapStatus.REGISTERED, "execution_reorged",
                                     revert=True, chain=exec_chain)
                    view.status = SwapStatus.REGISTERED
                waited = exec_tip - view.first_seen_exec_height
                if waited > self.policies[exec_chain].recovery_timeout and \
                        view.last_stuck_height != exec_tip:
                    view.last_stuck_height = exec_tip
                    result.stuck.append({
                        "swap_id": swap_id.hex(),
                        "execution_chain": exec_chain,
                        "waited_blocks": waited,
                    })
                    result.requeue.append(swap_id)

        gone = [swap_id for swap_id in touched if swap_id in self.views
                and self._registration(chains, swap_id) is None]
        for swap_id in sorted(gone, key=lambda s: self.views[s].observed):
            view = self.views.pop(swap_id)
            self._open.discard(swap_id)
            self._transition(result, swap_id, view.status, None,
                             "registration_reorged", revert=True)
        return result

    # --- helpers -----------------------------------------------------------

    def _advance(self, chain: Chain) -> set[bytes]:
        """Walk this chain's cursor back to the newest block it read that is
        still canonical, note the new registrations above it and move the
        cursor to the tip. Returns the swaps named in the orphaned blocks
        the walk passed."""
        cursor = self._cursors.get(chain.chain_id)
        touched: set[bytes] = set()
        while cursor is not None and not chain.is_canonical(cursor.ref):
            touched.update(event.swap_id for event in cursor.events
                           if event.swap_id is not None)
            cursor = chain.blocks[cursor.parent_hash]
        height = cursor.ref.height if cursor is not None else -1
        self._open.update(event.swap_id for event in chain.events_since(height)
                          if event.kind in REGISTRATION_KINDS)
        self._cursors[chain.chain_id] = chain.blocks[chain.canonical_tip.block_hash]
        return touched

    @staticmethod
    def _registration(chains: dict[int, Chain],
                      swap_id: bytes) -> ChainEvent | None:
        """The swap's first canonical registration, lowest chain id first."""
        for chain_id in sorted(chains):
            event = _first(chains[chain_id], swap_id, REGISTRATION_KINDS)
            if event is not None:
                return event
        return None

    @staticmethod
    def _counterpart(chains: dict[int, Chain], chain_id: int) -> int:
        others = [cid for cid in chains if cid != chain_id]
        assert len(others) == 1, "controller expects exactly two chains"
        return others[0]

    @staticmethod
    def _transition(result: TickResult, swap_id: bytes,
                    old: SwapStatus | None, new: SwapStatus | None,
                    reason: str, revert: bool = False,
                    chain: int | None = None) -> None:
        result.transitions.append({
            "swap_id": swap_id.hex(),
            "from": old.label if old else None,
            "to": new.label if new else None,
            "reason": reason,
            "revert": revert,
            "chain": chain,
        })


def _first(chain: Chain, swap_id: bytes,
           kinds: tuple[EventKind, ...]) -> ChainEvent | None:
    """The swap's first canonical event of one of `kinds` on `chain`."""
    for event in chain.swap_events(swap_id):
        if event.kind in kinds:
            return event
    return None
