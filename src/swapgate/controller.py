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
reorged deeper than the finality depth, which the scenario layer rejects
outright; the controller treats it as fatal.

Each tick reads only what is new. Per chain the controller keeps a cursor,
the last canonical block it indexed, and indexes of the canonical
registration and execution events by swap id. When the cursor block is no
longer canonical, however many reorgs happened since, the cursor walks
back to the newest of its ancestors that still is: the fork height. Index
entries above it are dropped, and the events above it are read again. The
tick then revisits only the swaps that are not finalized and those whose
indexed events the rewind dropped. Transitions come out in canonical
registration order (chain by chain), exactly as a full rescan would emit
them, and retractions in the order the swaps were first observed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .chain import EXECUTION_KINDS, REGISTRATION_KINDS, Block, Chain, ChainEvent
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
    registration_chain: int
    execution_chain: int
    registered_height: int
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
        self._registrations = {chain_id: {} for chain_id in self.policies}
        self._executions = {chain_id: {} for chain_id in self.policies}
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
                if (event := self._registration(swap_id)) is not None]
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
                    registration_chain=reg_chain,
                    execution_chain=exec_chain,
                    registered_height=reg_event.block.height,
                    first_seen_exec_height=exec_tip,
                    observed=next(self._observed),
                )
                self.views[swap_id] = view
                self._transition(result, swap_id, None, SwapStatus.REGISTERED,
                                 "registration_observed", chain=reg_chain)

            exec_event = self._executions[exec_chain].get(swap_id)
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
                and self._registration(swap_id) is None]
        for swap_id in sorted(gone, key=lambda s: self.views[s].observed):
            view = self.views.pop(swap_id)
            self._open.discard(swap_id)
            self._transition(result, swap_id, view.status, None,
                             "registration_reorged", revert=True)
        return result

    # --- helpers -----------------------------------------------------------

    def _advance(self, chain: Chain) -> set[bytes]:
        """Rewind this chain's indexes to the newest indexed block that is
        still canonical, then index the canonical events above it. Returns
        the swaps whose indexed events the rewind dropped."""
        registrations = self._registrations[chain.chain_id]
        executions = self._executions[chain.chain_id]
        cursor = self._cursors.get(chain.chain_id)
        while cursor is not None and not chain.is_canonical(cursor.ref):
            cursor = chain.blocks[cursor.parent_hash]
        height = cursor.ref.height if cursor is not None else -1
        touched: set[bytes] = set()
        for index in (registrations, executions):
            # both indexes are in canonical order, so the rewind pops a tail
            while index and index[next(reversed(index))].block.height > height:
                touched.add(index.popitem()[0])
        for event in chain.events_since(height):
            if event.kind in REGISTRATION_KINDS and \
                    event.swap_id not in registrations:
                registrations[event.swap_id] = event
                self._open.add(event.swap_id)
            elif event.kind in EXECUTION_KINDS:
                executions.setdefault(event.swap_id, event)
        self._cursors[chain.chain_id] = chain.blocks[chain.canonical_tip.block_hash]
        return touched

    def _registration(self, swap_id: bytes) -> ChainEvent | None:
        """The swap's first canonical registration, lowest chain id first."""
        return next((index[swap_id] for _, index in
                     sorted(self._registrations.items()) if swap_id in index),
                    None)

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
