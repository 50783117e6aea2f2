"""Reference model of the status controller: a full rescan per tick.

Every tick rebuilds the maps of canonical registrations and executions
from genesis on both chains, then walks every registration. This is how
StatusController worked before it kept cursors and indexes; the
differential tests run it beside the incremental controller and require
identical output.
"""

from dataclasses import dataclass

from swapgate import SwapStatus
from swapgate.chain import EXECUTION_KINDS, REGISTRATION_KINDS
from swapgate.errors import InvalidScenario


@dataclass
class View:
    status: SwapStatus
    first_seen_exec_height: int
    last_stuck_height: int | None = None


def canonical_firsts(chains, kinds) -> dict:
    """swap id -> (chain id, first canonical event of one of `kinds`),
    chains in id order."""
    out = {}
    for chain_id in sorted(chains):
        for event in chains[chain_id].canonical_events():
            if event.kind in kinds:
                out.setdefault(event.swap_id, (chain_id, event))
    return out


class ReferenceController:
    def __init__(self, policies):
        self.policies = dict(policies)
        self.views: dict[bytes, View] = {}

    def status_of(self, swap_id):
        view = self.views.get(swap_id)
        return view.status if view else None

    def tick(self, chains) -> dict:
        result = {"transitions": [], "stuck": []}
        registrations = canonical_firsts(chains, REGISTRATION_KINDS)
        executions = canonical_firsts(chains, EXECUTION_KINDS)

        for swap_id, (reg_chain, _) in registrations.items():
            exec_chain = next(cid for cid in chains if cid != reg_chain)
            exec_tip = chains[exec_chain].canonical_tip.height
            view = self.views.get(swap_id)
            if view is None:
                view = View(SwapStatus.REGISTERED, exec_tip)
                self.views[swap_id] = view
                transition(result, swap_id, None, SwapStatus.REGISTERED,
                           "registration_observed", chain=reg_chain)

            if swap_id in executions:
                depth = exec_tip - executions[swap_id][1].block.height
                policy = self.policies[exec_chain]
                target = (SwapStatus.FINALIZED if depth >= policy.finality_depth
                          else SwapStatus.PROCESSED)
                if view.status == SwapStatus.REGISTERED:
                    transition(result, swap_id, SwapStatus.REGISTERED,
                               SwapStatus.PROCESSED, "execution_canonical",
                               chain=exec_chain)
                    view.status = SwapStatus.PROCESSED
                if view.status == SwapStatus.PROCESSED and \
                        target == SwapStatus.FINALIZED:
                    transition(result, swap_id, SwapStatus.PROCESSED,
                               SwapStatus.FINALIZED, f"execution_depth_{depth}",
                               chain=exec_chain)
                    view.status = SwapStatus.FINALIZED
            else:
                if view.status == SwapStatus.FINALIZED:
                    raise InvalidScenario(
                        f"finalized swap {swap_id.hex()} lost its execution "
                        f"event: reorg deeper than the finality depth")
                if view.status == SwapStatus.PROCESSED:
                    transition(result, swap_id, SwapStatus.PROCESSED,
                               SwapStatus.REGISTERED, "execution_reorged",
                               revert=True, chain=exec_chain)
                    view.status = SwapStatus.REGISTERED
                waited = exec_tip - view.first_seen_exec_height
                if waited > self.policies[exec_chain].recovery_timeout and \
                        view.last_stuck_height != exec_tip:
                    view.last_stuck_height = exec_tip
                    result["stuck"].append({
                        "swap_id": swap_id.hex(),
                        "execution_chain": exec_chain,
                        "waited_blocks": waited,
                    })

        for swap_id in list(self.views):
            if swap_id not in registrations:
                view = self.views.pop(swap_id)
                transition(result, swap_id, view.status, None,
                           "registration_reorged", revert=True)
        return result


def transition(result, swap_id, old, new, reason, revert=False, chain=None):
    result["transitions"].append({
        "swap_id": swap_id.hex(),
        "from": old.label if old else None,
        "to": new.label if new else None,
        "reason": reason,
        "revert": revert,
        "chain": chain,
    })
