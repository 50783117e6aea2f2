"""Reference model of the canonical rule: a scan of every branch.

Chain._recompute_canonical compares the extended branch's new tip with the
canonical tip only. This is how it chose before: scan every branch in
creation order and keep the first whose tip has the smallest
(-height, tip hash). The fork-choice tests require the two to agree,
branch name included, after every block.
"""

from swapgate.chain import BlockRef


def scan_tip(chain) -> BlockRef:
    """The canonical tip by the creation-order scan of chain.branches."""
    best = None
    for name, tip_hash in chain.branches.items():
        key = (-chain.blocks[tip_hash].ref.height, tip_hash)
        if best is None or key < best[0]:
            best = (key, name)
    (neg_height, tip_hash), name = best
    return BlockRef(chain.chain_id, name, -neg_height, tip_hash)
