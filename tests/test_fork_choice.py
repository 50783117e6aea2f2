"""The fork choice against the full scan of every branch.

A block moves one branch tip, so the chain compares that branch's new tip
with the canonical tip alone, and falls back to creation order only on an
exact tie: a twin block, produced again with the same parent and txs on
another branch. Here every produce_block is wrapped, and right after it the
canonical tip must equal reference_fork_choice.scan_tip, branch name
included.

The timelines are the random ones of test_chain_index (a bare chain, with
and without a small finality depth; they fork at the tip height and build
twins) and of test_controller_differential (two gateway chains with
relays, forks and ticks). Explicit examples pin both tie outcomes: the
older branch keeps the tip when a newer one builds its twin, and takes the
tip over when it builds the twin of a newer branch's tip.
"""

from contextlib import contextmanager
from unittest import mock

from hypothesis import example, given

from swapgate import Chain

from reference_fork_choice import scan_tip
from test_chain_index import (SMALL, UNBOUNDED, EventTx, Values,
                              apply_event_tx, replay, steps)
from test_controller_differential import ops, play


@contextmanager
def scan_checked():
    """Check every produce_block against the scan; yields the list of
    (block, whether it was a twin of a block already in the tree)."""
    produced = []
    produce = Chain.produce_block

    def checked(chain, branch="main"):
        known = len(chain.blocks)
        ref = produce(chain, branch)
        assert chain.canonical_tip == scan_tip(chain)
        produced.append((ref, len(chain.blocks) == known))
        return ref

    with mock.patch.object(Chain, "produce_block", checked):
        yield produced


# fork arguments: 0 forks at the tip height, 1 (at tip 1) forks at genesis
OLDER_KEEPS_TIP = [("produce", 0, []), ("fork", 1, None), ("produce", 1, [])]
OLDER_TAKES_TIP = [("produce", 0, []), ("fork", 0, None), ("produce", 1, []),
                   ("produce", 0, [])]
TWIN_WITH_TXS = [("produce", 0, [EventTx(0, 1)]), ("fork", 1, None),
                 ("produce", 1, [EventTx(0, 1)]), ("extend", 1, 2)]


@given(steps)
@example(OLDER_KEEPS_TIP)
@example(OLDER_TAKES_TIP)
@example(TWIN_WITH_TXS)
def test_bare_chain_fork_choice_matches_scan(timeline):
    with scan_checked():
        replay(timeline, UNBOUNDED)
        replay(timeline, SMALL)


@given(ops)
def test_gateway_fork_choice_matches_scan(timeline):
    with scan_checked():
        play(timeline)


def test_twin_tie_falls_back_to_creation_order():
    """An exact tie on (height, tip hash) is a twin block; of the branches
    holding it, the one created first is canonical."""
    chain = Chain(5, Values, apply_event_tx, finality_depth=UNBOUNDED)
    with scan_checked() as produced:
        chain.produce_block()                   # main@1
        chain.fork_at(0, "newer")
        chain.produce_block("newer")            # twin of main@1: main keeps it
        assert chain.canonical_branch == "main"
        chain.fork_at(1, "newest")              # at the tip height
        chain.produce_block("newest")           # newest@2, taller
        assert chain.canonical_branch == "newest"
        chain.produce_block("main")             # twin of newest@2: main takes it
        assert chain.canonical_branch == "main"
        chain.produce_block("newer")            # a third twin: main keeps it
        assert chain.canonical_branch == "main"
    assert [twin for _, twin in produced] == [False, True, False, True, True]
    assert chain.last_reorg is None
