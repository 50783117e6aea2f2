"""The reorg self-check's replay from its last tip or its checkpoint.

Chain.replay_canonical resumes from the last block it reached, its last
tip, while that block is canonical, so each canonical block is replayed
once; a reorg that orphans the last tip falls back to the checkpoint, the
deepest block the replay has passed at most finality_depth below the tip.
After every reorg of a generated, adversarial or regression run it must
equal the replay from genesis (reference_replay) and the incremental tip
state; no block is replayed twice on the generated reorg runs, and no
replay builds an event or a receipt; the fallback gives the same result;
a rejected tx above the checkpoint must roll back on the replay side
without touching the checkpoint; and a checkpoint that is no longer
canonical is refused. test_state_equality checks that a state bug still
makes the self-check raise once the checkpoint has left genesis.
"""

import copy
from collections import Counter
from pathlib import Path

import pytest

from swapgate import Chain, LockTx
from swapgate import chain as chain_module
from swapgate.chain import ChainEvent, ReplayCtx, TxReceipt
from swapgate.cli import load_scenario
from swapgate.scenario import Runner

from conftest import ALICE, BOB, World
from reference_replay import assert_replay_matches_genesis
from scenario_gen import adversarial_scenario, reorg_scenario
from test_trace_digests import ADVERSARIAL_ROSTER

HERE = Path(__file__).parent
FORK_CROSSING = HERE / "scenarios" / "fork_crossing_delivery.json"

RUNS = {
    **{f"reorg/seed{seed}": (lambda seed=seed: reorg_scenario(seed), True)
       for seed in range(1, 6)},
    "adversarial": (lambda: adversarial_scenario(ADVERSARIAL_ROSTER), False),
    "fork_crossing_delivery": (lambda: load_scenario(str(FORK_CROSSING)),
                               True),
}


@pytest.mark.parametrize("key", sorted(RUNS))
def test_checkpoint_replay_equals_genesis_replay(key, monkeypatch):
    make, reorgs = RUNS[key]
    checked = []
    verify = Chain._verify_replay

    def verify_against_genesis(chain):
        verify(chain)
        assert_replay_matches_genesis(chain)
        checked.append(chain.chain_id)

    monkeypatch.setattr(Chain, "_verify_replay", verify_against_genesis)
    runner = Runner(make())
    result = runner.run()
    assert result.exit_code == 0, (result.error, result.violations)
    assert bool(checked) == reorgs
    for chain in runner.chains.values():
        assert_replay_matches_genesis(chain)


@pytest.mark.parametrize("seed", range(1, 6))
def test_replay_applies_each_block_once(seed, monkeypatch):
    """Over a reorg-heavy run, no replay applies a block that an earlier
    replay of the same chain has applied: each resumes from its last tip.
    The replay builds one ReplayCtx per block it applies, and nothing else
    does."""
    applied = []
    init = ReplayCtx.__init__

    def counting_init(ctx, block_ref, accounts):
        applied.append((block_ref.chain, block_ref.block_hash))
        init(ctx, block_ref, accounts)

    monkeypatch.setattr(ReplayCtx, "__init__", counting_init)
    assert Runner(reorg_scenario(seed)).run().exit_code == 0
    assert applied
    assert len(set(applied)) == len(applied)


@pytest.mark.parametrize("seed", range(1, 6))
def test_replay_builds_only_state(seed, monkeypatch):
    """No replay builds a ChainEvent or a TxReceipt: the self-check
    compares states only, so a replayed block builds its state and nothing
    else. The replay still equals the replay from genesis after every
    reorg."""
    built = Counter()
    inside = []
    checked = []
    replay, verify = Chain.replay_canonical, Chain._verify_replay

    def counting(kind):
        def build(*args, **kwargs):
            built[kind.__name__, "replay" if inside else "production"] += 1
            return kind(*args, **kwargs)
        return build

    def counting_replay(chain):
        inside.append(chain)
        try:
            return replay(chain)
        finally:
            inside.pop()

    def verify_against_genesis(chain):
        verify(chain)
        assert_replay_matches_genesis(chain)
        checked.append(chain.chain_id)

    for kind in (ChainEvent, TxReceipt):
        monkeypatch.setattr(chain_module, kind.__name__, counting(kind))
    monkeypatch.setattr(Chain, "replay_canonical", counting_replay)
    monkeypatch.setattr(Chain, "_verify_replay", verify_against_genesis)
    assert Runner(reorg_scenario(seed)).run().exit_code == 0
    assert checked
    assert built["ChainEvent", "production"] and built["TxReceipt", "production"]
    assert (built["ChainEvent", "replay"], built["TxReceipt", "replay"]) == (0, 0)


def extend_checked(chain, branch, count):
    """Extend `branch`, and after each reorg require the replay to equal
    the replay from genesis and the incremental tip state."""
    for _ in range(count):
        chain.produce_block(branch)
        if chain.last_reorg is not None:
            assert_replay_matches_genesis(chain)


def test_replay_falls_back_when_its_last_tip_is_orphaned():
    """A second reorg orphans the block where the first replay ended, so
    the second replay starts from the checkpoint, below the fork."""
    origin = World(fin_depth=3).origin
    for amount in (1, 2, 3, 4):
        origin.submit(lock(amount))
        origin.produce_block()
    origin.fork_at(3, "a")
    origin.submit(lock(5))
    extend_checked(origin, "a", 2)           # a outgrows main
    assert origin.canonical_branch == "a"
    last_tip, _ = origin._replay_tip
    assert origin.is_canonical(last_tip.ref) and last_tip.ref.height > 3
    fork = last_tip.ref.height - 1
    assert origin._replayed[0].ref.height < fork

    origin.fork_at(fork, "b")
    origin.submit(lock(6))
    extend_checked(origin, "b", origin.canonical_tip.height - fork + 1)
    assert origin.canonical_branch == "b"
    assert not origin.is_canonical(last_tip.ref)
    assert origin._replay_tip[0].ref.block_hash \
        == origin.canonical_tip.block_hash
    assert_replay_matches_genesis(origin)


def test_checkpoint_leaves_genesis_and_shares_no_state():
    """After a reorg-heavy run each chain's checkpoint is above genesis,
    its last tip is canonical, and both states are the replay's own, not
    incremental states."""
    runner = Runner(reorg_scenario(3))
    assert runner.run().exit_code == 0
    for chain in runner.chains.values():
        block, state = chain._replayed
        tip, tip_state = chain._replay_tip
        assert block.ref.height > 0
        assert chain.is_canonical(block.ref)
        assert chain.is_canonical(tip.ref)
        assert tip.ref.height >= block.ref.height
        for kept in chain.states.values():
            assert state is not kept and tip_state is not kept


def test_checkpoint_starts_from_its_own_genesis_build():
    """Empty blocks store their parent's state object, so the stored genesis
    state is the state of every empty block above it too. The checkpoint
    starts from its own build of genesis instead, from the chain's genesis
    builder: otherwise a state corrupted in place, or a map that clone()
    shares, would be corrupted on the replay side as well, and the
    self-check would stay silent (test_state_equality)."""
    origin = World().origin
    block, state = origin._replayed
    assert block is origin.canonical_chain()[0]
    assert state is not origin.genesis_state
    assert state == origin.genesis_state
    origin.extend("main", 2)
    assert origin.canonical_state is origin.genesis_state
    assert origin.replay_canonical() is state


def lock(amount):
    return LockTx(0, ALICE, "T", amount, BOB)


def test_replay_rolls_back_a_rejected_tx_above_the_checkpoint():
    origin = World(fin_depth=1).origin
    origin.submit(lock(2))
    origin.extend("main", 3)
    origin.fork_at(2, "x")
    origin.submit(lock(1))
    origin.extend("x", 2)                    # x wins: the checkpoint moves up
    assert origin.canonical_branch == "x"
    base, base_state = origin._replayed
    assert base.ref.height >= 2
    for amount in (10, 10**9, 20):
        origin.submit(lock(amount))
    rejecting = origin.produce_block("x")
    origin.produce_block("x")
    snapshot = copy.deepcopy(base_state)

    origin.fork_at(rejecting.height, "y")
    origin.submit(lock(3))
    origin.extend("y", 2)                    # the replay passes `rejecting`

    assert origin.canonical_branch == "y"    # x's tip block is abandoned
    assert [r.status for r in origin.blocks[rejecting.block_hash].receipts] \
        == ["ok", "InsufficientBalance", "ok"]
    assert origin._replayed[0].ref.height >= rejecting.height
    assert origin.replay_canonical() == origin.canonical_state
    assert base_state == snapshot
    assert_replay_matches_genesis(origin)


def test_checkpoint_no_longer_canonical_raises():
    """A checkpoint that a reorg abandons breaks the argument that the
    replay equals the replay from genesis; the replay refuses to run."""
    origin = World(fin_depth=1).origin
    origin.submit(lock(1))
    origin.produce_block()
    doomed = origin.produce_block()
    origin._replayed = (origin.blocks[doomed.block_hash],
                        origin.states[doomed.block_hash])
    origin.fork_at(1, "alt")
    origin.submit(lock(2))
    with pytest.raises(RuntimeError, match="checkpoint at height 2 is no "
                                           "longer canonical"):
        origin.extend("alt", 2)
