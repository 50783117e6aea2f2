"""Reference model of the reorg self-check's replay: always from genesis.

Chain.replay_canonical resumes from the last block it reached, or falls
back to a checkpoint near the finality depth. This is how it worked before
either: fold the chain's own block application over every canonical block
above genesis, starting from the genesis state. The differential tests
require the two replays and the incremental tip state to be equal.
"""


def genesis_replay(chain):
    """The canonical tip state, replayed from the genesis state."""
    state = chain.genesis_state
    for block in chain.canonical_chain()[1:]:
        state, _, _ = chain._apply_block(
            state, block.ref, [r.tx for r in block.receipts])
    return state


def assert_replay_matches_genesis(chain) -> None:
    replayed = chain.replay_canonical()
    assert replayed == genesis_replay(chain), chain.chain_id
    assert replayed == chain.canonical_state, chain.chain_id
