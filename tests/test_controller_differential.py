"""The incremental status controller against the full-rescan reference.

Both controllers watch the same two chains and are ticked together; after
every tick the dicts they return (transitions and stuck swaps) and their
per-swap views (statuses and view order) must be identical. The timelines fork both chains, so origin forks
orphan registrations and destination forks orphan mints, land several
reorgs between two ticks, tick with no new block, and keep finalized swaps
around while later reorgs happen. The chains refuse any reorg deeper than
their finality depth, the depth at which both controllers finalize.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from swapgate import BurnTx, LockTx, SwapStatus
from swapgate.errors import BeyondFinality

from conftest import ALICE, BOB, World
from reference_controller import ReferenceController


class Twins:
    """A World whose controller is shadowed by the reference model."""

    def __init__(self, **world_args):
        self.w = World(**world_args)
        # the reference reads both settings from one object per chain
        self.reference = ReferenceController({
            cid: SimpleNamespace(
                finality_depth=chain.finality_depth,
                recovery_timeout=self.w.controller.recovery_timeout[cid])
            for cid, chain in self.w.chains.items()})
        self.forks = 0
        self.ticks = []

    def tick(self) -> None:
        """Tick both controllers and require identical outcomes."""
        new = self.w.controller.tick(self.w.chains)
        old = self.reference.tick(self.w.chains)
        assert new == old
        assert list(self.w.controller.views) == list(self.reference.views)
        for swap_id in self.reference.views:
            assert self.w.controller.status_of(swap_id) == \
                self.reference.status_of(swap_id)
        for entry in new["stuck"]:
            self.w.network.request_reattestation(
                bytes.fromhex(entry["swap_id"]))
        self.ticks.append(new)

    def fork(self, chain_id: int, depth: int, extend: int = 0) -> str:
        chain = self.w.chains[chain_id]
        self.forks += 1
        name = chain.fork_at(max(chain.canonical_tip.height - depth, 0),
                             f"f{self.forks}")
        if extend:
            chain.extend(name, extend)
        return name

    def produce(self, chain_id: int, count: int = 1) -> None:
        chain = self.w.chains[chain_id]
        for _ in range(count):
            chain.produce_block(chain.canonical_branch)

    def relay(self, source: int) -> None:
        self.w.network.relay_round(self.w.chains[source],
                                   self.w.chains[1 - source])


def lock(twins: Twins, amount: int) -> None:
    twins.w.origin.submit(LockTx(0, ALICE, "T", amount, BOB))


def test_forks_on_both_chains_between_ticks():
    t = Twins(conf_depth=2, fin_depth=3, timeout=6)
    lock(t, 10)
    t.produce(0, 3)
    t.relay(0)
    t.produce(1)                    # mint at destination height 1
    t.tick()
    lock(t, 20)
    t.produce(0)                    # second lock, unconfirmed
    t.tick()
    t.fork(0, 1, extend=2)          # origin fork orphans the second lock
    t.fork(1, 1, extend=2)          # destination fork orphans the mint
    t.tick()                        # both reorgs land in one tick
    t.tick()                        # no new block: nothing to say
    assert t.ticks[-1] == {"transitions": [], "stuck": []}
    reasons = [x["reason"] for x in t.ticks[-2]["transitions"]]
    assert reasons == ["execution_reorged", "registration_reorged"]

    t.produce(1, 6)
    t.tick()                        # stuck: requeued for re-attestation
    assert t.ticks[-1]["stuck"]
    t.relay(0)
    t.produce(1, 4)                 # re-minted and buried past finality
    t.tick()
    t.produce(0, 2)
    t.produce(1, 2)
    t.fork(1, 2, extend=3)          # shallower than the finalized mint
    t.tick()
    assert t.ticks[-1] == {"transitions": [], "stuck": []}


def test_two_reorgs_on_one_chain_between_ticks():
    t = Twins(conf_depth=2, fin_depth=3, timeout=6)
    lock(t, 5)
    t.produce(0, 3)
    t.relay(0)
    t.produce(1, 2)
    t.tick()
    first = t.fork(1, 2, extend=3)  # mint orphaned
    t.fork(1, 2, extend=3)          # then a second branch wins over the first
    t.w.destination.extend(first, 2)  # and the first wins back
    t.tick()
    assert [x["reason"] for x in t.ticks[-1]["transitions"]] == \
        ["execution_reorged"]


def test_finalized_execution_survives_refused_reorg_in_both():
    """A reorg that would orphan a finalized mint is deeper than the
    finality depth, so the chain refuses it and both controllers keep the
    swap finalized."""
    t = Twins(conf_depth=2, fin_depth=3, timeout=6)
    lock(t, 7)
    t.produce(0, 3)
    t.relay(0)
    t.produce(1, 4)                 # mint at height 1, finalized at depth 3
    t.tick()
    with pytest.raises(BeyondFinality):
        t.fork(1, 4, extend=5)      # would abandon the mint's block
    t.tick()
    assert t.ticks[-1] == {"transitions": [], "stuck": []}
    (sid,) = t.reference.views
    assert t.w.controller.status_of(sid) == SwapStatus.FINALIZED


def test_batch_moves_in_registration_order():
    """Four locks in one block: one tick registers and processes all four,
    a later one finalizes all four, each time in registration order."""
    t = Twins(conf_depth=2, fin_depth=3, timeout=6)
    for amount in (4, 3, 2, 1):
        lock(t, amount)
    t.produce(0, 3)
    t.relay(0)
    t.produce(1)
    t.tick()
    order = list(t.reference.views)
    assert len(order) == 4
    moves = t.ticks[-1]["transitions"]
    assert [x["reason"] for x in moves] == \
        ["registration_observed", "execution_canonical"] * 4
    assert [x["swap_id"] for x in moves[::2]] == [s.hex() for s in order]
    t.produce(1, 3)
    t.tick()
    moves = t.ticks[-1]["transitions"]
    assert [x["swap_id"] for x in moves] == [s.hex() for s in order]
    assert {x["to"] for x in moves} == {"finalized"}


ops = st.lists(st.tuples(st.one_of(
    st.tuples(st.just("lock"), st.integers(1, 3)),
    st.tuples(st.just("burn"), st.integers(1, 3)),
    # several locks (chain 0) or burns (chain 1) in one block
    st.tuples(st.just("batch"), st.integers(0, 1), st.integers(2, 6)),
    st.tuples(st.just("relay"), st.integers(0, 1)),
    st.tuples(st.just("wait"), st.integers(0, 1), st.integers(1, 4)),
    st.tuples(st.just("fork"), st.integers(0, 1), st.integers(1, 4),
              st.integers(0, 2)),
    st.tuples(st.just("grow"), st.integers(0, 1), st.integers(0, 9)),
), st.booleans()), min_size=10, max_size=40)


@given(ops)
def test_random_timelines_match_reference(steps):
    """Locks and burns, one or several to a block, relayed between forks of
    either chain, with a tick after some steps. A fork may tie (and win or lose on its tip hash),
    overtake, or stay behind until a later `grow` step extends it. A fork
    or `grow` step that the chain refuses for going deeper than the
    finality depth changes nothing and is skipped, tick included."""
    play(steps)


def play(steps) -> None:
    """Run one `ops` timeline on a fresh Twins, ticking as it says."""
    t = Twins(conf_depth=1, fin_depth=3, timeout=5)
    branches = {0: ["main"], 1: ["main"]}
    for (op, *args), tick in steps:
        try:
            if op == "lock":
                lock(t, args[0])
                t.produce(0)
            elif op == "burn":
                t.w.destination.submit(BurnTx(1, BOB, "swT", args[0], ALICE))
                t.produce(1)
            elif op == "batch":
                chain, count = args
                for amount in range(1, count + 1):
                    if chain == 0:
                        lock(t, amount)
                    else:
                        t.w.destination.submit(
                            BurnTx(1, BOB, "swT", amount, ALICE))
                t.produce(chain)
            elif op == "relay":
                t.produce(args[0], t.w.conf_depth)
                t.relay(args[0])
                t.produce(1 - args[0])
            elif op == "wait":
                t.produce(*args)
            elif op == "fork":
                chain, depth, lead = args
                branches[chain].append(
                    t.fork(chain, depth, extend=depth + lead))
            else:
                names = branches[args[0]]
                t.w.chains[args[0]].produce_block(names[args[1] % len(names)])
        except BeyondFinality:
            continue
        if tick:
            t.tick()
    t.tick()
