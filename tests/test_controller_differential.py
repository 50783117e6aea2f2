"""The incremental status controller against the full-rescan reference.

Both controllers watch the same two chains and are ticked together; after
every tick their results, requeues and per-swap views (statuses and view
order) must be identical, and where one raises InvalidScenario the other
must raise it with the same message. The timelines fork both chains, so
origin forks orphan registrations and destination forks orphan mints,
land several reorgs between two ticks, tick with no new block, and keep
finalized swaps around while later reorgs happen.
"""

from hypothesis import given
from hypothesis import strategies as st

from swapgate import BurnTx, LockTx
from swapgate.errors import InvalidScenario

from conftest import ALICE, BOB, World
from reference_controller import ReferenceController


class Twins:
    """A World whose controller is shadowed by the reference model."""

    def __init__(self, **world_args):
        self.w = World(**world_args)
        self.reference = ReferenceController(self.w.controller.policies)
        self.forks = 0
        self.ticks = []

    def tick(self) -> bool:
        """Tick both controllers; False once both have raised."""
        outcomes = []
        for controller in (self.w.controller, self.reference):
            try:
                outcomes.append(controller.tick(self.w.chains))
            except InvalidScenario as exc:
                outcomes.append(str(exc))
        new, old = outcomes
        if isinstance(old, str):
            assert new == old
            return False
        assert new.to_json() == old.to_json()
        assert new.requeue == old.requeue
        assert list(self.w.controller.views) == list(self.reference.views)
        for swap_id in self.reference.views:
            assert self.w.controller.status_of(swap_id) == \
                self.reference.status_of(swap_id)
        for swap_id in new.requeue:
            self.w.network.request_reattestation(swap_id)
        self.ticks.append(new.to_json())
        return True

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
    assert t.tick()
    lock(t, 20)
    t.produce(0)                    # second lock, unconfirmed
    assert t.tick()
    t.fork(0, 1, extend=2)          # origin fork orphans the second lock
    t.fork(1, 1, extend=2)          # destination fork orphans the mint
    assert t.tick()                 # both reorgs land in one tick
    assert t.tick()                 # no new block: nothing to say
    assert t.ticks[-1] == {"transitions": [], "stuck": []}
    reasons = [x["reason"] for x in t.ticks[-2]["transitions"]]
    assert reasons == ["execution_reorged", "registration_reorged"]

    t.produce(1, 6)
    assert t.tick()                 # stuck: requeued for re-attestation
    assert t.ticks[-1]["stuck"]
    t.relay(0)
    t.produce(1, 4)                 # re-minted and buried past finality
    assert t.tick()
    t.produce(0, 2)
    t.produce(1, 2)
    t.fork(1, 2, extend=3)          # shallower than the finalized mint
    assert t.tick()
    assert t.ticks[-1] == {"transitions": [], "stuck": []}


def test_two_reorgs_on_one_chain_between_ticks():
    t = Twins(conf_depth=2, fin_depth=3, timeout=6)
    lock(t, 5)
    t.produce(0, 3)
    t.relay(0)
    t.produce(1, 2)
    assert t.tick()
    first = t.fork(1, 2, extend=3)  # mint orphaned
    t.fork(1, 2, extend=3)          # then a second branch wins over the first
    t.w.destination.extend(first, 2)  # and the first wins back
    assert t.tick()
    assert [x["reason"] for x in t.ticks[-1]["transitions"]] == \
        ["execution_reorged"]


def test_finalized_execution_reorged_is_fatal_in_both():
    # the chains accept the deep reorg that both controllers must refuse
    t = Twins(conf_depth=2, fin_depth=3, timeout=6, reorg_depth=20)
    lock(t, 7)
    t.produce(0, 3)
    t.relay(0)
    t.produce(1, 4)
    assert t.tick()
    t.fork(1, 4, extend=5)          # deeper than the finality depth
    assert not t.tick()


ops = st.lists(st.tuples(st.one_of(
    st.tuples(st.just("lock"), st.integers(1, 3)),
    st.tuples(st.just("burn"), st.integers(1, 3)),
    st.tuples(st.just("relay"), st.integers(0, 1)),
    st.tuples(st.just("wait"), st.integers(0, 1), st.integers(1, 4)),
    st.tuples(st.just("fork"), st.integers(0, 1), st.integers(1, 4),
              st.integers(0, 2)),
    st.tuples(st.just("grow"), st.integers(0, 1), st.integers(0, 9)),
), st.booleans()), min_size=10, max_size=40)


@given(ops)
def test_random_timelines_match_reference(steps):
    """Locks and burns relayed between forks of either chain, with a tick
    after some steps. A fork may tie (and win or lose on its tip hash),
    overtake, or stay behind until a later `grow` step extends it; one
    deeper than the finality depth makes both controllers raise."""
    # no reorg bound: a fork or a `grow` step may go past finality
    t = Twins(conf_depth=1, fin_depth=3, timeout=5, reorg_depth=10**6)
    branches = {0: ["main"], 1: ["main"]}
    for (op, *args), tick in steps:
        if op == "lock":
            lock(t, args[0])
            t.produce(0)
        elif op == "burn":
            t.w.destination.submit(BurnTx(1, BOB, "swT", args[0], ALICE))
            t.produce(1)
        elif op == "relay":
            t.produce(args[0], t.w.conf_depth)
            t.relay(args[0])
            t.produce(1 - args[0])
        elif op == "wait":
            t.produce(*args)
        elif op == "fork":
            chain, depth, lead = args
            branches[chain].append(t.fork(chain, depth, extend=depth + lead))
        else:
            names = branches[args[0]]
            t.w.chains[args[0]].produce_block(names[args[1] % len(names)])
        if tick and not t.tick():
            return
    t.tick()
