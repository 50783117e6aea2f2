"""A step that carries nothing does only its own work.

Most blocks of a long-lived gateway hold no transaction, most ticks find
nothing open and most relay rounds extract nothing. A block that extends
the canonical tip is its own tip (no second BlockRef) and walks only its
parent; a tick reads a chain only when it has new blocks, and walks its
cursor back only when the cursor block was orphaned; a round that extracts
nothing asks no oracle unless a replayer, which endorses its history
without an extraction, is on the roster; without a replayer the network
keeps no history of extracted entries either. A run hashes each account
spec to its address once, however many steps name it. The calls counted
here are the ones these paths no longer make; what they return is
unchanged, and the pinned digests check the traces.
"""

from collections import Counter
from contextlib import ExitStack, contextmanager
from unittest import mock

from swapgate import Behavior, Chain, LockTx, oracles, scenario
from swapgate.cli import load_scenario
from swapgate.crypto import sha256
from swapgate.encoding import encode_payload
from swapgate.scenario import Runner

from conftest import ALICE, BOB, World
from scenario_gen import random_happy_scenario
from test_oracles import lock_and_confirm

EMPTY_REPORT = {"source": 0, "target": 1, "reference_hash": None,
                "candidates": [], "outcome": "empty", "chosen_hash": None,
                "forged_chosen": False, "signers": [],
                "declared_height": None, "entries": []}


@contextmanager
def calls(*targets):
    """Count the calls of each (owner, attribute name) while the block runs."""
    counts: Counter[str] = Counter()
    with ExitStack() as stack:
        for owner, name in targets:
            original = getattr(owner, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            stack.enter_context(mock.patch.object(owner, name, counting))
        yield counts


def test_a_block_that_extends_the_tip_is_the_tip():
    w = World()
    chain = w.origin
    for _ in range(3):
        with calls((Chain, "off_canonical")) as counted:
            ref = chain.produce_block()
        assert chain.canonical_tip is ref
        assert counted == {"off_canonical": 1}     # its parent, not itself
        assert chain.last_reorg is None
    # a branch that takes the tip over in a reorg is its tip too
    chain.fork_at(1, "alt")
    chain.submit(LockTx(0, ALICE, "T", 5, BOB))    # no twin of main's blocks
    while chain.canonical_branch != "alt":
        ref = chain.produce_block("alt")
    assert chain.canonical_tip is ref
    assert chain.last_reorg.new_tip is ref


def test_a_twin_of_the_tip_keeps_the_older_branch_name():
    """A block produced again on a newer branch has the tip's hash: the
    tip keeps the older branch's name, and nothing was reorganised."""
    chain = World().origin
    first = chain.produce_block()
    chain.fork_at(0, "newer")
    twin = chain.produce_block("newer")
    assert twin.block_hash == first.block_hash
    assert chain.canonical_tip == first
    assert chain.canonical_tip.branch == "main"
    assert chain.last_reorg is None
    assert chain.canonical_chain()[1].ref is twin   # the newer object is kept


def test_a_quiet_tick_reads_only_new_blocks():
    w = World()
    assert w.controller.tick(w.chains) == {"transitions": [], "stuck": []}
    for chain in w.chains.values():
        chain.produce_block()
    targets = ((Chain, "off_canonical"), (Chain, "events_since"),
               (Chain, "first_event"))
    with calls(*targets) as counted:
        result = w.controller.tick(w.chains)
    assert result == {"transitions": [], "stuck": []}
    assert counted == {"events_since": 2}          # no cursor walk
    with calls(*targets) as counted:
        result = w.controller.tick(w.chains)      # no new block at all
    assert result == {"transitions": [], "stuck": []}
    assert counted == {}


def test_an_empty_honest_round_asks_no_oracle():
    w = World()
    w.origin.extend("main", 3)
    targets = ((oracles, "candidates"), (Chain, "events_since"))
    with calls(*targets) as counted:
        report = w.network.relay_round(w.origin, w.destination)
    assert report == EMPTY_REPORT
    assert counted == {"events_since": 1}
    with calls(*targets) as counted:   # nothing new confirmed: no read
        report = w.network.relay_round(w.origin, w.destination)
    assert report == EMPTY_REPORT
    assert counted == {}
    assert w.destination.pending == []


def test_an_empty_round_still_carries_the_replayers_history():
    """A replayer endorses everything it extracted before even when the
    round extracts nothing: its candidate is counted, alone, as before."""
    w = World(behaviors=[Behavior.HONEST] * 4 + [Behavior.REPLAYER])
    lock_and_confirm(w)
    first = w.network.relay_round(w.origin, w.destination)
    assert first["outcome"] == "submitted"
    history = list(w.network.replay_history[0])
    assert len(history) == 1
    w.origin.produce_block()
    with calls((oracles, "candidates")) as counted:
        report = w.network.relay_round(w.origin, w.destination)
    assert counted == {"candidates": 5}
    assert report["outcome"] == "no_quorum"
    assert report["reference_hash"] is None
    assert report["candidates"] == [{
        "hash": sha256(encode_payload(history)).hex(),
        "count": 1,
        "forged": True,
    }]


def test_a_network_without_a_replayer_keeps_no_history():
    """Only a replayer reads the entries extracted in earlier rounds, so an
    all-honest run relays in both directions and keeps none of them."""
    runner = Runner(load_scenario("round_trip"))
    assert runner.run().exit_code == 0
    assert {r["source"] for r in runner.reports
            if r["outcome"] == "submitted"} == {0, 1}
    assert runner.network.replay_history == {}


def test_a_run_hashes_each_account_spec_once():
    """The Runner hashes a spec the first time a balance or a step names
    it, and reuses that address for every later step."""
    generated = random_happy_scenario(1, 50)
    names = [b["account"] for b in generated.balances] + [
        step[key] for step in generated.timeline
        for key in ("sender", "holder", "receiver", "account") if key in step]
    with calls((scenario, "resolve_address")) as counted:
        assert Runner(generated).run().exit_code == 0
    assert len(names) > 2 * len(set(names))         # specs recur
    assert 0 < counted["resolve_address"] <= len(set(names))
