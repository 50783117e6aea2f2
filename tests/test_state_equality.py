"""Value equality of embedded states, which the reorg replay self-check uses.

Every field of every state component must make two states unequal when it
differs, the pulse count and the map of open pulses included. A
state bug that survives a reorg must make the self-check raise and name the
top-level field that differs.
"""

import dataclasses
from dataclasses import dataclass, field

import pytest

from swapgate import (Chain, Direction, EventKind, Ledger, LockTx,
                      PayloadEntry, SwapStatus, TokenId, payload_hash)
from swapgate.ports import _PortBase
from swapgate.scenario import Runner

from conftest import ALICE, BOB, World
from scenario_gen import reorg_scenario


ENTRY = PayloadEntry(Direction.ORIGIN_TO_DESTINATION, b"\x01" * 32, "T",
                     0, BOB.address, 5)


def lock_and_mint(world):
    """Origin with one lock; destination with an attested, minted entry and
    one pulse still open."""
    world.origin.submit(LockTx(0, ALICE, "T", 100, BOB))
    world.origin.produce_block()
    pulse, reveal = world.attested(1, [ENTRY])
    spare, _ = world.attested(1, [ENTRY, ENTRY])
    for tx in (pulse, reveal, spare):
        world.destination.submit(tx)
    world.destination.produce_block()
    return world.origin.canonical_state, world.destination.canonical_state


def first(mapping):
    return next(iter(mapping))


def bump_balance(s):
    per = s.ledger.balances["T"]
    per[first(per)] += 1


def bump_locked(s):
    s.ledger.locked["T"] += 1


def bump_supply(s):
    s.ledger.supply["swT"] += 1


def add_token(s):
    s.tokens["X"] = TokenId("X", 0)


def change_token(s):
    s.tokens["T"] = TokenId("T", 1)


def change_record(s):
    sid = first(s.port.swaps)
    s.port.swaps[sid] = SwapStatus.PROCESSED


def bump_seq(s):
    s.port.next_seq += 1


def bump_pulse_count(s):
    s.nebula.pulse_count += 1


def unconsume_pulse(s):
    """The consumed pulse's hash re-added to the open pulses."""
    s.nebula.pulses[payload_hash([ENTRY])] = 1


def drop_open_pulses(s):
    s.nebula.pulses.clear()


ORIGIN_CASES = [
    ("ledger", bump_balance), ("ledger", bump_locked), ("tokens", add_token),
    ("tokens", change_token), ("port", change_record), ("port", bump_seq),
]
DESTINATION_CASES = [
    ("ledger", bump_supply), ("nebula", bump_pulse_count),
    ("nebula", unconsume_pulse), ("nebula", drop_open_pulses),
]


@pytest.mark.parametrize("side,component,mutate", [
    *(("origin", c, m) for c, m in ORIGIN_CASES),
    *(("destination", c, m) for c, m in DESTINATION_CASES),
], ids=lambda v: getattr(v, "__name__", v))
def test_changed_field_makes_states_unequal(side, component, mutate):
    origin, destination = lock_and_mint(World())
    state = origin if side == "origin" else destination
    before = state.clone()
    copy = state.clone()
    assert copy == state
    mutate(copy)
    assert copy != state
    assert getattr(copy, component) != getattr(state, component)
    assert state == before                 # the clone shares nothing mutable
    others = [f.name for f in dataclasses.fields(state) if f.name != component]
    assert all(getattr(copy, name) == getattr(state, name) for name in others)


def test_equal_histories_give_equal_states():
    a, b = World(), World()
    assert lock_and_mint(a) == lock_and_mint(b)
    assert a.origin.replay_canonical() == a.origin.canonical_state


@dataclass
class Counts:
    """Toy state with a shallow clone: the per-key lists stay shared."""

    counts: dict = field(default_factory=dict)

    def clone(self):
        return Counts(dict(self.counts))


@dataclass(frozen=True)
class AddTx:
    key: str
    value: int

    def describe(self):
        return {"key": self.key, "value": self.value}


def append_shared(state, tx, ctx):
    """Mutates a list that the parent state holds as well."""
    state.counts.setdefault(tx.key, []).append(tx.value)
    ctx.emit(EventKind.PULSE_ACCEPTED, None, {"value": tx.value})


def test_aliasing_bug_caught_by_replay_self_check():
    chain = Chain(3, Counts, append_shared, finality_depth=6)
    chain.submit(AddTx("a", 1))
    chain.produce_block()                  # list for "a" created at height 1
    chain.submit(AddTx("a", 2))
    chain.produce_block()                  # appends into height 1's list too
    chain.fork_at(1, "alt")
    chain.submit(AddTx("a", 3))
    chain.produce_block("alt")
    assert chain.canonical_branch == "main"  # main keeps the height-2 tie
    with pytest.raises(RuntimeError) as caught:
        chain.produce_block("alt")         # alt wins at height 3
    message = str(caught.value)
    assert "canonical replay diverged" in message
    assert "from main@2" in message and "to alt@3" in message
    assert "fork height 1" in message
    assert message.endswith("differing: counts")


def test_aliasing_bug_caught_after_checkpoint_left_genesis():
    """test_aliasing_bug_caught_by_replay_self_check on a chain whose
    checkpoint has moved up: the replay no longer starts at genesis, and
    the shared list still makes it disagree."""
    chain = Chain(3, Counts, append_shared, finality_depth=1)
    for height in range(1, 4):               # a new list per block: no sharing
        chain.submit(AddTx(f"k{height}", height))
        chain.produce_block()
    chain.fork_at(2, "x")
    chain.submit(AddTx("x", 0))
    chain.extend("x", 2)                     # x wins: the self-check passes
    assert chain.canonical_branch == "x"
    assert chain._replayed[0].ref.height >= 2

    chain.submit(AddTx("a", 1))
    chain.produce_block("x")                 # list for "a" created at height 5
    chain.submit(AddTx("a", 2))
    chain.produce_block("x")                 # appends into height 5's list too
    chain.fork_at(5, "alt")
    chain.submit(AddTx("a", 3))
    with pytest.raises(RuntimeError) as caught:
        chain.extend("alt", 2)               # alt wins at height 6 or 7
    message = str(caught.value)
    assert "canonical replay diverged" in message
    assert "from x@6" in message and "to alt@" in message
    assert "fork height 5" in message
    assert message.endswith("differing: counts")


def test_self_check_names_the_differing_gateway_component(world):
    """A corrupted state that a reorg builds on: the replay from genesis
    disagrees, and the message names the GatewayState field that differs."""
    origin = world.origin
    base = origin.produce_block()
    origin.submit(LockTx(0, ALICE, "T", 100, BOB))
    origin.produce_block()
    origin.fork_at(1, "alt")
    origin.states[base.block_hash].port.next_seq += 1
    with pytest.raises(RuntimeError) as caught:
        origin.extend("alt", 2)
    assert str(caught.value).endswith("differing: port")


def sharing(owner, method, name):
    """owner.method, except that the copy it returns holds its parent's
    `name` map itself: a clone() that shares one mutable map."""
    clone = getattr(owner, method)

    def shared(self):
        copy = clone(self)
        setattr(copy, name, getattr(self, name))
        return copy
    return shared


@pytest.mark.parametrize("seed", range(1, 11))
@pytest.mark.parametrize("owner, method, name, component", [
    (Ledger, "clone", "locked", "ledger"),
    (_PortBase, "_clone", "swaps", "port"),
], ids=["ledger-locked", "port-swaps"])
def test_self_check_sees_a_map_that_clone_shares(owner, method, name,
                                                 component, seed, monkeypatch):
    """The replay starts from its own build of genesis, not a clone of the
    chain's, so a map that clone() shares is shared within each side only
    and the two sides disagree after a reorg. Were the replay's genesis a
    clone of the chain's, both sides would hold the one map and the
    self-check would stay silent."""
    monkeypatch.setattr(owner, method, sharing(owner, method, name))
    with pytest.raises(RuntimeError, match=f"differing: {component}$"):
        Runner(reorg_scenario(seed)).run()
