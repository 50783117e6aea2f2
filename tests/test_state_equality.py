"""Value equality of embedded states, which the reorg replay self-check uses.

Every field that summary() shows must make two states unequal when it
differs, and so must the one it leaves out (full pulse signatures). The
unconsumed-hash map is shown: each pulse's `consumed` flag is read from it.
A state bug that survives a reorg must make the self-check raise and name
what differs.
"""

import dataclasses
from dataclasses import dataclass, field

import pytest

from swapgate import Chain, Direction, EventKind, LockTx, PayloadEntry, TokenId

from conftest import ALICE, BOB, World


def lock_and_mint(world):
    """Origin with one lock; destination with an attested, minted entry and
    one pulse still unconsumed."""
    world.origin.submit(LockTx(0, ALICE, "T", 100, BOB))
    world.origin.produce_block()
    entry = PayloadEntry(Direction.ORIGIN_TO_DESTINATION, b"\x01" * 32, "T",
                         0, BOB.address, 5)
    pulse, reveal = world.attested(1, [entry])
    spare, _ = world.attested(1, [entry, entry])
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
    s.tokens.tokens["X"] = TokenId("X", 0)


def change_token(s):
    s.tokens.tokens["T"] = TokenId("T", 1)


def change_record(s):
    sid = first(s.lu_port.swaps)
    s.lu_port.swaps[sid] = dataclasses.replace(s.lu_port.swaps[sid], amount=1)


def bump_seq(s):
    s.lu_port.next_seq += 1


def change_pulse(s):
    s.nebula.pulses[1] = dataclasses.replace(s.nebula.pulses[1],
                                             declared_height=1)


def unconsume_pulse(s):
    """The consumed pulse's hash re-added to `unconsumed`."""
    s.nebula.unconsumed[s.nebula.pulses[1].data_hash] = 1


def change_signature(s):
    """Same signers, other signature bytes: summary() shows only signers."""
    pulse = s.nebula.pulses[1]
    (idx, sig), *rest = pulse.signatures
    forged = ((idx, bytes(len(sig))), *rest)
    s.nebula.pulses[1] = dataclasses.replace(pulse, signatures=forged)


def drop_unconsumed(s):
    s.nebula.unconsumed.clear()


ORIGIN_CASES = [
    ("ledger", bump_balance), ("ledger", bump_locked), ("tokens", add_token),
    ("tokens", change_token), ("lu_port", change_record),
    ("lu_port", bump_seq),
]
DESTINATION_CASES = [
    ("ledger", bump_supply), ("nebula", change_pulse),
    ("nebula", unconsume_pulse),
    ("nebula", drop_unconsumed),
]
OUTSIDE_SUMMARY = [("nebula", change_signature)]


@pytest.mark.parametrize("side,component,mutate", [
    *(("origin", c, m) for c, m in ORIGIN_CASES),
    *(("destination", c, m) for c, m in DESTINATION_CASES + OUTSIDE_SUMMARY),
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


def test_fields_outside_summary_are_compared():
    _, destination = lock_and_mint(World())
    for _, mutate in OUTSIDE_SUMMARY:
        copy = destination.clone()
        mutate(copy)
        assert copy.summary() == destination.summary()
        assert copy != destination


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

    def summary(self):
        return {"counts": self.counts, "keys": sorted(self.counts)}


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
    chain = Chain(3, Counts(), append_shared, finality_depth=6)
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
