"""Token accounting: conservation, gating, inverse pairs."""

import copy
import random

import pytest
from hypothesis import given, strategies as st

from swapgate.errors import (
    GatewayError,
    InsufficientLocked,
    NotAuthorized,
    NotWrappedToken,
)
from swapgate.ledger import AccountId, Ledger, TokenId

PORT = bytes.fromhex("01" * 20)
MINT_PORT = bytes.fromhex("02" * 20)
A1 = AccountId(0, bytes.fromhex("aa" * 20))
A2 = AccountId(0, bytes.fromhex("bb" * 20))
T = TokenId("T", 0)
SWT = TokenId("swT", 0, wrapped_of=TokenId("T", 1))


def fresh_ledger(amount=100) -> Ledger:
    ledger = Ledger(0, lock_authority=PORT, mint_authority=MINT_PORT)
    ledger.credit_initial(T, A1, amount)
    return ledger


def conserved(ledger: Ledger) -> bool:
    """Every token's supply equals its held balances plus its locked pool."""
    return all(row["supply"] == row["balances_sum"] + row["locked"]
               for row in ledger.accounting().values())


def test_lock_unlock_inverse_pair():
    ledger = fresh_ledger(100)
    before = copy.deepcopy(ledger)
    ledger.lock(T, A1, 100, caller=PORT)
    assert ledger.locked["T"] == 100
    ledger.unlock(T, A1, 100, caller=PORT)
    assert ledger == before


def test_unlock_empty_pool():
    ledger = fresh_ledger()
    with pytest.raises(InsufficientLocked):
        ledger.unlock(T, A1, 1, caller=PORT)


def test_lock_requires_port_caller():
    ledger = fresh_ledger()
    with pytest.raises(NotAuthorized):
        ledger.lock(T, A1, 10, caller=A2.address)


def test_mint_and_burn_inverse():
    ledger = Ledger(0, mint_authority=MINT_PORT)
    ledger.mint(SWT, A1, 100, caller=MINT_PORT)
    assert ledger.supply["swT"] == 100
    assert ledger.balance(SWT, A1) == 100
    ledger.burn(SWT, A1, 100, caller=MINT_PORT)
    assert ledger.supply.get("swT", 0) == 0
    assert ledger == Ledger(0, mint_authority=MINT_PORT)


def test_mint_non_wrapped_rejected():
    ledger = Ledger(0, mint_authority=MINT_PORT)
    with pytest.raises(NotWrappedToken):
        ledger.mint(T, A1, 10, caller=MINT_PORT)


def test_mint_requires_port_caller():
    ledger = Ledger(0, mint_authority=MINT_PORT)
    with pytest.raises(NotAuthorized):
        ledger.mint(SWT, A1, 10, caller=PORT)


@given(st.lists(st.tuples(st.sampled_from(["lock", "unlock", "mint", "burn"]),
                          st.integers(0, 150)),
                max_size=30))
def test_non_port_callers_never_touch_pools(ops):
    """Gating: arbitrary call sequences from user accounts leave the locked
    pool and the wrapped supply untouched."""
    ledger = Ledger(0, lock_authority=PORT, mint_authority=MINT_PORT)
    ledger.credit_initial(T, A1, 1000)
    for op, amount in ops:
        try:
            if op == "lock":
                ledger.lock(T, A1, amount, caller=A1.address)
            elif op == "unlock":
                ledger.unlock(T, A1, amount, caller=A1.address)
            elif op == "mint":
                ledger.mint(SWT, A1, amount, caller=A1.address)
            elif op == "burn":
                ledger.burn(SWT, A1, amount, caller=A1.address)
        except Exception:
            pass
        assert ledger.locked == {}
        assert ledger.supply.get("swT", 0) == 0
        assert conserved(ledger)


def test_conservation_under_random_port_traffic():
    """Supply always equals held plus locked, and every map stays sparse,
    after every operation. Only gateway rejections are expected: any other
    exception fails the test."""
    rng = random.Random(1234)
    ledger = Ledger(0, lock_authority=PORT, mint_authority=MINT_PORT)
    ledger.credit_initial(T, A1, 10_000)
    accounts = [A1, A2, AccountId(0, bytes.fromhex("cc" * 20))]
    for _ in range(500):
        op = rng.choice(["lock", "unlock", "mint", "burn"])
        frm, to = rng.sample(accounts, 2)
        if rng.random() < 0.25:
            # a whole holding, so that entries reach zero and are pruned
            amount = (ledger.locked.get("T", 0) if op == "unlock" else
                      ledger.balance(T if op == "lock" else SWT, frm))
        else:
            amount = rng.randint(0, 400)
        try:
            if op == "lock":
                ledger.lock(T, frm, amount, caller=PORT)
            elif op == "unlock":
                ledger.unlock(T, to, amount, caller=PORT)
            elif op == "mint":
                ledger.mint(SWT, to, amount, caller=MINT_PORT)
            elif op == "burn":
                ledger.burn(SWT, frm, amount, caller=MINT_PORT)
        except GatewayError:
            pass
        assert conserved(ledger)
        assert 0 not in ledger.locked.values()
        assert 0 not in ledger.supply.values()
        for per_token in ledger.balances.values():
            assert per_token and 0 not in per_token.values()


def test_clone_is_independent():
    ledger = fresh_ledger(100)
    copy = ledger.clone()
    ledger.lock(T, A1, 40, caller=PORT)
    assert copy.balance(T, A1) == 100
    assert copy.locked == {}


def test_zero_balances_pruned():
    ledger = fresh_ledger(100)
    ledger.lock(T, A1, 100, caller=PORT)
    assert A1.address not in ledger.balances.get("T", {})
