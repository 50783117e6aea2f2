"""Fungible-token accounting embedded in a chain's state.

Amounts are unsigned integers in minimal units. Maps are kept sparse (zero
entries are pruned, all by _add) so that two ledgers with the same holdings
compare equal. Past genesis seeding, balances change only through the pool
and supply operations, each gated to the configured port contract address.
A token is its symbol: an original never carries the WRAPPED_PREFIX, and
WRAPPED_PREFIX + X is X's wrapped form on the destination chain. Which
tokens a chain serves is kept by its port (see ports).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .crypto import built_once
from .errors import (
    InsufficientBalance,
    InsufficientLocked,
    NotAuthorized,
    NotWrappedToken,
    ZeroAmount,
)

ADDRESS_LEN = 20
WRAPPED_PREFIX = "sw"


@dataclass(frozen=True)
class AccountId:
    chain: int
    address: bytes

    def __post_init__(self):
        if len(self.address) != ADDRESS_LEN:
            raise ValueError(f"address must be {ADDRESS_LEN} bytes")

    @built_once
    def to_json(self) -> dict:
        return {"chain": self.chain, "address": self.address.hex()}


def account_id(accounts: dict, chain: int, address: bytes) -> AccountId:
    """The one AccountId of (chain, address) in `accounts`, the chain's
    table of them (see Chain), made on first use: every tx, event and
    trace record of the account then shares its JSON dict."""
    key = (chain, address)
    account = accounts.get(key)
    if account is None:
        account = accounts[key] = AccountId(chain, address)
    return account


def wrapped_symbol(original: str) -> str:
    return WRAPPED_PREFIX + original


def _add(counts: dict, key, delta: int) -> None:
    """Add delta to counts[key] and drop the entry when it reaches zero."""
    total = counts.get(key, 0) + delta
    if total:
        counts[key] = total
    else:
        del counts[key]


@dataclass
class Ledger:
    """Balances, the locked pool and total supply for one chain.

    lock_authority / mint_authority are the only addresses allowed to touch
    the locked pool / wrapped supply; they are the local port contracts.
    Every balance, locked and supply update goes through _add, the one
    place that keeps the maps sparse; _debit also drops a token's balance
    map once it is empty.
    """

    lock_authority: bytes | None = None
    mint_authority: bytes | None = None
    balances: dict[str, dict[bytes, int]] = field(default_factory=dict)
    locked: dict[str, int] = field(default_factory=dict)
    supply: dict[str, int] = field(default_factory=dict)

    # --- queries -------------------------------------------------------------

    def balance(self, symbol: str, account: AccountId) -> int:
        return self.balances.get(symbol, {}).get(account.address, 0)

    # --- internal mutators ----------------------------------------------------

    def _credit(self, symbol: str, address: bytes, amount: int) -> None:
        _add(self.balances.setdefault(symbol, {}), address, amount)

    def _debit(self, symbol: str, address: bytes, amount: int) -> None:
        per_token = self.balances.get(symbol, {})
        held = per_token.get(address, 0)
        if held < amount:
            raise InsufficientBalance(
                f"{symbol}: account holds {held}, needs {amount}")
        _add(per_token, address, -amount)
        if not per_token:
            del self.balances[symbol]

    def _check_amount(self, amount: int) -> None:
        if amount <= 0:
            raise ZeroAmount(f"amount must be positive, got {amount}")

    # --- seeding ---------------------------------------------------------------

    def credit_initial(self, symbol: str, account: AccountId, amount: int) -> None:
        """Genesis-time seeding; raises supply along with the balance."""
        self._check_amount(amount)
        self._credit(symbol, account.address, amount)
        _add(self.supply, symbol, amount)

    # --- port operations ---------------------------------------------------------

    def lock(self, symbol: str, owner: AccountId, amount: int,
             caller: bytes) -> None:
        if self.lock_authority is None or caller != self.lock_authority:
            raise NotAuthorized("only the lock-unlock port may lock funds")
        self._check_amount(amount)
        self._debit(symbol, owner.address, amount)
        _add(self.locked, symbol, amount)

    def unlock(self, symbol: str, receiver: AccountId, amount: int,
               caller: bytes) -> None:
        if self.lock_authority is None or caller != self.lock_authority:
            raise NotAuthorized("only the lock-unlock port may unlock funds")
        self._check_amount(amount)
        pool = self.locked.get(symbol, 0)
        if pool < amount:
            raise InsufficientLocked(
                f"{symbol}: locked pool holds {pool}, needs {amount}")
        _add(self.locked, symbol, -amount)
        self._credit(symbol, receiver.address, amount)

    def mint(self, symbol: str, receiver: AccountId, amount: int,
             caller: bytes) -> None:
        if self.mint_authority is None or caller != self.mint_authority:
            raise NotAuthorized("only the issue-burn port may mint")
        if not symbol.startswith(WRAPPED_PREFIX):
            raise NotWrappedToken(f"{symbol!r} is not a wrapped token")
        self._check_amount(amount)
        self._credit(symbol, receiver.address, amount)
        _add(self.supply, symbol, amount)

    def burn(self, symbol: str, owner: AccountId, amount: int,
             caller: bytes) -> None:
        if self.mint_authority is None or caller != self.mint_authority:
            raise NotAuthorized("only the issue-burn port may burn")
        if not symbol.startswith(WRAPPED_PREFIX):
            raise NotWrappedToken(f"{symbol!r} is not a wrapped token")
        self._check_amount(amount)
        self._debit(symbol, owner.address, amount)
        _add(self.supply, symbol, -amount)

    # --- snapshots -----------------------------------------------------------------

    def clone(self) -> "Ledger":
        return Ledger(
            lock_authority=self.lock_authority,
            mint_authority=self.mint_authority,
            balances={sym: dict(per) for sym, per in self.balances.items()},
            locked=dict(self.locked),
            supply=dict(self.supply),
        )

    def accounting(self) -> dict:
        """Per-token conservation tuple, for traces and invariant checks."""
        symbols = sorted(set(self.supply) | set(self.locked) | set(self.balances))
        return {
            sym: {
                "supply": self.supply.get(sym, 0),
                "locked": self.locked.get(sym, 0),
                "balances_sum": sum(self.balances.get(sym, {}).values()),
            }
            for sym in symbols
        }
