"""Fungible-token accounting embedded in a chain's state.

Amounts are unsigned integers in minimal units. Maps are kept sparse (zero
entries are pruned, all by _add) so that two ledgers with the same holdings
compare equal. Past genesis seeding, balances change only through the pool
and supply operations, each gated to the configured port contract address.
The tokens a chain knows are not kept here: they are a plain symbol to
TokenId dict in the chain's state (gateway.GatewayState.tokens).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .crypto import built_once
from .errors import (
    InsufficientBalance,
    InsufficientLocked,
    NotAuthorized,
    NotWrappedToken,
    WrongChain,
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


@dataclass(frozen=True)
class TokenId:
    symbol: str
    chain: int
    wrapped_of: "TokenId | None" = None

    @property
    def is_wrapped(self) -> bool:
        return self.wrapped_of is not None


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

    chain_id: int
    lock_authority: bytes | None = None
    mint_authority: bytes | None = None
    balances: dict[str, dict[bytes, int]] = field(default_factory=dict)
    locked: dict[str, int] = field(default_factory=dict)
    supply: dict[str, int] = field(default_factory=dict)

    # --- queries -------------------------------------------------------------

    def balance(self, token: TokenId, account: AccountId) -> int:
        return self.balances.get(token.symbol, {}).get(account.address, 0)

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

    def _check_token_chain(self, token: TokenId) -> None:
        if token.chain != self.chain_id:
            raise WrongChain(
                f"token {token.symbol!r} lives on chain {token.chain}, "
                f"not chain {self.chain_id}")

    # --- seeding ---------------------------------------------------------------

    def credit_initial(self, token: TokenId, account: AccountId, amount: int) -> None:
        """Genesis-time seeding; raises supply along with the balance."""
        self._check_amount(amount)
        self._check_token_chain(token)
        self._credit(token.symbol, account.address, amount)
        _add(self.supply, token.symbol, amount)

    # --- port operations ---------------------------------------------------------

    def lock(self, token: TokenId, owner: AccountId, amount: int,
             caller: bytes) -> None:
        if self.lock_authority is None or caller != self.lock_authority:
            raise NotAuthorized("only the lock-unlock port may lock funds")
        self._check_amount(amount)
        self._check_token_chain(token)
        self._debit(token.symbol, owner.address, amount)
        _add(self.locked, token.symbol, amount)

    def unlock(self, token: TokenId, receiver: AccountId, amount: int,
               caller: bytes) -> None:
        if self.lock_authority is None or caller != self.lock_authority:
            raise NotAuthorized("only the lock-unlock port may unlock funds")
        self._check_amount(amount)
        self._check_token_chain(token)
        pool = self.locked.get(token.symbol, 0)
        if pool < amount:
            raise InsufficientLocked(
                f"{token.symbol}: locked pool holds {pool}, needs {amount}")
        _add(self.locked, token.symbol, -amount)
        self._credit(token.symbol, receiver.address, amount)

    def mint(self, token: TokenId, receiver: AccountId, amount: int,
             caller: bytes) -> None:
        if self.mint_authority is None or caller != self.mint_authority:
            raise NotAuthorized("only the issue-burn port may mint")
        if not token.is_wrapped:
            raise NotWrappedToken(f"{token.symbol!r} is not a wrapped token")
        self._check_amount(amount)
        self._check_token_chain(token)
        self._credit(token.symbol, receiver.address, amount)
        _add(self.supply, token.symbol, amount)

    def burn(self, token: TokenId, owner: AccountId, amount: int,
             caller: bytes) -> None:
        if self.mint_authority is None or caller != self.mint_authority:
            raise NotAuthorized("only the issue-burn port may burn")
        if not token.is_wrapped:
            raise NotWrappedToken(f"{token.symbol!r} is not a wrapped token")
        self._check_amount(amount)
        self._check_token_chain(token)
        self._debit(token.symbol, owner.address, amount)
        _add(self.supply, token.symbol, -amount)

    # --- snapshots -----------------------------------------------------------------

    def clone(self) -> "Ledger":
        return Ledger(
            chain_id=self.chain_id,
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
