"""Wiring between the chain simulator and the gateway contracts.

Defines the transaction vocabulary, the per-branch embedded state (ledger,
token registry, ports, verification contract) and the dispatcher that the
chain invokes for every transaction inside block application.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import BlockCtx, Chain
from .encoding import Direction, PayloadEntry
from .errors import UnknownSwap, WrongChain
from .ledger import AccountId, Ledger, TokenId, TokenRegistry
from .nebula import NEBULA_ADDRESS, NebulaState, OracleRoster
from .ports import (DESTINATION, IB_PORT_ADDRESS, LU_PORT_ADDRESS, ORIGIN,
                    IssueBurnPort, LockUnlockPort)


# --- transactions -----------------------------------------------------------


@dataclass(frozen=True)
class TransferTx:
    chain: int
    symbol: str
    sender: AccountId
    receiver: AccountId
    amount: int

    def describe(self) -> dict:
        return {
            "kind": "transfer",
            "chain": self.chain,
            "symbol": self.symbol,
            "sender": self.sender.to_json(),
            "receiver": self.receiver.to_json(),
            "amount": self.amount,
        }


@dataclass(frozen=True)
class LockTx:
    chain: int
    sender: AccountId
    symbol: str
    amount: int
    receiver: AccountId

    def describe(self) -> dict:
        return {
            "kind": "lock",
            "chain": self.chain,
            "sender": self.sender.to_json(),
            "symbol": self.symbol,
            "amount": self.amount,
            "receiver": self.receiver.to_json(),
        }


@dataclass(frozen=True)
class BurnTx:
    chain: int
    holder: AccountId
    symbol: str
    amount: int
    receiver: AccountId

    def describe(self) -> dict:
        return {
            "kind": "burn",
            "chain": self.chain,
            "holder": self.holder.to_json(),
            "symbol": self.symbol,
            "amount": self.amount,
            "receiver": self.receiver.to_json(),
        }


@dataclass(frozen=True)
class PulseTx:
    chain: int
    data_hash: bytes
    declared_height: int
    signatures: tuple[tuple[int, bytes], ...]
    submitter: int

    def describe(self) -> dict:
        return {
            "kind": "pulse",
            "chain": self.chain,
            "data_hash": self.data_hash.hex(),
            "declared_height": self.declared_height,
            "signatures": [[idx, sig.hex()] for idx, sig in self.signatures],
            "submitter": self.submitter,
        }


@dataclass(frozen=True)
class SendDataTx:
    """Reveals a payload; it opens the pulse committed to the payload's hash."""

    chain: int
    entries: tuple[PayloadEntry, ...]
    submitter: int

    def describe(self) -> dict:
        return {
            "kind": "send_data",
            "chain": self.chain,
            "entries": [e.to_json() for e in self.entries],
            "submitter": self.submitter,
        }


Tx = TransferTx | LockTx | BurnTx | PulseTx | SendDataTx


# --- embedded chain state -----------------------------------------------------


@dataclass
class GatewayState:
    """Everything a branch snapshot carries besides the blocks themselves.
    Two states are equal when all five components are (see EmbeddedState)."""

    ledger: Ledger
    tokens: TokenRegistry
    lu_port: LockUnlockPort | None
    ib_port: IssueBurnPort | None
    nebula: NebulaState

    def clone(self) -> "GatewayState":
        return GatewayState(
            ledger=self.ledger.clone(),
            tokens=self.tokens.clone(),
            lu_port=self.lu_port.clone() if self.lu_port else None,
            ib_port=self.ib_port.clone() if self.ib_port else None,
            nebula=self.nebula.clone(),
        )

    def summary(self) -> dict:
        return {
            "ledger": self.ledger.summary(),
            "tokens": self.tokens.summary(),
            "lu_port": self.lu_port.summary() if self.lu_port else None,
            "ib_port": self.ib_port.summary() if self.ib_port else None,
            "nebula": self.nebula.summary(),
        }

    def route_entry(self, entry: PayloadEntry, ctx: BlockCtx) -> None:
        """Dispatch one revealed payload entry to the local port."""
        if entry.direction == Direction.ORIGIN_TO_DESTINATION:
            if self.ib_port is None:
                raise UnknownSwap("no issue-burn port on this chain")
            self.ib_port.mint_attested(self.ledger, self.tokens, ctx, entry,
                                       caller=NEBULA_ADDRESS)
        else:
            if self.lu_port is None:
                raise UnknownSwap("no lock-unlock port on this chain")
            self.lu_port.unlock_attested(self.ledger, self.tokens, ctx, entry,
                                         caller=NEBULA_ADDRESS)


def apply_tx(state: GatewayState, tx: Tx, ctx: BlockCtx) -> dict | None:
    """Contract dispatcher invoked by Chain for every transaction."""
    if isinstance(tx, TransferTx):
        token = state.tokens.require(tx.symbol)
        state.ledger.transfer(token, tx.sender, tx.receiver, tx.amount)
        return None
    if isinstance(tx, LockTx):
        if state.lu_port is None:
            raise WrongChain("this chain has no lock-unlock port")
        record = state.lu_port.lock(state.ledger, state.tokens, ctx,
                                    tx.sender, tx.symbol, tx.amount,
                                    tx.receiver)
        return {"swap_id": record.swap_id.hex()}
    if isinstance(tx, BurnTx):
        if state.ib_port is None:
            raise WrongChain("this chain has no issue-burn port")
        record = state.ib_port.burn(state.ledger, state.tokens, ctx,
                                    tx.holder, tx.symbol, tx.amount,
                                    tx.receiver)
        return {"swap_id": record.swap_id.hex()}
    if isinstance(tx, PulseTx):
        state.nebula.submit_pulse(ctx, tx.data_hash, tx.declared_height,
                                  list(tx.signatures))
        return None
    if isinstance(tx, SendDataTx):
        outcomes = state.nebula.submit_send_data(
            ctx, list(tx.entries),
            router=lambda entry: state.route_entry(entry, ctx))
        return {"entry_outcomes": outcomes}
    raise TypeError(f"unknown transaction type {type(tx).__name__}")


# --- construction ---------------------------------------------------------------


@dataclass
class GatewayConfig:
    """Static configuration of one two-chain gateway; dicts map chain id."""

    roster: OracleRoster
    relevance_window: dict[int, int]
    finality_depth: dict[int, int]


def build_chains(config: GatewayConfig,
                 tokens: list[TokenId],
                 initial_balances: list[tuple[TokenId, AccountId, int]]
                 ) -> dict[int, Chain]:
    """Create the origin and destination chains with their genesis states."""
    origin_registry = TokenRegistry()
    for token in tokens:
        if token.chain != ORIGIN:
            raise ValueError(f"original token {token.symbol!r} must live on "
                             f"chain {ORIGIN}")
        origin_registry.register(token)

    origin_ledger = Ledger(ORIGIN, lock_authority=LU_PORT_ADDRESS)
    destination_ledger = Ledger(DESTINATION, mint_authority=IB_PORT_ADDRESS)
    for token, account, amount in initial_balances:
        if account.chain != ORIGIN:
            raise ValueError("initial balances are seeded on the origin chain")
        origin_ledger.credit_initial(token, account, amount)

    states = {
        ORIGIN: GatewayState(
            ledger=origin_ledger,
            tokens=origin_registry,
            lu_port=LockUnlockPort(),
            ib_port=None,
            nebula=NebulaState(ORIGIN, config.roster,
                               config.relevance_window[ORIGIN]),
        ),
        DESTINATION: GatewayState(
            ledger=destination_ledger,
            tokens=TokenRegistry(),
            lu_port=None,
            ib_port=IssueBurnPort(),
            nebula=NebulaState(DESTINATION, config.roster,
                               config.relevance_window[DESTINATION]),
        ),
    }
    return {cid: Chain(cid, state, apply_tx, config.finality_depth[cid])
            for cid, state in states.items()}
