"""Wiring between the chain simulator and the gateway contracts.

Defines the transaction vocabulary, the per-branch embedded state (ledger,
the chain's one port, verification contract), the dispatcher
that the chain invokes for every transaction inside block application, and
build_chains, which hands each chain a builder of its genesis state.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import BlockCtx, Chain
from .crypto import built_once
from .encoding import PayloadEntry
from .errors import WrongChain
from .ledger import AccountId, Ledger
from .nebula import NEBULA_ADDRESS, NebulaState, OracleRoster
from .ports import (DESTINATION, IB_PORT_ADDRESS, LU_PORT_ADDRESS, ORIGIN,
                    IssueBurnPort, LockUnlockPort)


# --- transactions -----------------------------------------------------------


@dataclass(frozen=True)
class LockTx:
    chain: int
    sender: AccountId
    symbol: str
    amount: int
    receiver: AccountId

    @built_once
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

    @built_once
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

    @built_once
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

    @built_once
    def describe(self) -> dict:
        return {
            "kind": "send_data",
            "chain": self.chain,
            "entries": [e.to_json() for e in self.entries],
            "submitter": self.submitter,
        }


Tx = LockTx | BurnTx | PulseTx | SendDataTx


# --- embedded chain state -----------------------------------------------------


@dataclass
class GatewayState:
    """Everything a branch snapshot carries besides the blocks themselves:
    the ledger, the chain's one port (lock-unlock on the origin, issue-burn
    on the destination), which also keeps the symbols the chain serves, and
    the verification contract. Two states are equal when all three
    components are (see EmbeddedState)."""

    ledger: Ledger
    port: LockUnlockPort | IssueBurnPort
    nebula: NebulaState

    def clone(self) -> "GatewayState":
        return GatewayState(self.ledger.clone(), self.port.clone(),
                            self.nebula.clone())

    @built_once
    def accounting(self) -> dict:
        """The ledger's accounting, built on the first call and kept: every
        record of this state shares one dict. That is right only because
        the Chain never changes a state it has stored (a block is applied
        to a clone, which starts without it); a state still being built
        must not call this."""
        return self.ledger.accounting()


def apply_tx(state: GatewayState, tx: Tx, ctx: BlockCtx) -> dict | None:
    """Contract dispatcher invoked by Chain for every transaction.

    A refusal is a GatewayError raised before the state is changed or an
    event emitted: every contract checks first and writes after, so a
    refused tx changes nothing and the chain keeps no rollback (see Chain).
    """
    port = state.port
    if isinstance(tx, LockTx):
        if not isinstance(port, LockUnlockPort):
            raise WrongChain("this chain has no lock-unlock port")
        swap_id = port.lock(state.ledger, ctx, tx.sender, tx.symbol,
                            tx.amount, tx.receiver)
        return {"swap_id": swap_id.hex()}
    if isinstance(tx, BurnTx):
        if not isinstance(port, IssueBurnPort):
            raise WrongChain("this chain has no issue-burn port")
        swap_id = port.burn(state.ledger, ctx, tx.holder, tx.symbol,
                            tx.amount, tx.receiver)
        return {"swap_id": swap_id.hex()}
    if isinstance(tx, PulseTx):
        state.nebula.submit_pulse(ctx, tx.data_hash, tx.declared_height,
                                  tx.signatures)
        return None
    if isinstance(tx, SendDataTx):
        # each port refuses the direction it does not execute (UnknownSwap)
        outcomes = state.nebula.submit_send_data(
            ctx, tx.entries,
            router=lambda entry: port.execute_attested(
                state.ledger, ctx, entry, caller=NEBULA_ADDRESS))
        return {"entry_outcomes": outcomes}
    raise TypeError(f"unknown transaction type {type(tx).__name__}")


# --- construction ---------------------------------------------------------------


def build_chains(roster: OracleRoster,
                 relevance_window: dict[int, int],
                 finality_depth: dict[int, int],
                 tokens: list[str],
                 initial_balances: list[tuple[str, AccountId, int]]
                 ) -> dict[int, Chain]:
    """Create the origin and destination chains; the dicts map chain id to
    that chain's setting. `tokens` are the origin's original symbols. The
    balances are checked once, here; each chain is then handed a builder
    of its genesis state, from plain parts, which it calls once for its own
    genesis and once for its replay (see Chain). Each chain keeps its own
    table of AccountIds (see Chain)."""
    for _, account, _ in initial_balances:
        if account.chain != ORIGIN:
            raise ValueError("initial balances are seeded on the origin chain")
    originals = frozenset(tokens)

    def origin() -> GatewayState:
        ledger = Ledger(lock_authority=LU_PORT_ADDRESS)
        for symbol, account, amount in initial_balances:
            ledger.credit_initial(symbol, account, amount)
        return GatewayState(ledger, LockUnlockPort(originals=originals),
                            NebulaState(ORIGIN, roster, relevance_window[ORIGIN]))

    def destination() -> GatewayState:
        return GatewayState(
            Ledger(mint_authority=IB_PORT_ADDRESS), IssueBurnPort(),
            NebulaState(DESTINATION, roster, relevance_window[DESTINATION]))

    return {cid: Chain(cid, genesis, apply_tx, finality_depth[cid])
            for cid, genesis in ((ORIGIN, origin), (DESTINATION, destination))}
