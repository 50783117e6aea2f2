"""The two user-facing port contracts and the swap registry.

The lock-unlock port lives on the origin chain and custodies original
tokens; the issue-burn port lives on the destination chain and manages the
wrapped counterparts. A swap id is derived on-chain from the initiating
transfer's parameters plus the port's own sequence counter, so the off-chain
extractors and the contracts agree on identifiers without any coordination.

Attested executions (mint / unlock) may only be invoked by the local
verification contract; the executing port learns about a foreign-originated
swap from the attested payload entry itself, records it and executes it in
the same transaction, storing the record already Processed. That record is
the port's one account of the execution: it lives in chain state, hence is
rolled back by reorgs together with the assets, and the duplicate guard
refuses any swap whose record is Processed, which makes execution
exactly-once per branch.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum

from .chain import BlockCtx, BlockId, EventKind
from .crypto import sha256
from .encoding import Direction, PayloadEntry
from .errors import (
    DuplicateExecution,
    NotAuthorized,
    NotWrappedToken,
    UnknownSwap,
    UnknownToken,
    WrongChainReceiver,
    ZeroAmount,
)
from .ledger import AccountId, Ledger, TokenId, TokenRegistry, wrapped_symbol


class SwapStatus(IntEnum):
    REGISTERED = 1
    PROCESSED = 2
    FINALIZED = 3

    @property
    def label(self) -> str:
        return self.name.lower()


def derive_swap_id(direction: Direction, origin_chain: int, port_address: bytes,
                   sender: bytes, receiver: bytes, amount: int, seq: int) -> bytes:
    material = struct.pack(">B", int(direction))
    material += struct.pack(">B", origin_chain)
    material += port_address
    material += sender
    material += receiver
    material += struct.pack(">Q", amount)
    material += struct.pack(">Q", seq)
    return sha256(material)


@dataclass(frozen=True)
class SwapRecord:
    """One cross-chain transfer as known to a single port.

    sender is None on records created from an attested payload entry: the
    wire format does not carry the originating account, only the executing
    side's receiver.

    Records are immutable: per-block states share them, and a port stores
    a record once, in its final status for that block. Blocks are named by
    BlockId, so a record does not depend on the branch that produced it.
    """

    swap_id: bytes
    direction: Direction
    sender: AccountId | None
    receiver: AccountId
    amount: int
    token: TokenId            # the original (unwrapped) token
    status: SwapStatus
    registered_at: BlockId
    processed_at: BlockId | None = None

    def to_json(self) -> dict:
        return {
            "swap_id": self.swap_id.hex(),
            "direction": self.direction.label,
            "sender": self.sender.to_json() if self.sender else None,
            "receiver": self.receiver.to_json(),
            "amount": self.amount,
            "token": self.token.to_json(),
            "status": self.status.label,
            "registered_at": self.registered_at.to_json(),
            "processed_at": self.processed_at.to_json() if self.processed_at else None,
        }


@dataclass
class _PortBase:
    """Port state; equal ports hold equal values in every field."""

    chain_id: int
    counterpart_chain: int
    address: bytes
    router_address: bytes
    swaps: dict[bytes, SwapRecord] = field(default_factory=dict)
    next_seq: int = 0

    def status(self, swap_id: bytes) -> SwapStatus:
        record = self.swaps.get(swap_id)
        if record is None:
            raise UnknownSwap(f"swap {swap_id.hex()} unknown to this port")
        return record.status

    def record(self, swap_id: bytes) -> SwapRecord | None:
        return self.swaps.get(swap_id)

    def _take_seq(self) -> int:
        seq = self.next_seq
        self.next_seq += 1
        return seq

    def _require_router(self, caller: bytes) -> None:
        if caller != self.router_address:
            raise NotAuthorized(
                "attested executions must come from the verification contract")

    def _guard_duplicate(self, swap_id: bytes) -> None:
        record = self.swaps.get(swap_id)
        if record is not None and record.status == SwapStatus.PROCESSED:
            raise DuplicateExecution(f"swap {swap_id.hex()} already executed")

    def _store(self, record: SwapRecord) -> None:
        existing = self.swaps.get(record.swap_id)
        if existing is not None and existing is not record:
            # Same id from a fresh registration means the derivation inputs
            # collided, which the sequence counter is meant to prevent.
            raise RuntimeError(f"swap id collision: {record.swap_id.hex()}")
        self.swaps[record.swap_id] = record

    def _clone(self) -> "_PortBase":
        return type(self)(self.chain_id, self.counterpart_chain, self.address,
                          self.router_address, dict(self.swaps), self.next_seq)

    def summary(self) -> dict:
        return {
            "swaps": {sid.hex(): r.to_json() for sid, r in sorted(self.swaps.items())},
            "next_seq": self.next_seq,
        }


class LockUnlockPort(_PortBase):
    """Origin-chain port: locks originals on the way out, unlocks on return."""

    def lock(self, ledger: Ledger, registry: TokenRegistry, ctx: BlockCtx,
             sender: AccountId, symbol: str, amount: int,
             receiver: AccountId) -> SwapRecord:
        if amount <= 0:
            raise ZeroAmount("cannot lock a zero amount")
        if receiver.chain != self.counterpart_chain:
            raise WrongChainReceiver(
                f"receiver must live on chain {self.counterpart_chain}")
        token = registry.require(symbol)
        if token.is_wrapped:
            raise UnknownToken(f"{symbol!r} is wrapped; lock the original token")
        ledger.lock(token, sender, amount, caller=self.address)

        swap_id = derive_swap_id(
            Direction.ORIGIN_TO_DESTINATION, self.chain_id, self.address,
            sender.address, receiver.address, amount, self._take_seq())
        record = SwapRecord(
            swap_id=swap_id,
            direction=Direction.ORIGIN_TO_DESTINATION,
            sender=sender,
            receiver=receiver,
            amount=amount,
            token=token,
            status=SwapStatus.REGISTERED,
            registered_at=ctx.block_id,
        )
        self._store(record)
        ctx.emit(EventKind.LOCK_REGISTERED, swap_id, {
            "symbol": token.symbol,
            "origin_chain": token.chain,
            "sender": sender.to_json(),
            "receiver": receiver.to_json(),
            "amount": amount,
        })
        return record

    def unlock_attested(self, ledger: Ledger, registry: TokenRegistry,
                        ctx: BlockCtx, entry: PayloadEntry,
                        caller: bytes) -> SwapRecord:
        self._require_router(caller)
        if entry.direction != Direction.DESTINATION_TO_ORIGIN:
            raise UnknownSwap("lock-unlock port only executes return swaps")
        self._guard_duplicate(entry.swap_id)
        if entry.origin_chain != self.chain_id:
            raise UnknownSwap(
                f"attested token originates on chain {entry.origin_chain}, "
                f"not here")
        token = registry.get(entry.symbol)
        if token is None or token.is_wrapped:
            raise UnknownSwap(f"no original token {entry.symbol!r} on this chain")
        receiver = AccountId(self.chain_id, entry.receiver)
        ledger.unlock(token, receiver, entry.amount, caller=self.address)

        # Registered and executed within the same transaction: this port
        # first learns of the swap from the attested entry itself.
        record = SwapRecord(
            swap_id=entry.swap_id,
            direction=Direction.DESTINATION_TO_ORIGIN,
            sender=None,
            receiver=receiver,
            amount=entry.amount,
            token=token,
            status=SwapStatus.PROCESSED,
            registered_at=ctx.block_id,
            processed_at=ctx.block_id,
        )
        self._store(record)
        ctx.emit(EventKind.UNLOCK_EXECUTED, entry.swap_id, {
            "symbol": token.symbol,
            "receiver": receiver.to_json(),
            "amount": entry.amount,
        })
        return record

    def clone(self) -> "LockUnlockPort":
        return self._clone()


class IssueBurnPort(_PortBase):
    """Destination-chain port: mints wrapped tokens on attested locks, burns
    them to start the return trip."""

    def mint_attested(self, ledger: Ledger, registry: TokenRegistry,
                      ctx: BlockCtx, entry: PayloadEntry,
                      caller: bytes) -> SwapRecord:
        self._require_router(caller)
        if entry.direction != Direction.ORIGIN_TO_DESTINATION:
            raise UnknownSwap("issue-burn port only executes outbound swaps")
        self._guard_duplicate(entry.swap_id)
        if entry.origin_chain != self.counterpart_chain:
            raise UnknownToken(
                f"this gateway does not serve tokens from chain "
                f"{entry.origin_chain}")
        original = TokenId(entry.symbol, entry.origin_chain)
        wrapped = registry.get(wrapped_symbol(entry.symbol)) or TokenId(
            wrapped_symbol(entry.symbol), self.chain_id, wrapped_of=original)
        receiver = AccountId(self.chain_id, entry.receiver)
        # Mint first: it rejects a bad entry before changing anything, and
        # only then is a first transfer's wrapped token registered.
        ledger.mint(wrapped, receiver, entry.amount, caller=self.address)
        registry.register(wrapped)

        record = SwapRecord(
            swap_id=entry.swap_id,
            direction=Direction.ORIGIN_TO_DESTINATION,
            sender=None,
            receiver=receiver,
            amount=entry.amount,
            token=original,
            status=SwapStatus.PROCESSED,
            registered_at=ctx.block_id,
            processed_at=ctx.block_id,
        )
        self._store(record)
        ctx.emit(EventKind.MINT_EXECUTED, entry.swap_id, {
            "symbol": wrapped.symbol,
            "receiver": receiver.to_json(),
            "amount": entry.amount,
        })
        return record

    def burn(self, ledger: Ledger, registry: TokenRegistry, ctx: BlockCtx,
             holder: AccountId, symbol: str, amount: int,
             receiver: AccountId) -> SwapRecord:
        if amount <= 0:
            raise ZeroAmount("cannot burn a zero amount")
        token = registry.get(symbol)
        if token is None:
            raise UnknownToken(f"token {symbol!r} is not registered here")
        if not token.is_wrapped:
            raise NotWrappedToken(f"{symbol!r} is not a wrapped token")
        original = token.wrapped_of
        assert original is not None
        if receiver.chain != original.chain:
            raise WrongChainReceiver(
                f"receiver must live on chain {original.chain}")
        ledger.burn(token, holder, amount, caller=self.address)

        swap_id = derive_swap_id(
            Direction.DESTINATION_TO_ORIGIN, original.chain, self.address,
            holder.address, receiver.address, amount, self._take_seq())
        record = SwapRecord(
            swap_id=swap_id,
            direction=Direction.DESTINATION_TO_ORIGIN,
            sender=holder,
            receiver=receiver,
            amount=amount,
            token=original,
            status=SwapStatus.REGISTERED,
            registered_at=ctx.block_id,
        )
        self._store(record)
        ctx.emit(EventKind.BURN_REGISTERED, swap_id, {
            "symbol": original.symbol,
            "origin_chain": original.chain,
            "sender": holder.to_json(),
            "receiver": receiver.to_json(),
            "amount": amount,
        })
        return record

    def clone(self) -> "IssueBurnPort":
        return self._clone()
