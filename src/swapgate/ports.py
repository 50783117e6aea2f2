"""The two user-facing port contracts and the swap registry.

The lock-unlock port lives on the origin chain and custodies original
tokens; the issue-burn port lives on the destination chain and manages the
wrapped counterparts. Both placements are fixed, so a port class holds its
chain ids and address as constants, and a port's state is one status per
swap id (Registered or Processed) plus its sequence counter. A swap id is
derived on-chain from the initiating transfer's parameters plus the port's
own sequence counter, so the off-chain extractors and the contracts agree on
identifiers without any coordination; the id packs the amount as a u64, so a
larger lock or burn is refused before it changes anything.

The two ports mirror each other, so each protocol step is written once, in
the shared base, and a port adds only its own token checks and ledger call:

- one registration path, _register: lock and burn each take the next
  sequence number, derive the id, store it Registered and emit the
  registration event;
- one attested execution path: each port's execute_attested first passes
  _admit (caller, direction, known id) and ends in _executed, which
  stores the id Processed and emits the execution event. The issue-burn
  port mints for an outbound swap, the lock-unlock port unlocks for a
  return swap, and each refuses the other direction as an unknown swap,
  an id it registered itself included.

The event is the swap's one record: its kind and payload carry the
direction, accounts, amount and token, so the state keeps only what
execution needs to stay exactly-once. An attested execution may only be
invoked by the local verification contract; the executing port learns
about a foreign-originated swap from the attested payload entry itself and
executes it in the same transaction, storing its id already Processed. The
status lives in chain state, hence is rolled back by reorgs together with
the assets, and the duplicate guard refuses any swap whose id is
Processed, which makes execution exactly-once per branch. _admit refuses
before the ledger call, so an entry it refuses changes nothing.

A port is handed the chain's token table, a plain dict from symbol to
TokenId (gateway.GatewayState.tokens). Lock and burn only read it; the
issue-burn port adds a wrapped token the first time it mints one, after the
mint has succeeded.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum

from .chain import BlockCtx, EventKind
from .crypto import sha256
from .encoding import MAX_AMOUNT, Direction, PayloadEntry, SwapId
from .errors import (
    AmountTooLarge,
    DuplicateExecution,
    NotAuthorized,
    NotWrappedToken,
    UnknownSwap,
    UnknownToken,
    WrongChainReceiver,
    ZeroAmount,
)
from .ledger import (
    ADDRESS_LEN,
    AccountId,
    Ledger,
    TokenId,
    account_id,
    wrapped_symbol,
)
from .nebula import NEBULA_ADDRESS

ORIGIN = 0
DESTINATION = 1

# Reserved contract addresses, identical on every chain.
LU_PORT_ADDRESS = sha256(b"contract:lock-unlock-port")[:ADDRESS_LEN]
IB_PORT_ADDRESS = sha256(b"contract:issue-burn-port")[:ADDRESS_LEN]


class SwapStatus(IntEnum):
    REGISTERED = 1
    PROCESSED = 2
    FINALIZED = 3

    @property
    def label(self) -> str:
        return _LABELS[self]


# built once: each trace transition shares its label string
_LABELS = {status: status.name.lower() for status in SwapStatus}


# a swap id's material, packed at once: direction and origin chain, the
# port, sender and receiver addresses, then amount and sequence number. Each
# address field is ADDRESS_LEN wide, the length AccountId enforces and the
# port addresses have, so the bytes are the addresses themselves.
_ID = struct.Struct(f">BB{ADDRESS_LEN}s{ADDRESS_LEN}s{ADDRESS_LEN}sQQ")


def derive_swap_id(direction: Direction, origin_chain: int, port_address: bytes,
                   sender: bytes, receiver: bytes, amount: int, seq: int) -> SwapId:
    return SwapId(sha256(_ID.pack(direction, origin_chain, port_address,
                                  sender, receiver, amount, seq)))


def _check_amount(verb: str, amount: int) -> None:
    """The amount rule shared by lock and burn: a swap id packs the amount
    as a u64, so it must be positive and fit in one."""
    if amount <= 0:
        raise ZeroAmount(f"cannot {verb} a zero amount")
    if amount > MAX_AMOUNT:
        raise AmountTooLarge(f"amount {amount} does not fit in u64")


@dataclass
class _PortBase:
    """Port state; equal ports hold equal values in every field."""

    swaps: dict[bytes, SwapStatus] = field(default_factory=dict)
    next_seq: int = 0

    def _register(self, ctx: BlockCtx, kind: EventKind, direction: Direction,
                  sender: AccountId, receiver: AccountId, amount: int,
                  original: TokenId) -> bytes:
        """Register a user-initiated swap once its assets are locked or
        burned: derive its id from the next sequence number, store it
        Registered and emit the registration event. Returns the id."""
        seq = self.next_seq
        self.next_seq += 1
        swap_id = derive_swap_id(direction, original.chain, self.address,
                                 sender.address, receiver.address, amount, seq)
        self._store(swap_id, SwapStatus.REGISTERED)
        ctx.emit(kind, swap_id, {
            "symbol": original.symbol,
            "origin_chain": original.chain,
            "sender": sender.to_json(),
            "receiver": receiver.to_json(),
            "amount": amount,
        })
        return swap_id

    def _admit(self, entry: PayloadEntry, caller: bytes,
               direction: Direction) -> None:
        """The checks every attested execution makes first, in this order:
        the caller is the verification contract, the entry runs in the
        direction this port executes, and the swap id is new to this port:
        a Processed id is a duplicate, and a Registered one is a swap this
        port started, which runs the other way."""
        if caller != NEBULA_ADDRESS:
            raise NotAuthorized(
                "attested executions must come from the verification contract")
        if entry.direction != direction:
            raise UnknownSwap(
                f"this port only executes {direction.name} swaps")
        status = self.swaps.get(entry.swap_id)
        if status == SwapStatus.PROCESSED:
            raise DuplicateExecution(f"swap {entry.swap_id.hex()} already executed")
        if status is not None:
            raise UnknownSwap(
                f"swap {entry.swap_id.hex()} was registered on this port; "
                f"it only executes {direction.name} swaps")

    def _executed(self, ctx: BlockCtx, kind: EventKind, entry: PayloadEntry,
                  receiver: AccountId, paid: TokenId) -> bytes:
        """Store an attested swap the port has just paid out in `paid` as
        Processed and emit the execution event. It is registered and
        executed within the same transaction: the port first learns of the
        swap from the attested entry itself. Returns the id."""
        self._store(entry.swap_id, SwapStatus.PROCESSED)
        ctx.emit(kind, entry.swap_id, {
            "symbol": paid.symbol,
            "receiver": receiver.to_json(),
            "amount": entry.amount,
        })
        return entry.swap_id

    def _store(self, swap_id: bytes, status: SwapStatus) -> None:
        if swap_id in self.swaps:
            # _admit refuses a known id before an attested execution, so
            # this is a registration whose derivation inputs collided, which
            # the sequence counter is meant to prevent.
            raise RuntimeError(f"swap id collision: {swap_id.hex()}")
        self.swaps[swap_id] = status

    def _clone(self) -> "_PortBase":
        return type(self)(dict(self.swaps), self.next_seq)


class LockUnlockPort(_PortBase):
    """Origin-chain port: locks originals on the way out, unlocks on return."""

    chain_id = ORIGIN
    counterpart_chain = DESTINATION
    address = LU_PORT_ADDRESS

    def lock(self, ledger: Ledger, tokens: dict[str, TokenId], ctx: BlockCtx,
             sender: AccountId, symbol: str, amount: int,
             receiver: AccountId) -> bytes:
        _check_amount("lock", amount)
        if receiver.chain != self.counterpart_chain:
            raise WrongChainReceiver(
                f"receiver must live on chain {self.counterpart_chain}")
        token = tokens.get(symbol)
        if token is None:
            raise UnknownToken(f"token {symbol!r} is not registered")
        if token.is_wrapped:
            raise UnknownToken(f"{symbol!r} is wrapped; lock the original token")
        ledger.lock(token, sender, amount, caller=self.address)
        return self._register(ctx, EventKind.LOCK_REGISTERED,
                              Direction.ORIGIN_TO_DESTINATION, sender,
                              receiver, amount, token)

    def execute_attested(self, ledger: Ledger, tokens: dict[str, TokenId],
                         ctx: BlockCtx, entry: PayloadEntry,
                         caller: bytes) -> bytes:
        self._admit(entry, caller, Direction.DESTINATION_TO_ORIGIN)
        if entry.origin_chain != self.chain_id:
            raise UnknownSwap(
                f"attested token originates on chain {entry.origin_chain}, "
                f"not here")
        token = tokens.get(entry.symbol)
        if token is None or token.is_wrapped:
            raise UnknownSwap(f"no original token {entry.symbol!r} on this chain")
        receiver = account_id(ctx.accounts, self.chain_id, entry.receiver)
        ledger.unlock(token, receiver, entry.amount, caller=self.address)
        return self._executed(ctx, EventKind.UNLOCK_EXECUTED, entry, receiver,
                              token)

    def clone(self) -> "LockUnlockPort":
        return self._clone()


class IssueBurnPort(_PortBase):
    """Destination-chain port: mints wrapped tokens on attested locks, burns
    them to start the return trip."""

    chain_id = DESTINATION
    counterpart_chain = ORIGIN
    address = IB_PORT_ADDRESS

    def execute_attested(self, ledger: Ledger, tokens: dict[str, TokenId],
                         ctx: BlockCtx, entry: PayloadEntry,
                         caller: bytes) -> bytes:
        self._admit(entry, caller, Direction.ORIGIN_TO_DESTINATION)
        if entry.origin_chain != self.counterpart_chain:
            raise UnknownToken(
                f"this gateway does not serve tokens from chain "
                f"{entry.origin_chain}")
        symbol = wrapped_symbol(entry.symbol)
        wrapped = tokens.get(symbol) or TokenId(
            symbol, self.chain_id,
            wrapped_of=TokenId(entry.symbol, entry.origin_chain))
        receiver = account_id(ctx.accounts, self.chain_id, entry.receiver)
        # Mint first: it rejects a bad entry before changing anything, and
        # only then is a first transfer's wrapped token registered.
        ledger.mint(wrapped, receiver, entry.amount, caller=self.address)
        tokens[symbol] = wrapped
        return self._executed(ctx, EventKind.MINT_EXECUTED, entry, receiver,
                              wrapped)

    def burn(self, ledger: Ledger, tokens: dict[str, TokenId], ctx: BlockCtx,
             holder: AccountId, symbol: str, amount: int,
             receiver: AccountId) -> bytes:
        _check_amount("burn", amount)
        token = tokens.get(symbol)
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
        return self._register(ctx, EventKind.BURN_REGISTERED,
                              Direction.DESTINATION_TO_ORIGIN, holder,
                              receiver, amount, original)

    def clone(self) -> "IssueBurnPort":
        return self._clone()
