"""Canonical byte encoding of relay payloads.

This is the one externally pinned wire format in the system: the hash a
pulse commits to is the SHA-256 of exactly these bytes, so encoding must be
bit-stable and injective. Layout, big-endian throughout:

    u16  entry count (>= 1)
    per entry:
        u8   direction (0 = origin->destination, 1 = destination->origin)
        32B  swap id
        u8   token symbol length, then that many symbol bytes (utf-8)
        u8   origin chain id
        20B  receiver address
        u64  amount

Each entry is validated and packed on its first use and keeps its bytes,
so a payload is its count followed by its entries' kept bytes: the relay's
hashes, the reveal, every replay of the reveal's block and a replayer's
history never pack an entry again. Only the payload's own checks (at least
one entry, at most MAX_ENTRIES) run per call. encode_payload still raises
MalformedPayload for an invalid entry, on every call: an entry is
validated when it is packed, not when it is built, and an invalid one
keeps nothing.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass
from enum import IntEnum

from .crypto import built_once, sha256
from .errors import MalformedPayload
from .ledger import ADDRESS_LEN

SWAP_ID_LEN = 32
MAX_AMOUNT = 2**64 - 1
# the most entries one payload carries: its count is a u16
MAX_ENTRIES = 0xFFFF


class SwapId(bytes):
    """A swap id's bytes. Its hex string, the form the trace writes, is
    built on first use and kept, so that the receipt, both events, the
    round report and the controller transitions of a swap share one."""

    hex = built_once(bytes.hex)


class Direction(IntEnum):
    ORIGIN_TO_DESTINATION = 0
    DESTINATION_TO_ORIGIN = 1


# an entry's packed bytes around its symbol: direction, swap id and symbol
# length, then origin chain, receiver and amount
_HEAD = struct.Struct(f">B{SWAP_ID_LEN}sB")
_TAIL = struct.Struct(f">B{ADDRESS_LEN}sQ")


class _KeptForms:
    """The slots in which built_once keeps an entry's packed bytes and JSON
    dict. As attributes, the second of the two would give every entry its
    own attribute dict, about 390 bytes more per entry. They start as None,
    as reading an empty slot raises inside getattr, which is slow."""

    __slots__ = ("_built_packed", "_built_to_json")

    def __post_init__(self) -> None:
        object.__setattr__(self, "_built_packed", None)
        object.__setattr__(self, "_built_to_json", None)


@dataclass(frozen=True, slots=True)
class PayloadEntry(_KeptForms):
    """One attested swap instruction inside a relay payload."""

    direction: Direction
    swap_id: bytes
    symbol: str
    origin_chain: int
    receiver: bytes
    amount: int

    def validate(self) -> None:
        if len(self.swap_id) != SWAP_ID_LEN:
            raise MalformedPayload(f"swap id must be {SWAP_ID_LEN} bytes")
        if len(self.receiver) != ADDRESS_LEN:
            raise MalformedPayload(f"receiver must be {ADDRESS_LEN} bytes")
        sym = self.symbol.encode("utf-8")
        if not 1 <= len(sym) <= 255:
            raise MalformedPayload("symbol must encode to 1..255 bytes")
        if not 0 <= self.origin_chain <= 255:
            raise MalformedPayload("origin chain id must fit in one byte")
        if not 0 <= self.amount <= MAX_AMOUNT:
            raise MalformedPayload("amount must fit in u64")

    @built_once
    def packed(self) -> bytes:
        """The entry's canonical bytes, validated and packed on the first
        call and kept; an invalid entry raises on every call."""
        self.validate()
        sym = self.symbol.encode("utf-8")
        return (_HEAD.pack(self.direction, self.swap_id, len(sym)) + sym
                + _TAIL.pack(self.origin_chain, self.receiver, self.amount))

    @built_once
    def to_json(self) -> dict:
        return {
            "direction": int(self.direction),
            "swap_id": self.swap_id.hex(),
            "symbol": self.symbol,
            "origin_chain": self.origin_chain,
            "receiver": self.receiver.hex(),
            "amount": self.amount,
        }


def encode_payload(entries: Sequence[PayloadEntry]) -> bytes:
    if not entries:
        raise MalformedPayload("payload must contain at least one entry")
    if len(entries) > MAX_ENTRIES:
        raise MalformedPayload("entry count exceeds u16")
    return struct.pack(">H", len(entries)) + b"".join(
        [entry.packed() for entry in entries])


def decode_payload(data: bytes) -> list[PayloadEntry]:
    """Inverse of encode_payload; rejects trailing or missing bytes."""
    if len(data) < 2:
        raise MalformedPayload("payload shorter than entry count")
    (count,) = struct.unpack_from(">H", data, 0)
    if count == 0:
        raise MalformedPayload("payload must contain at least one entry")
    pos = 2
    entries: list[PayloadEntry] = []
    for _ in range(count):
        try:
            (direction_byte,) = struct.unpack_from(">B", data, pos)
            pos += 1
            swap_id = data[pos:pos + SWAP_ID_LEN]
            if len(swap_id) != SWAP_ID_LEN:
                raise MalformedPayload("truncated swap id")
            pos += SWAP_ID_LEN
            (sym_len,) = struct.unpack_from(">B", data, pos)
            pos += 1
            sym = data[pos:pos + sym_len]
            if len(sym) != sym_len or sym_len == 0:
                raise MalformedPayload("truncated or empty symbol")
            pos += sym_len
            (origin_chain,) = struct.unpack_from(">B", data, pos)
            pos += 1
            receiver = data[pos:pos + ADDRESS_LEN]
            if len(receiver) != ADDRESS_LEN:
                raise MalformedPayload("truncated receiver")
            pos += ADDRESS_LEN
            (amount,) = struct.unpack_from(">Q", data, pos)
            pos += 8
        except struct.error as exc:
            raise MalformedPayload(f"truncated payload: {exc}") from None
        if direction_byte not in (0, 1):
            raise MalformedPayload(f"unknown direction byte {direction_byte}")
        entries.append(PayloadEntry(
            direction=Direction(direction_byte),
            swap_id=swap_id,
            symbol=sym.decode("utf-8"),
            origin_chain=origin_chain,
            receiver=receiver,
            amount=amount,
        ))
    if pos != len(data):
        raise MalformedPayload(f"{len(data) - pos} trailing bytes after last entry")
    return entries


def payload_hash(entries: Sequence[PayloadEntry]) -> bytes:
    return sha256(encode_payload(entries))
