"""On-chain verification contract for oracle-attested data.

Data reaches a port in two steps. A pulse transaction registers the hash of
a payload together with oracle signatures; the contract checks that every
signature verifies, that enough distinct oracles signed, and that the
declared height falls inside the relevance window. A send-data transaction
then reveals the payload, and nothing else: the pulse it opens is the one
whose commitment equals the hash of the payload's canonical encoding. A
reveal that matches no open pulse (a tampered payload, a second reveal of a
consumed one, or a payload never committed on this branch) is rejected.
Otherwise the pulse is consumed and each entry is routed to the local port.
The contract keeps only its open pulses and the count of pulses accepted: a
pulse is consumed exactly when its hash no longer maps to its id in `pulses`.
Signers and declared heights live in the pulse transaction and its
`PulseAccepted` event, not in the state.

Signatures bind (data hash, declared height, chain id) so that a signature
collected for one chain or height cannot be replayed on another.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from .chain import BlockCtx, EventKind
from .crypto import DEFAULT_SCHEME, sha256
from .encoding import PayloadEntry, payload_hash
from .errors import (
    DuplicatePulse,
    FutureHeight,
    GatewayError,
    InsufficientSignatures,
    InvalidSignature,
    StaleHeight,
    UnknownPulse,
)
from .ledger import ADDRESS_LEN

# The contract's reserved address, identical on every chain: the only caller
# the ports accept for attested executions.
NEBULA_ADDRESS = sha256(b"contract:nebula")[:ADDRESS_LEN]


def default_threshold(n: int) -> int:
    """BFT supermajority: floor(2n/3) + 1."""
    return (2 * n) // 3 + 1


@dataclass(frozen=True)
class OracleRoster:
    """Ordered verification keys plus the acceptance threshold."""

    keys: tuple[bytes, ...]
    threshold: int

    def __post_init__(self):
        if not 1 <= self.threshold <= len(self.keys):
            raise ValueError(
                f"threshold {self.threshold} out of range for {len(self.keys)} oracles")

    @property
    def size(self) -> int:
        return len(self.keys)


def pulse_message(data_hash: bytes, declared_height: int, chain_id: int) -> bytes:
    """The exact bytes an oracle signs for one pulse."""
    return data_hash + struct.pack(">Q", declared_height) + struct.pack(">B", chain_id)


@dataclass
class NebulaState:
    """Verification contract state; equal states hold equal values in every
    field, the open pulses included."""

    chain_id: int
    roster: OracleRoster
    window: int
    # ids run 1, 2, ...: the id of the last pulse accepted
    pulse_count: int = 0
    # data hash -> id of the open pulse committed to it: the uniqueness rule
    # for pulses and the lookup for reveals
    pulses: dict[bytes, int] = field(default_factory=dict)

    def submit_pulse(self, ctx: BlockCtx, data_hash: bytes, declared_height: int,
                     signatures: Iterable[tuple[int, bytes]]) -> int:
        message = pulse_message(data_hash, declared_height, self.chain_id)
        signers: set[int] = set()
        for idx, sig in signatures:
            if not 0 <= idx < self.roster.size:
                raise InvalidSignature(f"no oracle at roster index {idx}")
            if not DEFAULT_SCHEME.verify(self.roster.keys[idx], message, sig):
                raise InvalidSignature(f"signature from oracle {idx} does not verify")
            signers.add(idx)
        if len(signers) < self.roster.threshold:
            raise InsufficientSignatures(
                f"{len(signers)} distinct signers, threshold {self.roster.threshold}")

        current = ctx.height
        if declared_height > current:
            raise FutureHeight(
                f"declared height {declared_height} beyond current {current}")
        if declared_height < current - self.window:
            raise StaleHeight(
                f"declared height {declared_height} older than window "
                f"{self.window} at height {current}")
        if data_hash in self.pulses:
            raise DuplicatePulse(
                f"hash {data_hash.hex()} already registered and unconsumed")

        self.pulse_count += 1
        self.pulses[data_hash] = self.pulse_count
        ctx.emit(EventKind.PULSE_ACCEPTED, None, {
            "pulse_id": self.pulse_count,
            "data_hash": data_hash.hex(),
            "declared_height": declared_height,
            "signers": sorted(signers),
        })
        return self.pulse_count

    def submit_send_data(self, ctx: BlockCtx, entries: Sequence[PayloadEntry],
                         router) -> list[str]:
        """Reveal a payload, consume the open pulse committed to its hash and
        route the payload entry by entry.

        router(entry) executes one entry against the local port and raises a
        GatewayError on rejection. A rejected entry is recorded but does not
        roll back its siblings; the pulse is consumed either way.
        """
        data_hash = payload_hash(entries)
        pulse_id = self.pulses.pop(data_hash, None)
        if pulse_id is None:
            raise UnknownPulse(f"no open pulse for hash {data_hash.hex()}")

        outcomes: list[str] = []
        for entry in entries:
            try:
                router(entry)
                outcomes.append("ok")
            except GatewayError as err:
                outcomes.append(err.code)
        ctx.emit(EventKind.SEND_DATA_CONSUMED, None, {
            "pulse_id": pulse_id,
            "data_hash": data_hash.hex(),
            "entries": len(entries),
            "outcomes": outcomes,
        })
        return outcomes

    def clone(self) -> "NebulaState":
        return NebulaState(self.chain_id, self.roster, self.window,
                           self.pulse_count, dict(self.pulses))
