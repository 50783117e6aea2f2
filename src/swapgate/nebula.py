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
`unconsumed` is the one record of open commitments: a pulse is consumed
exactly when its hash no longer maps to its id there.

Signatures bind (data hash, declared height, chain id) so that a signature
collected for one chain or height cannot be replayed on another.
"""

from __future__ import annotations

import struct
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

# The contract's reserved address, identical on every chain: the only caller
# the ports accept for attested executions.
NEBULA_ADDRESS = sha256(b"contract:nebula")[:20]


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


@dataclass(frozen=True)
class Pulse:
    """A registered payload commitment. Immutable, so per-block states can
    share it; whether it is consumed is NebulaState's to say."""

    pulse_id: int
    data_hash: bytes
    declared_height: int
    signatures: tuple[tuple[int, bytes], ...]

    @property
    def signers(self) -> tuple[int, ...]:
        return tuple(sorted({idx for idx, _ in self.signatures}))


@dataclass
class NebulaState:
    """Verification contract state; equal states hold equal values in every
    field, full pulse signatures and `unconsumed` included."""

    chain_id: int
    roster: OracleRoster
    window: int
    # ids run 1, 2, ... and no pulse is ever removed: the next id is
    # len(pulses) + 1
    pulses: dict[int, Pulse] = field(default_factory=dict)
    # data hash -> id of the open pulse committed to it: the uniqueness rule
    # for pulses and the lookup for reveals
    unconsumed: dict[bytes, int] = field(default_factory=dict)

    def submit_pulse(self, ctx: BlockCtx, data_hash: bytes, declared_height: int,
                     signatures: list[tuple[int, bytes]]) -> int:
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
        if data_hash in self.unconsumed:
            raise DuplicatePulse(
                f"hash {data_hash.hex()} already registered and unconsumed")

        pulse = Pulse(
            pulse_id=len(self.pulses) + 1,
            data_hash=data_hash,
            declared_height=declared_height,
            signatures=tuple((idx, sig) for idx, sig in signatures),
        )
        self.pulses[pulse.pulse_id] = pulse
        self.unconsumed[data_hash] = pulse.pulse_id
        ctx.emit(EventKind.PULSE_ACCEPTED, None, {
            "pulse_id": pulse.pulse_id,
            "data_hash": data_hash.hex(),
            "declared_height": declared_height,
            "signers": list(pulse.signers),
        })
        return pulse.pulse_id

    def submit_send_data(self, ctx: BlockCtx, entries: list[PayloadEntry],
                         router) -> list[str]:
        """Reveal a payload, consume the open pulse committed to its hash and
        route the payload entry by entry.

        router(entry) executes one entry against the local port and raises a
        GatewayError on rejection. A rejected entry is recorded but does not
        roll back its siblings; the pulse is consumed either way.
        """
        data_hash = payload_hash(entries)
        pulse_id = self.unconsumed.pop(data_hash, None)
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
            "outcomes": list(outcomes),
        })
        return outcomes

    def clone(self) -> "NebulaState":
        return NebulaState(self.chain_id, self.roster, self.window,
                           dict(self.pulses), dict(self.unconsumed))
