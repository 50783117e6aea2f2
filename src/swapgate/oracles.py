"""Off-chain oracle network: extraction, quorum, signing, submission.

Every round starts from one honest extraction of the confirmed port events
on the source chain, read from one cursor per source chain; each oracle
turns it into relay payload candidates according to its profile. A round
succeeds when at least `threshold` oracles produced byte-identical
payloads; the agreeing oracles sign the payload hash and the
lowest-indexed signer enqueues the pulse and reveal transactions on the
target chain. Anything less is a lost round, not a safety problem: a
forged payload needs a full quorum of identical signatures to ever reach
a port.

Byzantine profiles are deterministic transforms of the honest extraction,
so that runs stay replayable:

    silent          extracts nothing and signs nothing
    wrong_amount    doubles every amount
    wrong_receiver  redirects every entry to a fixed attacker address
    replayer        re-emits everything it ever extracted before
    equivocator     endorses both the honest payload and a perturbed twin
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .chain import REGISTRATION_KINDS, Chain, ChainEvent, EventKind
from .crypto import DEFAULT_SCHEME, sha256
from .encoding import MAX_AMOUNT, Direction, PayloadEntry, encode_payload
from .gateway import PulseTx, SendDataTx
from .nebula import OracleRoster, pulse_message

ATTACKER_ADDRESS = sha256(b"attacker")[:20]


class Behavior(str, Enum):
    HONEST = "honest"
    SILENT = "silent"
    WRONG_AMOUNT = "wrong_amount"
    WRONG_RECEIVER = "wrong_receiver"
    REPLAYER = "replayer"
    EQUIVOCATOR = "equivocator"


@dataclass(frozen=True)
class OracleIdentity:
    index: int
    secret: bytes
    behavior: Behavior


def entry_from_event(event: ChainEvent) -> PayloadEntry:
    direction = (Direction.ORIGIN_TO_DESTINATION
                 if event.kind == EventKind.LOCK_REGISTERED
                 else Direction.DESTINATION_TO_ORIGIN)
    payload = event.payload
    assert event.swap_id is not None
    return PayloadEntry(
        direction=direction,
        swap_id=event.swap_id,
        symbol=payload["symbol"],
        origin_chain=payload["origin_chain"],
        receiver=bytes.fromhex(payload["receiver"]["address"]),
        amount=payload["amount"],
    )


@dataclass
class RoundReport:
    source: int
    target: int
    reference_hash: str | None          # hash of the honest extraction, if any
    candidates: list[dict]              # [{hash, count, forged}]
    outcome: str                        # "submitted" | "no_quorum" | "empty"
    chosen_hash: str | None = None
    forged_chosen: bool = False
    signers: list[int] = field(default_factory=list)
    declared_height: int | None = None
    entries: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "source": self.source,
            "target": self.target,
            "reference_hash": self.reference_hash,
            "candidates": self.candidates,
            "outcome": self.outcome,
            "chosen_hash": self.chosen_hash,
            "forged_chosen": self.forged_chosen,
            "signers": self.signers,
            "declared_height": self.declared_height,
            "entries": self.entries,
        }


class OracleNetwork:
    """The full oracle roster plus its extraction bookkeeping."""

    def __init__(self, oracles: list[OracleIdentity], roster: OracleRoster,
                 confirmation_depth: dict[int, int]):
        if len(oracles) != roster.size:
            raise ValueError("one roster key per oracle required")
        self.oracles = list(oracles)
        self.roster = roster
        self.confirmation_depth = dict(confirmation_depth)
        # per source chain: the confirmed height extracted up to, and every
        # entry extracted so far (what a replayer re-emits)
        self.cursors: dict[int, int] = {}
        self.replay_history: dict[int, list[PayloadEntry]] = {}
        self.reattest_requests: set[bytes] = set()

    # --- extraction ---------------------------------------------------------

    def request_reattestation(self, swap_id: bytes) -> None:
        self.reattest_requests.add(swap_id)

    def _confirmed_upper(self, chain: Chain) -> int:
        return chain.canonical_tip.height - self.confirmation_depth[chain.chain_id]

    def extract(self, chain: Chain) -> list[PayloadEntry]:
        """The honest extraction of one round: confirmed registrations above
        the chain's cursor, plus any flagged re-attestations whose
        registration is confirmed on this chain, in canonical order. The
        cursor advances to the confirmed frontier, extraction being total."""
        upper = self._confirmed_upper(chain)
        cursor = self.cursors.get(chain.chain_id, 0)
        picked = [event for event in chain.events_since(cursor)
                  if event.block.height <= upper
                  and event.kind in REGISTRATION_KINDS]
        seen = {event.swap_id for event in picked}
        for swap_id in self.reattest_requests - seen:
            first = next((event for event in chain.swap_events(swap_id)
                          if event.kind in REGISTRATION_KINDS), None)
            if first is not None and first.block.height <= upper:
                picked.append(first)
        picked.sort(key=lambda event: (event.block.height, event.index))
        self.cursors[chain.chain_id] = max(cursor, upper)
        return [entry_from_event(event) for event in picked]

    @staticmethod
    def sign_payload(oracle: OracleIdentity, data_hash: bytes,
                     declared_height: int, target_chain: int) -> bytes:
        """Sign the domain-separated pulse message."""
        message = pulse_message(data_hash, declared_height, target_chain)
        return DEFAULT_SCHEME.sign(oracle.secret, message)

    # --- one relay round ------------------------------------------------------

    def relay_round(self, source: Chain, target: Chain) -> RoundReport:
        reference_entries = self.extract(source)
        history = self.replay_history.setdefault(source.chain_id, [])
        reference_hash = (sha256(encode_payload(reference_entries))
                          if reference_entries else None)

        by_payload: dict[bytes, list[PayloadEntry]] = {}
        endorsements: dict[bytes, set[int]] = {}
        for oracle in self.oracles:
            for candidate in candidates(oracle.behavior, reference_entries,
                                        history):
                # an honest candidate is the extraction itself, already hashed
                digest = (reference_hash if candidate is reference_entries
                          else sha256(encode_payload(candidate)))
                by_payload.setdefault(digest, candidate)
                endorsements.setdefault(digest, set()).add(oracle.index)
        history.extend(reference_entries)

        candidates_json = [
            {
                "hash": digest.hex(),
                "count": len(endorsers),
                "forged": digest != reference_hash,
            }
            for digest, endorsers in sorted(
                endorsements.items(),
                key=lambda kv: (-len(kv[1]), kv[0]))
        ]

        report = RoundReport(
            source=source.chain_id,
            target=target.chain_id,
            reference_hash=reference_hash.hex() if reference_hash else None,
            candidates=candidates_json,
            outcome="empty" if not endorsements else "no_quorum",
        )
        if not endorsements:
            return report

        digest, endorsers = min(
            endorsements.items(), key=lambda kv: (-len(kv[1]), kv[0]))
        if len(endorsers) < self.roster.threshold:
            return report

        chosen = by_payload[digest]
        declared_height = target.canonical_tip.height
        # an oracle signs only a payload it produced itself: its endorsement
        signatures = [(oracle.index,
                       self.sign_payload(oracle, digest, declared_height,
                                         target.chain_id))
                      for oracle in self.oracles if oracle.index in endorsers]

        submitter = min(idx for idx, _ in signatures)
        target.submit(PulseTx(
            chain=target.chain_id,
            data_hash=digest,
            declared_height=declared_height,
            signatures=tuple(signatures),
            submitter=submitter,
        ))
        target.submit(SendDataTx(
            chain=target.chain_id,
            entries=tuple(chosen),
            submitter=submitter,
        ))

        for entry in reference_entries:
            self.reattest_requests.discard(entry.swap_id)

        report.outcome = "submitted"
        report.chosen_hash = digest.hex()
        report.forged_chosen = digest != reference_hash
        report.signers = sorted(idx for idx, _ in signatures)
        report.declared_height = declared_height
        report.entries = [e.to_json() for e in chosen]
        return report


def candidates(behavior: Behavior, entries: list[PayloadEntry],
               history: list[PayloadEntry]) -> list[list[PayloadEntry]]:
    """One oracle's payload candidates for a round whose honest extraction
    is `entries`; `history` holds the earlier rounds' extractions from the
    same source chain. Honest oracles produce zero or one candidate; the
    equivocator may produce two."""
    if behavior == Behavior.SILENT:
        return []
    if behavior == Behavior.REPLAYER:
        payload = history + entries
        return [payload] if payload else []
    if not entries:
        return []
    if behavior == Behavior.HONEST:
        return [entries]
    if behavior == Behavior.WRONG_AMOUNT:
        return [[_with_amount(e, min(e.amount * 2, MAX_AMOUNT)) for e in entries]]
    if behavior == Behavior.WRONG_RECEIVER:
        return [[_with_receiver(e, ATTACKER_ADDRESS) for e in entries]]
    if behavior == Behavior.EQUIVOCATOR:
        twin = [_with_amount(e, e.amount + 1 if e.amount < MAX_AMOUNT
                             else e.amount - 1) for e in entries]
        return [entries, twin]
    raise ValueError(f"unhandled behavior {behavior}")


def _with_amount(entry: PayloadEntry, amount: int) -> PayloadEntry:
    return PayloadEntry(entry.direction, entry.swap_id, entry.symbol,
                        entry.origin_chain, entry.receiver, amount)


def _with_receiver(entry: PayloadEntry, receiver: bytes) -> PayloadEntry:
    return PayloadEntry(entry.direction, entry.swap_id, entry.symbol,
                        entry.origin_chain, receiver, entry.amount)
