"""Off-chain oracle network: extraction, quorum, signing, submission.

Every round starts from one honest extraction of the confirmed port events
on the source chain, read from one cursor per source chain; a round takes
at most MAX_ENTRIES entries, the most a payload carries, and leaves the
rest to the next rounds. Each oracle turns the extraction into relay
payload candidates according to its profile. A round succeeds when at
least `threshold` oracles produced byte-identical payloads; the agreeing
oracles sign the payload hash and the lowest-indexed signer enqueues the
pulse and reveal transactions on the target chain. Anything less is a lost
round, not a safety problem: a forged payload needs a full quorum of
identical signatures to ever reach a port.

Byzantine profiles are deterministic transforms of the honest extraction,
so that runs stay replayable:

    silent          extracts nothing and signs nothing
    wrong_amount    doubles every amount
    wrong_receiver  redirects every entry to a fixed attacker address
    replayer        re-emits everything it ever extracted before, up to the
                    newest MAX_ENTRIES entries, the most a payload carries
                    and all the network keeps of its history
    equivocator     endorses both the honest payload and a perturbed twin

A round that extracts nothing asks no oracle, unless a replayer is on the
roster: it is the one profile that endorses a payload without an
extraction. An extraction reads only the confirmed blocks above its
cursor, and none when there are none and no re-attestation is pending.

Each entry is packed once, on first use (see encoding), so a round packs
only its own new entries and the twins it perturbs. A replayer's round
still joins and hashes the kept bytes of its whole endorsed history, at
most MAX_ENTRIES entries: that is the one per-round cost that grows with
the history, up to that bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .chain import REGISTRATION_KINDS, Chain, ChainEvent, EventKind
from .crypto import DEFAULT_SCHEME, sha256
from .encoding import (MAX_AMOUNT, MAX_ENTRIES, Direction, PayloadEntry,
                       encode_payload)
from .gateway import PulseTx, SendDataTx
from .ledger import ADDRESS_LEN
from .nebula import OracleRoster, pulse_message

ATTACKER_ADDRESS = sha256(b"attacker")[:ADDRESS_LEN]


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


def round_report(source: int, target: int, reference_hash: str | None,
                 candidates: list[dict], outcome: str) -> dict:
    """The trace report of a relay round that submits nothing: `outcome` is
    "empty" or "no_quorum". A submitted round fills in the last five keys
    of this same dict. `reference_hash` is the hash of the honest
    extraction, if any, and `candidates` is [{hash, count, forged}]."""
    return {
        "source": source,
        "target": target,
        "reference_hash": reference_hash,
        "candidates": candidates,
        "outcome": outcome,
        "chosen_hash": None,
        "forged_chosen": False,
        "signers": [],
        "declared_height": None,
        "entries": [],
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
        # per source chain: the position (block height, event index) of the
        # first event not yet extracted, and, with a replayer on the roster,
        # the newest MAX_ENTRIES entries extracted so far, the most it
        # re-emits
        self.cursors: dict[int, tuple[int, int]] = {}
        self.replay_history: dict[int, list[PayloadEntry]] = {}
        self.reattest_requests: set[bytes] = set()
        # a replayer is the one profile that endorses a payload in a round
        # whose extraction is empty
        self._replays = any(o.behavior == Behavior.REPLAYER
                            for o in self.oracles)

    # --- extraction ---------------------------------------------------------

    def request_reattestation(self, swap_id: bytes) -> None:
        self.reattest_requests.add(swap_id)

    def _confirmed_upper(self, chain: Chain) -> int:
        return chain.canonical_tip.height - self.confirmation_depth[chain.chain_id]

    def extract(self, chain: Chain) -> list[PayloadEntry]:
        """The honest extraction of one round: confirmed registrations from
        the chain's cursor on, plus any flagged re-attestations whose
        registration is confirmed on this chain, in canonical order. The
        cursor advances to the confirmed frontier, unless more than
        MAX_ENTRIES entries, the most a payload carries, are due: then the
        round takes the oldest MAX_ENTRIES (re-attestations, which lie
        behind the cursor, first) and the cursor stops at the first
        registration left out, where the next round starts."""
        upper = self._confirmed_upper(chain)
        start = self.cursors.get(chain.chain_id, (1, 0))
        height, index = start
        requests = self.reattest_requests
        if height > upper and not requests:
            return []   # nothing confirmed above the cursor, nothing to re-attest
        picked = [event for event in chain.events_since(height - 1, upper)
                  if event.kind in REGISTRATION_KINDS
                  and (event.index >= index or event.block.height > height)]
        if requests:
            # the events above are in canonical order; a re-attestation
            # lies behind the cursor and is merged in
            seen = {event.swap_id for event in picked}
            for swap_id in requests - seen:
                first = chain.first_event(swap_id, REGISTRATION_KINDS)
                if first is not None and first.block.height <= upper:
                    picked.append(first)
            picked.sort(key=lambda event: (event.block.height, event.index))
        stop = (upper + 1, 0)
        if len(picked) > MAX_ENTRIES:
            left_out = picked[MAX_ENTRIES]
            stop = (left_out.block.height, left_out.index)
            del picked[MAX_ENTRIES:]
        self.cursors[chain.chain_id] = max(start, stop)
        return [entry_from_event(event) for event in picked]

    @staticmethod
    def sign_payload(oracle: OracleIdentity, data_hash: bytes,
                     declared_height: int, target_chain: int) -> bytes:
        """Sign the domain-separated pulse message."""
        message = pulse_message(data_hash, declared_height, target_chain)
        return DEFAULT_SCHEME.sign(oracle.secret, message)

    # --- one relay round ------------------------------------------------------

    def relay_round(self, source: Chain, target: Chain) -> dict:
        """One round from `source` to `target`; its report, see
        round_report, is the dict the trace records."""
        reference_entries = self.extract(source)
        if not reference_entries and not self._replays:
            return round_report(source.chain_id, target.chain_id, None, [],
                                "empty")
        # only a replayer reads the history, so only its network keeps one
        history = (self.replay_history.setdefault(source.chain_id, [])
                   if self._replays else [])
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
        if self._replays:
            history.extend(reference_entries)
            del history[:-MAX_ENTRIES]

        # the most endorsed candidate first, ties broken by the smaller digest
        ranked = sorted(endorsements.items(),
                        key=lambda kv: (-len(kv[1]), kv[0]))
        candidates_json = [
            {
                "hash": digest.hex(),
                "count": len(endorsers),
                "forged": digest != reference_hash,
            }
            for digest, endorsers in ranked
        ]

        report = round_report(
            source.chain_id, target.chain_id,
            reference_hash.hex() if reference_hash else None,
            candidates_json, "empty" if not endorsements else "no_quorum")
        if not endorsements:
            return report

        digest, endorsers = ranked[0]
        if len(endorsers) < self.roster.threshold:
            return report

        chosen = by_payload[digest]
        # the newest height every branch the pulse can land on contains: a
        # block on a branch that meets the canonical chain below the final
        # height is refused, so any block that includes the pulse is higher
        declared_height = target.final_height
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

        report["outcome"] = "submitted"
        report["chosen_hash"] = digest.hex()
        report["forged_chosen"] = digest != reference_hash
        report["signers"] = sorted(idx for idx, _ in signatures)
        report["declared_height"] = declared_height
        report["entries"] = [e.to_json() for e in chosen]
        return report


def candidates(behavior: Behavior, entries: list[PayloadEntry],
               history: list[PayloadEntry]) -> list[list[PayloadEntry]]:
    """One oracle's payload candidates for a round whose honest extraction
    is `entries`; `history` holds the earlier rounds' extractions from the
    same source chain, of which a replayer reads at most the newest
    MAX_ENTRIES (all the network keeps). Honest oracles produce zero or one
    candidate; the equivocator may produce two."""
    if behavior == Behavior.SILENT:
        return []
    if behavior == Behavior.REPLAYER:
        payload = history[max(0, len(history) + len(entries) - MAX_ENTRIES):] \
            + entries
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
