"""Trace records: one JSON object per line, byte-identical across replays.

A trace is self-contained enough to re-verify the global invariants without
re-running the scenario: block records carry events and per-token accounting,
canonical sections each chain's tip and its accounting, tick records carry
controller transitions, assert records carry their verdicts. The built-in
invariants are conservation per block, receipt references, exactly-once
execution per swap on the final canonical branches, backing (at every
canonical state, each wrapped token's supply is at most the origin's locked
amount of its original), the status machine of controller transitions, and
the scenario's assertions. `TraceFold` is their single implementation, a
fold with `feed(record)` and `finish()`, and `evaluate_records` its
wrapper; the runner calls it on its own records at the end of a run and
`check_trace` calls it on a file's records, so the two can never disagree.

A trace states each fact once. Its header names the format, TRACE_FORMAT,
and a trace of any other format is malformed. An event sits inside its
block's record and names no block. A block's receipt of a lock or burn
names the user record that submitted the tx, {"kind", "step"}, and a
receipt of a reveal names the relay round that submitted it, {"kind":
"send_data", "round", "submitter"}, whose report lists the reveal's
entries; a pulse's receipt states its tx. A reference that names no earlier
record submitting a tx of its kind to the block's chain is a
`tx_reference` violation.

A check is one pass. `iter_trace` yields each record as its line is parsed
and validated, from text read a chunk at a time (`check_trace` reads a file
_CHUNK characters at a time), and a TraceFold folds it into every
invariant and lets it go. Per block it keeps only the parent, height and
executed swap ids, for one walk down each chain's final canonical branch at
the end, so a check's memory grows with the number of blocks, not with the
records or the text. Writing streams too: `write_records` encodes and
writes one record's line at a time.

Lines are canonical JSON (`crypto.canonical_json`), and a line reads as
json.loads reads it (`crypto.parse_json`); orjson writes and reads them
faster, byte for byte and value for value the same. A trace holds no
floats, whose text orjson writes otherwise.

Records are read-only. A runner's records share the dicts of repeated
fragments (see `Runner`), so a change to one would show in every record
that holds it; a reader that edits records copies them first. Traces are
UTF-8 files whatever the locale; a file that is not UTF-8 is malformed.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import TextIO

from .chain import EXECUTION_KINDS, GENESIS_PARENT, REGISTRATION_KINDS
from .crypto import canonical_json, parse_json
from .errors import MalformedTrace
from .ledger import WRAPPED_PREFIX
from .ports import DESTINATION, ORIGIN

EXECUTION_EVENT_KINDS = tuple(kind.value for kind in EXECUTION_KINDS)
REGISTRATION_EVENT_KINDS = tuple(kind.value for kind in REGISTRATION_KINDS)

# the format the header names; a reader reads this one alone
TRACE_FORMAT = 2

# the key under which a receipt's reference names the step of the record
# that submitted its tx, by tx kind; a pulse's receipt holds no reference
_REFERENCE_KEYS = {"lock": "step", "burn": "step", "send_data": "round"}
# the kind of tx each user record submits
_USER_OPS = {"user_lock": "lock", "user_burn": "burn"}

# characters of trace text read and split into lines at a time
_CHUNK = 1 << 16

_STATUS_NEXT = {None: "registered", "registered": "processed",
                "processed": "finalized"}


def records_to_lines(records: list[dict]) -> list[str]:
    return [canonical_json(r) for r in records]


def write_records(records: Iterable[dict], out: TextIO) -> None:
    """Write each record's line as it is encoded, so that the trace's text
    is never held whole."""
    out.writelines(canonical_json(record) + "\n" for record in records)


def write_trace(records: Iterable[dict], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        write_records(records, out)


def iter_trace(chunks: Iterable[str]) -> Iterator[dict]:
    """Yield the records of the trace text that `chunks` make up, cut
    anywhere, one at a time, each validated as it is read.

    Raises MalformedTrace at the first fault in file order: a line that
    json.loads refuses or that is not a JSON object with an `op`, a first
    record that is not the header or names another format than
    TRACE_FORMAT, and, once the text is exhausted, an empty trace or a
    last record that is not `end`."""
    started = False
    last_op = None
    for lineno, line in enumerate(_lines(chunks), start=1):
        if not line.strip():
            continue
        try:
            record = parse_json(line)
        except (ValueError, RecursionError) as exc:
            # not JSON, an int too long to convert, or nesting too deep
            raise MalformedTrace(f"line {lineno}: {exc}") from None
        if not isinstance(record, dict) or "op" not in record:
            raise MalformedTrace(f"line {lineno}: not a trace record")
        if not started:
            if record["op"] != "header":
                raise MalformedTrace("trace does not start with a header record")
            if record.get("format") != TRACE_FORMAT:
                raise MalformedTrace(
                    f"trace format {record.get('format')!r} in the header, "
                    f"expected {TRACE_FORMAT}")
        started, last_op = True, record["op"]
        yield record
    if not started:
        raise MalformedTrace("empty trace")
    if last_op != "end":
        raise MalformedTrace("trace is truncated: no end record")


def _lines(chunks: Iterable[str]) -> Iterator[str]:
    """The `splitlines()` of the text that `chunks` make up, a chunk at a
    time, so that the lines of a trace file read in chunks are never all
    held at once. A "\n" is a line boundary wherever the text was cut, so
    each chunk is split up to its last one and the rest is carried into
    the next."""
    carry = ""
    for chunk in chunks:
        cut = chunk.rfind("\n") + 1
        if cut:
            yield from (carry + chunk[:cut]).splitlines()
            carry = chunk[cut:]
        else:
            carry += chunk
    yield from carry.splitlines()


def parse_trace(text: str) -> list[dict]:
    return list(iter_trace((text,)))


def _genesis_blocks(header: dict) -> dict[str, dict]:
    """Each chain's genesis block, as the header describes it, by the
    header's key for the chain."""
    return {chain_key: {
        "chain": int(chain_key),
        "height": 0,
        "hash": info["hash"],
        "parent": GENESIS_PARENT.hex(),
        "events": [],
        "txs": [],
        "accounting": info.get("accounting", {}),
    } for chain_key, info in header.get("genesis", {}).items()}


def _walk(blocks: dict[str, tuple], tips: dict[str, str]
          ) -> tuple[dict[int, list[str]], list[dict]]:
    """Follow each chain from its final canonical tip down to genesis.

    `blocks` holds each recorded block's parent hash and height, first
    and second, by hash; `tips` each chain's final tip, by the key of its
    genesis or canonical section. Two keys that name one chain ("0" and
    "00") leave no last write between them, so they raise ValueError: the
    trace is malformed. Returns each chain's block hashes from genesis up,
    and a block_linkage violation for each chain whose walk reaches a hash
    no record holds, or a parent not recorded exactly one height below its
    child. Each step goes one height down, so no walk can run in a cycle
    and none takes more steps than there are blocks."""
    violations: list[dict] = []
    chains: dict[int, list[str]] = {}
    for chain_id, tip in sorted((int(key), tip) for key, tip in tips.items()):
        if chain_id in chains:
            raise ValueError(f"two section keys name chain {chain_id}")
        hashes = []
        cursor = tip
        while True:
            if cursor not in blocks:
                fault = f"block {cursor} referenced but never recorded"
            elif hashes and blocks[cursor][1] != blocks[hashes[-1]][1] - 1:
                fault = (f"block {hashes[-1]} at height {blocks[hashes[-1]][1]} "
                         f"has parent {cursor} at height {blocks[cursor][1]}")
            else:
                fault = None
            if fault:
                violations.append({"invariant": "block_linkage",
                                   "detail": f"chain {chain_id}: {fault}"})
                break
            hashes.append(cursor)
            if blocks[cursor][1] == 0:
                break
            cursor = blocks[cursor][0]
        hashes.reverse()
        chains[chain_id] = hashes
    return chains, violations


def canonical_block_lists(records: Iterable[dict]
                          ) -> tuple[dict[int, list[dict]], list[dict]]:
    """Reconstruct each chain's final canonical block list from the trace."""
    blocks: dict[str, dict] = {}
    tips: dict[str, str] = {}
    for position, record in enumerate(records):
        recorded = record.get("blocks", [])
        if position == 0:
            genesis = _genesis_blocks(record)
            tips.update((key, block["hash"]) for key, block in genesis.items())
            recorded = [*genesis.values(), *recorded]
        blocks.update((block["hash"], block) for block in recorded)
        for chain_key, summary in record.get("canonical", {}).items():
            tips[chain_key] = summary["tip"]
    chains, violations = _walk(
        {block_hash: (block["parent"], block["height"])
         for block_hash, block in blocks.items()}, tips)
    return ({chain_id: [blocks[h] for h in hashes]
             for chain_id, hashes in chains.items()}, violations)


# the keys of the origin's and the destination's canonical sections
_ORIGIN_KEY, _DESTINATION_KEY = str(ORIGIN), str(DESTINATION)


class TraceFold:
    """The built-in global invariants, folded over trace records: `feed`
    each record in file order, then `finish` for the violations.

    Each record is checked as it arrives and then let go. Per block only
    its parent, height and executed swap ids are kept, in one tuple by
    hash, for the final walk down each chain's canonical branch, so memory
    grows with the number of blocks, not with the size of the records. The
    cyclic garbage collector stops tracking a tuple of strings and ints
    once it has seen it, so the fold adds almost nothing for it to
    traverse.

    `feed` reads blocks and canonical sections itself, on the hot path;
    each op's own rule is one method, which `_OP_RULES` picks by `op`. A
    new rule is one more method and one more list in the table.
    """

    def __init__(self) -> None:
        # hash -> (parent hash, height, ids of the swaps it executes)
        self._blocks: dict[str, tuple[str, int, tuple[str, ...]]] = {}
        # a genesis or canonical section's chain key -> the latest tip
        self._tips: dict[str, str] = {}
        # rule -> its violations so far, in report order; the genesis
        # blocks' conservation, "genesis", comes after every other block's
        self._violations: dict[str, list[dict]] = {rule: [] for rule in (
            "block_linkage conservation genesis tx_reference "
            "exactly_once backing status_machine assertion").split()}
        # swap id -> the status its transitions so far have left it in
        self._statuses: dict[str, str | None] = {}
        # step -> (kind, chain) of the tx each user or submitted round
        # record submitted; a receipt's reference must name one of its own
        # kind and chain
        self._submitted: dict[int, tuple[str, int]] = {}
        # backing: the latest accountings of the origin and the
        # destination, the last pair found clean, and each breach reported
        self._accountings = self._clean = ({}, {})
        self._breaches: set[tuple[str | None, str | None, str]] = set()
        self._started = False

    def feed(self, record: dict) -> None:
        """Fold one record, the header first, into every invariant."""
        if not self._started:
            self._started = True
            for chain_key, block in _genesis_blocks(record).items():
                _check_conservation(block, self._violations["genesis"])
                self._blocks[block["hash"]] = (block["parent"], 0, ())
                self._tips[chain_key] = block["hash"]
        get = record.get
        for block in get("blocks", ()):
            _check_conservation(block, self._violations["conservation"])
            submitted = self._submitted
            for receipt in block.get("txs", ()):
                tx = receipt["tx"]
                key = _REFERENCE_KEYS.get(tx["kind"])
                if key is not None and \
                        submitted.get(tx[key]) != (tx["kind"], block["chain"]):
                    self._violations["tx_reference"].append(
                        _reference_violation(block, tx, key))
            swap_ids = ()
            for event in block.get("events", ()):
                if event["kind"] in EXECUTION_EVENT_KINDS and event.get("swap_id"):
                    swap_ids += (event["swap_id"],)
            self._blocks[block["hash"]] = (block["parent"], block["height"], swap_ids)
        # an absent section reads as _EMPTY, never written to; a present
        # one of the wrong type fails here
        sections = get("canonical", _EMPTY)
        for chain_key, summary in sections.items():
            self._tips[chain_key] = summary["tip"]
        if sections is not _EMPTY:
            self._backing(sections, record)
        rule = _OP_RULES.get(get("op"))
        if rule is not None:
            rule(self, record)

    def finish(self) -> list[dict]:
        """The violations of the records fed so far, in report order:
        broken block linkage, per-block token conservation (the genesis
        blocks last), receipt references that name no earlier record
        submitting their tx, at-most-once execution per swap on the final
        canonical branches, backing at each canonical state, the status
        machine of controller transitions, and failed assertions."""
        table = self._violations
        canonical, table["block_linkage"] = _walk(self._blocks, self._tips)
        exec_counts = Counter(sid for hashes in canonical.values()
                              for h in hashes for sid in self._blocks[h][2])
        table["exactly_once"] = [{
            "invariant": "exactly_once",
            "detail": f"swap {sid} executed {count} times on the canonical branch"}
            for sid, count in sorted(exec_counts.items()) if count > 1]
        return [violation for rule in table.values() for violation in rule]

    def _backing(self, sections: dict, record: dict) -> None:
        """Backing, XCLAIM's issued <= locked: at each canonical state, a
        wrapped token's supply on the destination is at most the origin's
        locked amount of its original, 0 where the origin lists none.

        Every canonical section is read, for a tamper can change one
        without moving its tip. A pair of accountings equal to the last
        pair found clean is clean: a runner shares one dict per state, so
        that is mostly an identity test. A breach is reported once per
        origin tip, destination tip and symbol, for a trace's `end` record
        repeats the last sections, and the runner evaluates without it."""
        origin = sections.get(_ORIGIN_KEY)
        destination = sections.get(_DESTINATION_KEY)
        locked, issued = self._accountings = (
            self._accountings[0] if origin is None else origin["accounting"],
            self._accountings[1] if destination is None
            else destination["accounting"])
        if self._accountings == self._clean:
            return
        clean = True
        for symbol, acct in issued.items():
            if not symbol.startswith(WRAPPED_PREFIX):
                continue
            original = symbol[len(WRAPPED_PREFIX):]
            backed = locked[original]["locked"] if original in locked else 0
            if acct["supply"] <= backed:
                continue
            clean = False
            tips = (self._tips.get(_ORIGIN_KEY), self._tips.get(_DESTINATION_KEY))
            if (*tips, symbol) in self._breaches:
                continue
            self._breaches.add((*tips, symbol))
            at = f"step {record['step']}" if "step" in record else record["op"]
            self._violations["backing"].append({
                "invariant": "backing",
                "detail": f"{at}: {symbol} supply {acct['supply']} > locked "
                          f"{backed} of {original} at origin tip "
                          f"{str(tips[0])[:16]}, destination tip "
                          f"{str(tips[1])[:16]}"})
        if clean:
            self._clean = self._accountings

    def _tick(self, record: dict) -> None:
        """The status machine: each transition must start from the status
        the swap's earlier transitions left it in."""
        statuses = self._statuses
        status_next = _STATUS_NEXT.get
        for transition in record.get("transitions", ()):
            sid = transition["swap_id"]
            old, new = transition.get("from"), transition.get("to")
            current = statuses.get(sid)
            if old != current:
                fault = f"transition claims status {old}, view had {current}"
            elif transition.get("revert"):
                # Retractions undo observations lost to a reorg; a
                # finalized swap must never be retracted.
                if current == "finalized":
                    fault = "finalized status retracted"
                elif new is None:
                    statuses.pop(sid, None)
                    continue
                elif new == "registered":
                    statuses[sid] = new
                    continue
                else:
                    fault = f"revert to unexpected status {new}"
            elif status_next(current) == new:
                statuses[sid] = new
                continue
            else:
                fault = f"illegal transition {current} -> {new}"
            self._violations["status_machine"].append(
                {"invariant": "status_machine",
                 "detail": f"swap {sid}: {fault}"})

    def _submission(self, record: dict) -> None:
        """The kind and chain of the tx that a user record, or a relay
        round that submitted its reveal, sends, by step."""
        if record["op"] in _USER_OPS:
            self._submitted[record["step"]] = (_USER_OPS[record["op"]],
                                               record["tx"]["chain"])
        elif record["report"]["outcome"] == "submitted":
            self._submitted[record["step"]] = ("send_data",
                                               record["report"]["target"])

    def _assert(self, record: dict) -> None:
        if not record.get("ok", False):
            self._violations["assertion"].append({
                "invariant": "assertion",
                "detail": f"step {record.get('step')}: "
                          f"{record.get('check')} failed: "
                          f"{record.get('detail', '')}",
            })


# an absent canonical section reads as this: never written to
_EMPTY: dict = {}
# each op's own rule
_OP_RULES = {"tick": TraceFold._tick, "assert": TraceFold._assert, **dict.fromkeys(
    ("user_lock", "user_burn", "relay_round"), TraceFold._submission)}


def evaluate_records(records: Iterable[dict]) -> list[dict]:
    """The violations of trace records, which may be any iterable, in one
    pass (see TraceFold); the runner calls it on its own records and
    `check_trace` on a file's, so the two can never disagree."""
    fold = TraceFold()
    for record in records:
        fold.feed(record)
    return fold.finish()


def _check_conservation(block: dict, violations: list[dict]) -> None:
    for symbol, acct in block.get("accounting", {}).items():
        if acct["supply"] != acct["locked"] + acct["balances_sum"]:
            violations.append({
                "invariant": "conservation",
                "detail": f"chain {block['chain']} block {block['hash'][:16]} "
                          f"height {block['height']}: {symbol} supply "
                          f"{acct['supply']} != locked {acct['locked']} + "
                          f"held {acct['balances_sum']}",
            })


def _reference_violation(block: dict, tx: dict, key: str) -> dict:
    return {
        "invariant": "tx_reference",
        "detail": f"chain {block['chain']} block {block['hash'][:16]} "
                  f"height {block['height']}: {tx['kind']} tx names {key} "
                  f"{tx[key]}, but no earlier record at that step submitted "
                  f"a {tx['kind']} tx to this chain",
    }


def check_trace_text(text: str) -> tuple[int, list[dict]]:
    """Read a trace and re-evaluate the invariants in one pass, each record
    checked as it is parsed; the text is already held whole, so its lines
    are split in one go. Returns (exit, violations)."""
    return _check((text,))


def check_trace(path: str | Path) -> tuple[int, list[dict]]:
    """`check_trace_text` on a UTF-8 trace file, read _CHUNK characters at
    a time."""
    with open(path, encoding="utf-8") as trace_file:
        return _check(iter(lambda: trace_file.read(_CHUNK), ""))


def _check(chunks: Iterable[str]) -> tuple[int, list[dict]]:
    """A text that is not UTF-8, or a record that parses but lacks a field
    or holds one of the wrong type, is a malformed trace too. Only here:
    the runner evaluates its own records, so a fault there still surfaces
    as itself."""
    try:
        violations = evaluate_records(iter_trace(chunks))
    except UnicodeDecodeError as exc:
        raise MalformedTrace(f"not UTF-8 text: {exc}") from None
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise MalformedTrace(
            f"a record lacks a field or has a wrong type: {exc!r}") from None
    return (1 if violations else 0), violations
