"""Trace records: one JSON object per line, byte-identical across replays.

A trace is self-contained enough to re-verify the global invariants without
re-running the scenario: block records carry events and per-token accounting,
tick records carry controller transitions, assert records carry their
verdicts. `evaluate_records` is the single implementation of the built-in
invariants; the runner calls it on its own records at the end of a run and
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
_CHUNK characters at a time), and `evaluate_records` folds it into every
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

from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import TextIO

from .chain import EXECUTION_KINDS, GENESIS_PARENT, REGISTRATION_KINDS
from .crypto import canonical_json, parse_json
from .errors import MalformedTrace

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


def _genesis_blocks(header: dict) -> list[dict]:
    """Each chain's genesis block, as the header describes it."""
    return [{
        "chain": int(chain_key),
        "height": 0,
        "hash": info["hash"],
        "parent": GENESIS_PARENT.hex(),
        "events": [],
        "txs": [],
        "accounting": info.get("accounting", {}),
    } for chain_key, info in header.get("genesis", {}).items()]


def _walk(parents: dict[str, str], heights: dict[str, int],
          tips: dict[int, str]) -> tuple[dict[int, list[str]], list[dict]]:
    """Follow each chain from its final canonical tip down to genesis.

    `parents` and `heights` hold each recorded block's parent hash and
    height by hash. Returns each chain's block hashes from genesis up, and
    a block_linkage violation for each chain whose walk reaches a hash no
    record holds, or a parent not recorded exactly one height below its
    child. Each step goes one height down, so no walk can run in a cycle
    and none takes more steps than there are blocks."""
    violations: list[dict] = []
    chains: dict[int, list[str]] = {}
    for chain_id, tip in sorted(tips.items()):
        hashes = []
        cursor = tip
        while True:
            if cursor not in heights:
                fault = f"block {cursor} referenced but never recorded"
            elif hashes and heights[cursor] != heights[hashes[-1]] - 1:
                fault = (f"block {hashes[-1]} at height {heights[hashes[-1]]} "
                         f"has parent {cursor} at height {heights[cursor]}")
            else:
                fault = None
            if fault:
                violations.append({"invariant": "block_linkage",
                                   "detail": f"chain {chain_id}: {fault}"})
                break
            hashes.append(cursor)
            if heights[cursor] == 0:
                break
            cursor = parents[cursor]
        hashes.reverse()
        chains[chain_id] = hashes
    return chains, violations


def canonical_block_lists(records: Iterable[dict]
                          ) -> tuple[dict[int, list[dict]], list[dict]]:
    """Reconstruct each chain's final canonical block list from the trace."""
    blocks: dict[str, dict] = {}
    tips: dict[int, str] = {}
    for position, record in enumerate(records):
        recorded = record.get("blocks", [])
        if position == 0:
            genesis = _genesis_blocks(record)
            tips.update((block["chain"], block["hash"]) for block in genesis)
            recorded = genesis + recorded
        blocks.update((block["hash"], block) for block in recorded)
        for chain_key, summary in record.get("canonical", {}).items():
            tips[int(chain_key)] = summary["tip"]
    chains, violations = _walk(
        {block_hash: block["parent"] for block_hash, block in blocks.items()},
        {block_hash: block["height"] for block_hash, block in blocks.items()},
        tips)
    return ({chain_id: [blocks[h] for h in hashes]
             for chain_id, hashes in chains.items()}, violations)


def evaluate_records(records: Iterable[dict]) -> list[dict]:
    """Re-evaluate the built-in global invariants over trace records.

    Reports, in order: broken block linkage, per-block token conservation
    (the genesis blocks last), receipt references that name no earlier
    record submitting their tx, at-most-once canonical execution per swap,
    the status-machine discipline of controller transitions, and recorded
    assertion verdicts.

    One pass over `records`, which may be any iterable: each record is
    checked as it arrives and then let go. Per block only its parent,
    height and executed swap ids are kept, for the final walk down each
    chain's canonical branch, so memory grows with the number of blocks,
    not with the size of the records. They are kept in flat maps by hash,
    not in an object per block, so that the check adds almost nothing for
    the cyclic garbage collector to traverse. A reference is checked
    against the kind and chain of each tx submitted so far, by step.
    """
    parents: dict[str, str] = {}
    heights: dict[str, int] = {}
    executed: dict[str, tuple[str, ...]] = {}
    tips: dict[int, str] = {}
    conservation: list[dict] = []
    genesis_conservation: list[dict] = []
    transitions: list[dict] = []
    assertions: list[dict] = []
    statuses: dict[str, str | None] = {}
    # step -> (kind, chain) of the tx each user or submitted round record
    # submitted; a receipt's reference must name one of its own kind and chain
    submitted: dict[int, tuple[str, int]] = {}
    references: list[dict] = []
    # a canonical section's chain key -> its chain id, each parsed once
    chain_ids: dict[str, int] = {}
    # an absent section reads as this: never written to
    empty: dict = {}
    reference_keys = _REFERENCE_KEYS.get
    status_next = _STATUS_NEXT.get
    for position, record in enumerate(records):
        if position == 0:
            for block in _genesis_blocks(record):
                _check_conservation(block, genesis_conservation)
                parents[block["hash"]] = block["parent"]
                heights[block["hash"]] = 0
                executed[block["hash"]] = ()
                tips[block["chain"]] = block["hash"]
        get = record.get
        for block in get("blocks", ()):
            _check_conservation(block, conservation)
            for receipt in block.get("txs", ()):
                tx = receipt["tx"]
                key = reference_keys(tx["kind"])
                if key is not None and \
                        submitted.get(tx[key]) != (tx["kind"], block["chain"]):
                    references.append(_reference_violation(block, tx, key))
            block_hash = block["hash"]
            parents[block_hash] = block["parent"]
            heights[block_hash] = block["height"]
            swap_ids = ()
            for event in block.get("events", ()):
                if event["kind"] in EXECUTION_EVENT_KINDS and event.get("swap_id"):
                    swap_ids += (event["swap_id"],)
            executed[block_hash] = swap_ids
        for chain_key, summary in get("canonical", empty).items():
            chain_id = chain_ids.get(chain_key)
            if chain_id is None:
                chain_id = chain_ids[chain_key] = int(chain_key)
            tips[chain_id] = summary["tip"]
        op = get("op")
        if op == "tick":
            # the status machine: each transition must start from the
            # status the swap's earlier transitions left it in
            for transition in get("transitions", ()):
                sid = transition["swap_id"]
                old, new = transition.get("from"), transition.get("to")
                current = statuses.get(sid)
                if old != current:
                    fault = (f"transition claims status {old}, "
                             f"view had {current}")
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
                transitions.append({"invariant": "status_machine",
                                    "detail": f"swap {sid}: {fault}"})
        elif op in _USER_OPS:
            submitted[record["step"]] = (_USER_OPS[op], record["tx"]["chain"])
        elif op == "relay_round" and record["report"]["outcome"] == "submitted":
            submitted[record["step"]] = ("send_data", record["report"]["target"])
        elif op == "assert" and not get("ok", False):
            assertions.append({
                "invariant": "assertion",
                "detail": f"step {get('step')}: "
                          f"{get('check')} failed: "
                          f"{get('detail', '')}",
            })

    canonical, violations = _walk(parents, heights, tips)
    violations += conservation + genesis_conservation + references
    # exactly-once execution on the final canonical branches
    exec_counts: dict[str, int] = {}
    for hashes in canonical.values():
        for block_hash in hashes:
            for sid in executed[block_hash]:
                exec_counts[sid] = exec_counts.get(sid, 0) + 1
    for sid, count in sorted(exec_counts.items()):
        if count > 1:
            violations.append({
                "invariant": "exactly_once",
                "detail": f"swap {sid} executed {count} times on the "
                          f"canonical branch",
            })
    return violations + transitions + assertions


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
