"""The multi-pass trace evaluator, kept as the reference for the streaming
one in `swapgate.trace`.

This is the parser and evaluator as they were before checking became a
single pass: `parse_trace` builds the whole record list first, and
`evaluate_records` walks it five times (blocks, tips, conservation,
transitions, assertions). `tests/test_trace_check.py` requires the two to
return equal violation lists, order included. Do not optimise this file.

It reads only the trace format TRACE_FORMAT, in which a block's receipt of
a lock, burn or reveal names the earlier record that submitted the tx. One
more walk checks those references: for each one it searches all the
records before the block's, where the streaming check keeps a map by step.
Another checks backing after each record with a canonical section, where
the streaming check skips a pair of accountings it has found clean.
"""

from __future__ import annotations

import json

from swapgate.errors import MalformedTrace

EXECUTION_EVENT_KINDS = ("MintExecuted", "UnlockExecuted")

TRACE_FORMAT = 2

_STATUS_NEXT = {None: "registered", "registered": "processed",
                "processed": "finalized"}


def parse_trace(text: str) -> list[dict]:
    records: list[dict] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedTrace(f"line {lineno}: {exc}") from None
        if not isinstance(record, dict) or "op" not in record:
            raise MalformedTrace(f"line {lineno}: not a trace record")
        records.append(record)
    if not records:
        raise MalformedTrace("empty trace")
    if records[0].get("op") != "header":
        raise MalformedTrace("trace does not start with a header record")
    if records[0].get("format") != TRACE_FORMAT:
        raise MalformedTrace(
            f"trace format {records[0].get('format')!r} in the header, "
            f"expected {TRACE_FORMAT}")
    if records[-1].get("op") != "end":
        raise MalformedTrace("trace is truncated: no end record")
    return records


def collect_blocks(records: list[dict]) -> dict[str, dict]:
    """All block descriptions in the trace, keyed by hash, genesis included."""
    blocks: dict[str, dict] = {}
    header = records[0]
    for chain_key, info in header.get("genesis", {}).items():
        blocks[info["hash"]] = {
            "chain": int(chain_key),
            "height": 0,
            "hash": info["hash"],
            "parent": "00" * 32,
            "events": [],
            "txs": [],
            "accounting": info.get("accounting", {}),
        }
    for record in records:
        for block in record.get("blocks", []):
            blocks[block["hash"]] = block
    return blocks


def final_canonical_tips(records: list[dict]) -> dict[int, str]:
    tips: dict[int, str] = {}
    header = records[0]
    for chain_key, info in header.get("genesis", {}).items():
        tips[int(chain_key)] = info["hash"]
    for record in records:
        for chain_key, summary in record.get("canonical", {}).items():
            tips[int(chain_key)] = summary["tip"]
    return tips


def canonical_block_lists(records: list[dict]) -> tuple[dict[int, list[dict]], list[dict]]:
    """Reconstruct each chain's final canonical block list from the trace."""
    blocks = collect_blocks(records)
    tips = final_canonical_tips(records)
    violations: list[dict] = []
    chains: dict[int, list[dict]] = {}
    for chain_id, tip in sorted(tips.items()):
        sequence: list[dict] = []
        cursor = tip
        while True:
            block = blocks.get(cursor)
            if block is None:
                violations.append({
                    "invariant": "block_linkage",
                    "detail": f"chain {chain_id}: block {cursor} referenced "
                              f"but never recorded",
                })
                break
            # a parent must lie exactly one height below its child, which
            # also ends a walk that a cycle of parent links would repeat
            child = sequence[-1] if sequence else None
            if child is not None and block["height"] != child["height"] - 1:
                violations.append({
                    "invariant": "block_linkage",
                    "detail": f"chain {chain_id}: block {child['hash']} at "
                              f"height {child['height']} has parent "
                              f"{cursor} at height {block['height']}",
                })
                break
            sequence.append(block)
            if block["height"] == 0:
                break
            cursor = block["parent"]
        sequence.reverse()
        chains[chain_id] = sequence
    return chains, violations


def evaluate_records(records: list[dict]) -> list[dict]:
    """Re-evaluate the built-in global invariants over trace records.

    Checks, in order: per-block token conservation, receipt references,
    at-most-once canonical execution per swap, backing at each canonical
    state, the status-machine discipline of controller transitions, and
    recorded assertion verdicts.
    """
    violations: list[dict] = []
    canonical, linkage_violations = canonical_block_lists(records)
    violations.extend(linkage_violations)

    # conservation holds on every recorded block, canonical or not
    for record in records:
        for block in record.get("blocks", []):
            _check_conservation(block, violations)
    header = records[0]
    for chain_key, info in header.get("genesis", {}).items():
        _check_conservation({
            "chain": int(chain_key), "hash": info["hash"], "height": 0,
            "accounting": info.get("accounting", {}),
        }, violations)

    # every recorded block's receipts, in file order
    for position, record in enumerate(records):
        for block in record.get("blocks", []):
            for receipt in block.get("txs", []):
                _check_reference(block, receipt["tx"], records[:position],
                                 violations)

    # exactly-once execution on the final canonical branches
    exec_counts: dict[str, int] = {}
    for chain_blocks in canonical.values():
        for block in chain_blocks:
            for event in block.get("events", []):
                if event["kind"] in EXECUTION_EVENT_KINDS and event.get("swap_id"):
                    sid = event["swap_id"]
                    exec_counts[sid] = exec_counts.get(sid, 0) + 1
    for sid, count in sorted(exec_counts.items()):
        if count > 1:
            violations.append({
                "invariant": "exactly_once",
                "detail": f"swap {sid} executed {count} times on the "
                          f"canonical branch",
            })

    # backing at every canonical state
    _check_backing(records, violations)

    # controller status machine
    statuses: dict[str, str | None] = {}
    for record in records:
        if record.get("op") != "tick":
            continue
        for transition in record.get("transitions", []):
            _check_transition(transition, statuses, violations)

    # recorded assertion verdicts
    for record in records:
        if record.get("op") == "assert" and not record.get("ok", False):
            violations.append({
                "invariant": "assertion",
                "detail": f"step {record.get('step')}: "
                          f"{record.get('check')} failed: "
                          f"{record.get('detail', '')}",
            })
    return violations


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


def _check_backing(records: list[dict], violations: list[dict]) -> None:
    """After every record with a canonical section, each wrapped token's
    supply in the destination's latest section is at most the locked
    amount of its original in the origin's latest section (0 where that
    lists none). A breach is reported once per origin tip, destination tip
    and symbol, the tips being each chain's latest, or its genesis."""
    tips = {key: info["hash"]
            for key, info in records[0].get("genesis", {}).items()}
    latest: dict[str, dict] = {}
    reported: set[tuple] = set()
    for record in records:
        canonical = record.get("canonical", {})
        if not canonical:
            continue
        for key, summary in canonical.items():
            tips[key] = summary["tip"]
            latest[key] = summary
        locked = latest["0"]["accounting"] if "0" in latest else {}
        issued = latest["1"]["accounting"] if "1" in latest else {}
        for symbol, acct in issued.items():
            if not symbol.startswith("sw"):
                continue
            original = symbol[len("sw"):]
            backed = locked[original]["locked"] if original in locked else 0
            breach = (tips.get("0"), tips.get("1"), symbol)
            if acct["supply"] <= backed or breach in reported:
                continue
            reported.add(breach)
            at = f"step {record['step']}" if "step" in record else record["op"]
            violations.append({
                "invariant": "backing",
                "detail": f"{at}: {symbol} supply {acct['supply']} > locked "
                          f"{backed} of {original} at origin tip "
                          f"{str(breach[0])[:16]}, destination tip "
                          f"{str(breach[1])[:16]}",
            })


def _submits(record: dict, kind: str, chain: int) -> bool:
    """Whether `record` submitted a tx of `kind` to `chain`."""
    if kind == "send_data":
        return (record.get("op") == "relay_round"
                and record["report"]["outcome"] == "submitted"
                and record["report"]["target"] == chain)
    return (record.get("op") == "user_" + kind
            and record["tx"]["chain"] == chain)


def _check_reference(block: dict, tx: dict, earlier: list[dict],
                     violations: list[dict]) -> None:
    """A lock's or burn's reference names the step of an earlier user
    record of its kind, a reveal's the step of an earlier submitted relay
    round, each to the block's chain; a pulse names nothing."""
    if tx["kind"] in ("lock", "burn"):
        key = "step"
    elif tx["kind"] == "send_data":
        key = "round"
    else:
        return
    if not any(record.get("step") == tx[key]
               and _submits(record, tx["kind"], block["chain"])
               for record in earlier):
        violations.append({
            "invariant": "tx_reference",
            "detail": f"chain {block['chain']} block {block['hash'][:16]} "
                      f"height {block['height']}: {tx['kind']} tx names "
                      f"{key} {tx[key]}, but no earlier record at that step "
                      f"submitted a {tx['kind']} tx to this chain",
        })


def _check_transition(transition: dict, statuses: dict[str, str | None],
                      violations: list[dict]) -> None:
    sid = transition["swap_id"]
    old, new = transition.get("from"), transition.get("to")
    current = statuses.get(sid)
    if old != current:
        violations.append({
            "invariant": "status_machine",
            "detail": f"swap {sid}: transition claims status {old}, "
                      f"view had {current}",
        })
        return
    if transition.get("revert"):
        # Retractions undo observations lost to a reorg; a finalized swap
        # must never be retracted.
        if current == "finalized":
            violations.append({
                "invariant": "status_machine",
                "detail": f"swap {sid}: finalized status retracted",
            })
            return
        if new not in (None, "registered"):
            violations.append({
                "invariant": "status_machine",
                "detail": f"swap {sid}: revert to unexpected status {new}",
            })
            return
        if new is None:
            statuses.pop(sid, None)
        else:
            statuses[sid] = new
        return
    if _STATUS_NEXT.get(current) != new:
        violations.append({
            "invariant": "status_machine",
            "detail": f"swap {sid}: illegal transition {current} -> {new}",
        })
        return
    statuses[sid] = new
