"""Scenario files, validation, and the deterministic runner.

A scenario is a JSON document: per-chain parameters, an oracle roster with
behavior profiles, initial token balances, and a timeline of steps. The
runner executes the timeline sequentially, appends one trace record per
step, and finishes by re-evaluating the built-in global invariants over its
own trace. Nothing in a run consumes randomness, so a (scenario, seed) pair
always produces a byte-identical trace; the seed only diversifies the
oracle key material.

Exit codes: 0 all assertions and invariants hold, 1 something failed,
2 the scenario itself is invalid, including a step its Chain refuses: a fork
outside the canonical chain's heights, or a fork or block that would meet
the canonical chain below its final height (the tip minus the finality
depth), which would break the finalization contract.

A run pauses CPython's cyclic garbage collector for its length (see
Runner.run). That is safe because a run builds only trees, which reference
counting frees: tests/test_run_collector.py pins it.
"""

from __future__ import annotations

import gc
import json
import string
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import trace as trace_mod
from .chain import (EXECUTION_KINDS, REGISTRATION_KINDS, Block, BlockRef,
                    Chain, EventKind)
from .controller import StatusController
from .crypto import oracle_secret, sha256
from .errors import BeyondFinality, HeightBeyondTip, InvalidScenario
from .gateway import BurnTx, LockTx, build_chains
from .ledger import (ADDRESS_LEN, WRAPPED_PREFIX, AccountId, TokenId,
                     account_id, wrapped_symbol)
from .nebula import OracleRoster, default_threshold
from .oracles import Behavior, OracleIdentity, OracleNetwork
from .ports import DESTINATION, ORIGIN

# The keys each timeline op may carry; an assert step's keys depend on its
# check (ASSERT_KEYS).
STEP_KEYS: dict[str, set[str]] = {
    "produce_block": {"op", "chain", "branch", "count"},
    "extend_branch": {"op", "chain", "branch", "count"},
    "fork_at": {"op", "chain", "height", "name"},
    "user_lock": {"op", "sender", "token", "amount", "receiver"},
    "user_burn": {"op", "holder", "token", "amount", "receiver"},
    "relay_round": {"op", "source", "target"},
    "tick": {"op"},
    "assert": {"op", "check"},
}

# The fields each assert check reads, with their JSON types. A swap or round
# is the index of an earlier user or relay step; backing may also name a
# relation, "geq" (the default) or "eq".
ASSERT_CHECKS: dict[str, dict[str, type]] = {
    "status": {"swap": int, "expect": str},
    "port_status": {"swap": int, "chain": int, "expect": str},
    "balance": {"chain": int, "token": str, "account": str, "expect": int},
    "locked": {"chain": int, "token": str, "expect": int},
    "supply": {"chain": int, "token": str, "expect": int},
    "backing": {"token": str},
    "ledgers_match_initial": {},
    "relay_outcome": {"round": int, "expect": str},
    "no_forged_accepted": {},
    "exec_count": {"swap": int, "expect": int},
}
ASSERT_KEYS = {check: STEP_KEYS["assert"] | needs.keys()
               for check, needs in ASSERT_CHECKS.items()}
ASSERT_KEYS["backing"].add("relation")

# The range of each count that a run loops over or allocates by, and the
# reason for its upper bound, which the message names.
ORACLE_COUNT = (1, 64, "a relay round signs and verifies once per oracle")
STEP_BLOCKS = (1, 1000, "one trace record holds every block of its step")


@dataclass
class ChainParams:
    relevance_window: int = 10
    confirmation_depth: int = 6
    finality_depth: int = 6
    recovery_timeout: int = 50

    @classmethod
    def from_json(cls, obj: dict, what: str) -> "ChainParams":
        _known_keys(obj, SECTION_KEYS[cls], what)
        return cls(**obj)

    def to_json(self) -> dict:
        return dict(vars(self))


@dataclass
class OracleConfig:
    count: int
    threshold: int
    behaviors: list[str]

    @classmethod
    def from_json(cls, obj: dict) -> "OracleConfig":
        _known_keys(obj, SECTION_KEYS[cls], "oracles")
        count = _int(obj.get("count", 5), "oracles: count", *ORACLE_COUNT)
        # the default roster is built only once its count is bounded
        behaviors = obj["behaviors"] if "behaviors" in obj else ["honest"] * count
        return cls(
            count=count,
            threshold=_int(obj.get("threshold", default_threshold(count)),
                           "oracles: threshold"),
            behaviors=list(_shaped(behaviors, list, "oracles: behaviors")),
        )

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "threshold": self.threshold,
            "behaviors": list(self.behaviors),
        }


@dataclass
class Scenario:
    name: str
    seed: int
    chains: list[ChainParams]
    oracles: OracleConfig
    tokens: list[str]
    balances: list[dict]
    timeline: list[dict]

    @classmethod
    def from_json(cls, obj: dict) -> "Scenario":
        _known_keys(obj, SECTION_KEYS[cls], "scenario")
        chains = _shaped(obj.get("chains", [{}, {}]), list, "chains")
        scenario = cls(
            name=obj.get("name", "unnamed"),
            seed=obj.get("seed", 0),
            chains=[ChainParams.from_json(_shaped(c, dict, f"chain {i}"),
                                          f"chain {i}")
                    for i, c in enumerate(chains)],
            oracles=OracleConfig.from_json(
                _shaped(obj.get("oracles", {}), dict, "oracles")),
            tokens=list(_shaped(obj.get("tokens", []), list, "tokens")),
            balances=list(_shaped(obj.get("balances", []), list, "balances")),
            timeline=list(_shaped(obj.get("timeline", []), list, "timeline")),
        )
        scenario.validate()
        return scenario

    @classmethod
    def load(cls, path: str | Path) -> "Scenario":
        """Read a scenario file; `path` may also be a package resource
        (importlib.resources), as a bundled scenario is."""
        source = Path(path) if isinstance(path, str) else path
        try:
            obj = json.loads(source.read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:
            # unreadable, not UTF-8, not JSON, an int too long to convert
            # or nesting too deep
            raise InvalidScenario(f"cannot load scenario: {exc}") from None
        if not isinstance(obj, dict):
            raise InvalidScenario("scenario file must contain a JSON object")
        return cls.from_json(obj)

    # --- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Check every field the runner reads, so that a run never meets a
        value of the wrong type or range."""
        if not isinstance(self.name, str):
            raise InvalidScenario("name must be a string")
        _int(self.seed, "seed")
        if len(self.chains) != 2:
            raise InvalidScenario("exactly two chains are required")
        for idx, params in enumerate(self.chains):
            for name, value in vars(params).items():
                _int(value, f"chain {idx}: {name}", 0)
            if params.finality_depth < 1:
                raise InvalidScenario(f"chain {idx}: finality depth must be >= 1")
            if params.relevance_window <= params.finality_depth:
                # a relay declares the tip minus the finality depth
                raise InvalidScenario(
                    f"chain {idx}: relevance window must exceed finality depth")
            if params.recovery_timeout <= (params.confirmation_depth
                                           + params.finality_depth):
                raise InvalidScenario(
                    f"chain {idx}: recovery timeout must exceed "
                    f"confirmation depth + finality depth")

        cfg = self.oracles
        if len(cfg.behaviors) != cfg.count:
            raise InvalidScenario("one behavior per oracle is required")
        valid_behaviors = {b.value for b in Behavior}
        for b in cfg.behaviors:
            _member(b, valid_behaviors, "unknown oracle behavior")
        if not 1 <= cfg.threshold <= cfg.count:
            raise InvalidScenario(
                f"threshold {cfg.threshold} out of range for {cfg.count} oracles")

        if not self.tokens:
            raise InvalidScenario("at least one token is required")
        seen_tokens: set[str] = set()
        for symbol in self.tokens:
            if not isinstance(symbol, str) or not 1 <= len(symbol) <= 32:
                raise InvalidScenario(f"bad token symbol {symbol!r}")
            if symbol.startswith(WRAPPED_PREFIX):
                raise InvalidScenario(
                    f"original token {symbol!r} may not use the wrapped prefix")
            if symbol in seen_tokens:
                raise InvalidScenario(f"duplicate token {symbol!r}")
            seen_tokens.add(symbol)

        for idx, balance in enumerate(self.balances):
            _shaped(balance, dict, "each balance")
            _known_keys(balance, {"account", "token", "amount"},
                        f"balance {idx}")
            _member(balance.get("token"), seen_tokens,
                    "balance references unknown token")
            _int(balance.get("amount"), "initial balance amount", 1)
            _account(balance.get("account"), "balance")

        self._validate_timeline(seen_tokens)

    def _validate_timeline(self, tokens: set[str]) -> None:
        branches: dict[int, set[str]] = {ORIGIN: {"main"}, DESTINATION: {"main"}}
        user_steps = 0
        relay_steps = 0
        for idx, step in enumerate(self.timeline):
            try:
                op = step.get("op")
            except AttributeError:      # not a JSON object; costs nothing if it is
                raise InvalidScenario(
                    f"timeline step {idx} must be a JSON object") from None
            # the checks of the frequent ops are inlined, and a message names
            # its step only once a check fails: both would otherwise cost
            # set-up time in proportion to the timeline
            try:
                allowed = STEP_KEYS.get(op) if type(op) is str else None
                if allowed is None:
                    raise InvalidScenario(f"unknown op {op!r}")
                if not allowed.issuperset(step) and op != "assert":
                    _known_keys(step, allowed, op)
                if op in ("produce_block", "fork_at", "extend_branch"):
                    known = branches[_chain(step.get("chain"))]
                if op == "produce_block":
                    if "count" in step:
                        _int(step["count"], "count", *STEP_BLOCKS)
                    if step.get("branch") is not None:
                        _member(step["branch"], known, "unknown branch")
                elif op == "fork_at":
                    name = step.get("name")
                    if not name or not isinstance(name, str) or name == "main":
                        raise InvalidScenario("fork needs a fresh branch name")
                    if name in known:
                        raise InvalidScenario(f"branch {name!r} already exists")
                    _int(step.get("height"), "fork height", 0)
                    known.add(name)
                elif op == "extend_branch":
                    _member(step.get("branch"), known, "unknown branch")
                    _int(step.get("count"), "count", *STEP_BLOCKS)
                elif op == "user_lock":
                    _member(step.get("token"), tokens, "unknown token")
                    _int(step.get("amount"), "amount")
                    _account(step.get("sender"), "sender")
                    _account(step.get("receiver"), "receiver")
                    user_steps += 1
                elif op == "user_burn":
                    symbol = step.get("token")
                    if not isinstance(symbol, str) or \
                            not symbol.startswith(WRAPPED_PREFIX):
                        raise InvalidScenario("burn needs a wrapped token symbol")
                    _int(step.get("amount"), "amount")
                    _account(step.get("holder"), "holder")
                    _account(step.get("receiver"), "receiver")
                    user_steps += 1
                elif op == "relay_round":
                    source, target = step.get("source"), step.get("target")
                    if type(source) is not int or type(target) is not int or \
                            {source, target} != {ORIGIN, DESTINATION}:
                        raise InvalidScenario("bad relay direction")
                    relay_steps += 1
                elif op == "assert":
                    _validate_assert(step, user_steps, relay_steps)
            except InvalidScenario as exc:
                raise InvalidScenario(f"timeline step {idx}: {exc}") from None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "chains": [c.to_json() for c in self.chains],
            "oracles": self.oracles.to_json(),
            "tokens": list(self.tokens),
            "balances": list(self.balances),
            "timeline": list(self.timeline),
        }


# The keys each scenario section may carry: its dataclass's fields.
SECTION_KEYS = {cls: {f.name for f in fields(cls)}
                for cls in (ChainParams, OracleConfig, Scenario)}


def _validate_assert(step: dict, user_steps: int, relay_steps: int) -> None:
    check = step.get("check")
    _member(check, ASSERT_CHECKS, "unknown check")
    needs = ASSERT_CHECKS[check]
    _known_keys(step, ASSERT_KEYS[check], check)
    for name, kind in needs.items():
        if type(step.get(name)) is not kind:
            raise InvalidScenario(
                f"{check} needs a JSON "
                f"{'integer' if kind is int else 'string'} {name}")
    if "chain" in needs:
        _chain(step["chain"])
    if "swap" in needs and not 0 <= step["swap"] < user_steps:
        raise InvalidScenario(
            f"swap index {step['swap']!r} does not reference an "
            f"earlier user step")
    if "round" in needs and not 0 <= step["round"] < relay_steps:
        raise InvalidScenario(
            f"round index {step['round']!r} does not reference an "
            f"earlier relay step")
    if "account" in needs:
        _account(step["account"], "account")
    if check == "backing" and step.get("relation", "geq") not in ("geq", "eq"):
        raise InvalidScenario("relation must be \"geq\" or \"eq\"")


def _known_keys(obj: dict, allowed: set[str], what: str) -> None:
    """Reject a key `allowed` does not name, so that a misspelt setting is
    reported instead of silently taking its default."""
    if not allowed.issuperset(obj):
        unknown = ", ".join(map(repr, sorted(obj.keys() - allowed)))
        raise InvalidScenario(f"{what}: unknown key {unknown}")


def _shaped(value, kind: type, what: str):
    """`value`, if it is a JSON list or object as `kind` says; a malformed
    section is an invalid scenario, not a crash further on."""
    if not isinstance(value, kind):
        name = "list" if kind is list else "object"
        raise InvalidScenario(f"{what} must be a JSON {name}")
    return value


def _int(value, what: str, low: int | None = None, high: int | None = None,
         why: str = "") -> int:
    """`value`, if it is a JSON integer of at least `low` and at most
    `high`, whose reason `why` gives; a JSON true or false is not one,
    though Python counts bool as int."""
    if type(value) is not int or (low is not None and value < low) or \
            (high is not None and value > high):
        bound = "" if low is None else f" >= {low}"
        if high is not None:
            bound = f" from {low} to {high}: {why}"
        raise InvalidScenario(f"{what} must be an integer{bound}")
    return value


def _member(value, allowed, what: str) -> None:
    """Require a string in `allowed`; the type is checked first, so an
    unhashable value is reported, not looked up."""
    if not isinstance(value, str) or value not in allowed:
        raise InvalidScenario(f"{what} {value!r}")


def _chain(value) -> int:
    if type(value) is not int or value not in (ORIGIN, DESTINATION):
        raise InvalidScenario(f"bad chain {value!r}")
    return value


def _account(spec, what: str) -> None:
    if not isinstance(spec, str) or not spec:
        raise InvalidScenario(f"{what}: bad account spec {spec!r}")


_HEX_DIGITS = frozenset(string.hexdigits)


def resolve_address(spec: str) -> bytes:
    """An account is either 40 hex digits or an alias hashed to an address;
    validation has checked that `spec` is a non-empty string. Any other
    40-character spec is an alias: bytes.fromhex would skip its spaces.
    A Runner memoizes it, so a run hashes each spec once (see
    Runner._account_id); it keeps no state itself."""
    if len(spec) == 2 * ADDRESS_LEN and _HEX_DIGITS.issuperset(spec):
        return bytes.fromhex(spec)
    return sha256(b"addr:" + spec.encode("utf-8"))[:ADDRESS_LEN]


@dataclass
class RunResult:
    """A run's outcome; the chains, controller, network, round reports and
    swap ids stay on the Runner that made it."""

    exit_code: int
    records: list[dict]
    violations: list[dict] = field(default_factory=list)
    error: str | None = None

    def trace_lines(self) -> list[str]:
        return trace_mod.records_to_lines(self.records)


class Runner:
    """Executes one scenario deterministically.

    A block's receipt of a lock, burn or reveal holds a reference to the
    record that submitted the tx (see swapgate.trace), built once, when
    the tx is submitted; a pulse's receipt holds its `describe()`.

    The trace records it builds are read-only: each JSON fragment of an
    immutable value is built once and shared by every record that holds
    it. Records share
    - a tx's `describe()`: the user record and the block digest;
    - an account's `to_json()`: each chain keeps one AccountId per
      address, which the runner and the ports' attested executions both
      take from it, so every tx and event of an account. The runner
      hashes each account spec to its address once per run and still
      takes the account from the chain's table;
    - a payload entry's `to_json()`: the round report and the reveal's
      digest;
    - a state's accounting, built once by the state
      (GatewayState.accounting): the records of every block that stores
      that state, the header's genesis and the canonical summaries;
    - a chain's canonical summary (tip, height, branch, accounting), kept
      per chain while its tip is unchanged;
    - a swap's id string (encoding.SwapId): its receipt, registration and
      execution events, round report entry and controller transitions;
    - a relay round's report, the one dict `relay_round` returns: its
      record and `self.reports`, which the relay asserts read;
    - a tick's `transitions` and `stuck` lists, the ones
      `StatusController.tick` returns: its record holds them, and the
      swaps the stuck entries name are the ones re-attested.
    Copy a record before changing it.

    What a run builds is shared but never cyclic: states, events and
    records are trees, so `run` pauses the cyclic collector, which would
    find nothing to free (see `run`).
    """

    def __init__(self, scenario: Scenario, seed: int | None = None):
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed

        cfg = scenario.oracles
        params = dict(enumerate(scenario.chains))   # chain id -> ChainParams
        secrets = [oracle_secret(i, self.seed) for i in range(cfg.count)]
        scheme_keys = tuple(secrets)  # MAC scheme: verification key == secret
        roster = OracleRoster(keys=scheme_keys, threshold=cfg.threshold)
        self.network = OracleNetwork(
            oracles=[OracleIdentity(i, secrets[i], Behavior(cfg.behaviors[i]))
                     for i in range(cfg.count)],
            roster=roster,
            confirmation_depth={cid: p.confirmation_depth
                                for cid, p in params.items()},
        )

        # account spec -> address, filled here for the balances and by
        # _account_id for the rest: a run hashes each spec once
        self._addresses = {spec: resolve_address(spec) for spec in
                           {b["account"] for b in scenario.balances}}
        tokens = [TokenId(symbol, ORIGIN) for symbol in scenario.tokens]
        initial = [
            (TokenId(b["token"], ORIGIN),
             AccountId(ORIGIN, self._addresses[b["account"]]),
             b["amount"])
            for b in scenario.balances
        ]
        self.chains = build_chains(
            roster,
            {cid: p.relevance_window for cid, p in params.items()},
            {cid: p.finality_depth for cid, p in params.items()},
            tokens, initial)
        # each chain with its key in a canonical section, in chain id order
        self._sections = [(str(cid), chain)
                          for cid, chain in sorted(self.chains.items())]
        self.controller = StatusController(
            {cid: p.recovery_timeout for cid, p in params.items()})

        self.records: list[dict] = []
        self.reports: list[dict] = []
        self.swap_ids: list[bytes | None] = []
        # id(tx) -> (what its receipt records, its index in swap_ids or
        # None), from submission to inclusion
        self._in_flight: dict[int, tuple[dict, int | None]] = {}
        # chain id -> its canonical tip and summary when last written, see
        # _summary
        self._last: dict[int, tuple[BlockRef, dict]] = {}

    def _account_id(self, chain_id: int, spec: str) -> AccountId:
        """The one AccountId of an account spec on a chain, from that
        chain's table: every tx and event of the account, the ports'
        attested executions included, shares its JSON dict. The spec is
        hashed to its address once per run, the first time it is seen;
        the account still comes from the chain's table, so the same spec
        on two chains gives two accounts with one address."""
        address = self._addresses.get(spec)
        if address is None:
            address = self._addresses[spec] = resolve_address(spec)
        return account_id(self.chains[chain_id].accounts, chain_id, address)

    # --- trace helpers -------------------------------------------------------

    def _canonical_json(self) -> dict:
        return {key: self._summary(chain) for key, chain in self._sections}

    def _summary(self, chain: Chain) -> dict:
        """The chain's canonical section: its tip, height, branch and the
        tip state's accounting. It is kept and shared by every record
        written while the tip is unchanged."""
        tip = chain.canonical_tip
        last = self._last.get(chain.chain_id)
        # the two fields that tell tips apart: a BlockRef's own == costs
        # twice as much, and each block step's canonical section pays it
        # once per chain
        if last is not None and last[0].block_hash == tip.block_hash \
                and last[0].branch == tip.branch:
            return last[1]
        summary = {
            "tip": tip.block_hash.hex(),
            "height": tip.height,
            "branch": tip.branch,
            "accounting": chain.canonical_state.accounting(),
        }
        self._last[chain.chain_id] = (tip, summary)
        return summary

    def _block_json(self, chain: Chain, block: Block) -> dict:
        """The block's record. A receipt records of its tx the reference
        built when the runner submitted it, or, for a pulse, its
        describe(). A tx is included once, so its in-flight entry goes
        then, and no id of a freed tx is kept; a user tx that registered
        its swap fills its swap_ids slot with the id the port stored."""
        txs = []
        if block.receipts:
            # the port's id by its kept hex string, which the receipt holds
            registered = {event.swap_id.hex(): event.swap_id
                          for event in block.events
                          if event.kind in REGISTRATION_KINDS}
        for receipt in block.receipts:
            ref, handle = self._in_flight.pop(id(receipt.tx), (None, None))
            txs.append(receipt.tx.describe() if ref is None else ref)
            if handle is not None and receipt.status == "ok":
                self.swap_ids[handle] = registered[receipt.extra["swap_id"]]
        out = block.to_json(txs)
        out["accounting"] = chain.states[block.ref.block_hash].accounting()
        return out

    def _header_record(self) -> dict:
        genesis = {}
        for key, chain in self._sections:
            # written before any block: the canonical tip is genesis
            summary = self._summary(chain)
            genesis[key] = {
                "hash": summary["tip"],
                "accounting": summary["accounting"],
            }
        return {
            "op": "header",
            "format": trace_mod.TRACE_FORMAT,
            "name": self.scenario.name,
            "seed": self.seed,
            "chains": [c.to_json() for c in self.scenario.chains],
            "oracles": self.scenario.oracles.to_json(),
            "genesis": genesis,
        }

    def _reorg_record(self, chain: Chain) -> dict | None:
        info = chain.last_reorg
        if info is None:
            return None
        return {
            "old_tip": info.old_tip.to_json(),
            "new_tip": info.new_tip.to_json(),
            "fork_height": info.fork_height,
            "abandoned_depth": info.abandoned_depth,
        }

    # --- step execution -----------------------------------------------------

    def run(self) -> RunResult:
        """Execute the timeline, evaluate the invariants over the trace and
        append the end record; exit 2 on a step the scenario or a chain
        refuses.

        The cyclic collector is paused for the run, and turned back on at
        the end, however the run ends, only if it was on at the start. A
        run makes no reference cycles: its states are plain dataclasses,
        its events immutable and its records JSON-shaped, all trees that
        reference counting frees as soon as they are dropped. A collection
        would only walk the run's young objects, about 50 times in a
        1,224-swap run, and find nothing; the first one after the run
        walks what the run leaves alive once. An exception caught here with
        `except ... as` would hold, through its traceback, the frame that
        holds it, but Python clears that name when its block ends; the
        result keeps only the message. tests/test_run_collector.py
        requires that a run leaves nothing for the collector, that a step
        runs with it paused and that a run gives it back as it found it.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            try:
                self.records.append(self._header_record())
                for step_index, step in enumerate(self.scenario.timeline):
                    self._execute_step(step_index, step)
            except (InvalidScenario, HeightBeyondTip, BeyondFinality) as exc:
                return RunResult(exit_code=2, records=self.records,
                                 error=str(exc))

            violations = trace_mod.evaluate_records(self.records)
            exit_code = 1 if violations else 0
            self.records.append({
                "op": "end",
                "exit": exit_code,
                "violations": violations,
                "canonical": self._canonical_json(),
            })
            return RunResult(exit_code=exit_code, records=self.records,
                             violations=violations)
        finally:
            if collecting:
                gc.enable()

    def _produce(self, op: str, index: int, chain: Chain, branch: str,
                 count: int) -> None:
        blocks = []
        reorg = None
        for _ in range(count):
            block = chain.blocks[chain.produce_block(branch).block_hash]
            reorg = self._reorg_record(chain) or reorg
            blocks.append(self._block_json(chain, block))
        self.records.append({
            "op": op, "step": index, "chain": chain.chain_id,
            "branch": branch, "blocks": blocks, "reorg": reorg,
            "canonical": self._canonical_json(),
        })

    def _execute_step(self, index: int, step: dict) -> None:
        op = step["op"]
        if op == "produce_block":
            chain = self.chains[step["chain"]]
            branch = step.get("branch") or chain.canonical_branch
            self._produce(op, index, chain, branch, step.get("count", 1))
        elif op == "extend_branch":
            chain = self.chains[step["chain"]]
            self._produce(op, index, chain, step["branch"], step["count"])
        elif op == "fork_at":
            chain = self.chains[step["chain"]]
            name = chain.fork_at(step["height"], step["name"])
            base = chain.branches[name]
            self.records.append({
                "op": op, "step": index, "chain": chain.chain_id,
                "name": name, "height": step["height"],
                "base": base.hex(),
            })
        elif op == "user_lock" or op == "user_burn":
            if op == "user_lock":
                tx = LockTx(
                    chain=ORIGIN,
                    sender=self._account_id(ORIGIN, step["sender"]),
                    symbol=step["token"],
                    amount=step["amount"],
                    receiver=self._account_id(DESTINATION, step["receiver"]),
                )
            else:
                tx = BurnTx(
                    chain=DESTINATION,
                    holder=self._account_id(DESTINATION, step["holder"]),
                    symbol=step["token"],
                    amount=step["amount"],
                    receiver=self._account_id(ORIGIN, step["receiver"]),
                )
            self.chains[tx.chain].submit(tx)
            described = tx.describe()
            # the swap's id is known once its block includes the tx
            self._in_flight[id(tx)] = (
                {"kind": described["kind"], "step": index}, len(self.swap_ids))
            self.swap_ids.append(None)
            self.records.append({"op": op, "step": index, "tx": described})
        elif op == "relay_round":
            target = self.chains[step["target"]]
            report = self.network.relay_round(self.chains[step["source"]],
                                              target)
            if report["outcome"] == "submitted":
                # the round submits its pulse, then its reveal
                reveal = target.pending[-1]
                self._in_flight[id(reveal)] = ({
                    "kind": "send_data", "round": index,
                    "submitter": reveal.submitter}, None)
            self.reports.append(report)
            self.records.append({"op": op, "step": index, "report": report})
        elif op == "tick":
            result = self.controller.tick(self.chains)
            for entry in result["stuck"]:
                self.network.request_reattestation(
                    bytes.fromhex(entry["swap_id"]))
            self.records.append({"op": op, "step": index, **result})
        elif op == "assert":
            ok, detail = self._evaluate_assert(step)
            args = {k: v for k, v in step.items() if k not in ("op", "check")}
            self.records.append({
                "op": op, "step": index, "check": step["check"],
                "args": args, "ok": ok, "detail": detail,
            })
        else:  # pragma: no cover - validation rejects unknown ops
            raise InvalidScenario(f"unknown op {op!r}")

    # --- assertion checks ------------------------------------------------------

    def _evaluate_assert(self, step: dict) -> tuple[bool, str]:
        check = step["check"]
        if check == "status":
            swap_id = self.swap_ids[step["swap"]]
            if swap_id is None:
                return step["expect"] == "unknown", "swap not yet registered"
            status = self.controller.status_of(swap_id)
            actual = status.label if status else "unknown"
            return actual == step["expect"], f"controller status {actual}"
        if check == "port_status":
            swap_id = self.swap_ids[step["swap"]]
            if swap_id is None:
                return step["expect"] == "unknown", "swap not yet registered"
            port = self.chains[step["chain"]].canonical_state.port
            status = port.swaps.get(swap_id)
            actual = status.label if status else "unknown"
            return actual == step["expect"], f"port status {actual}"
        if check == "balance":
            state = self.chains[step["chain"]].canonical_state
            token = state.tokens.get(step["token"])
            if token is None:
                actual = 0
            else:
                actual = state.ledger.balance(
                    token, self._account_id(step["chain"], step["account"]))
            return actual == step["expect"], f"balance {actual}"
        if check == "locked" or check == "supply":
            ledger = self.chains[step["chain"]].canonical_state.ledger
            actual = getattr(ledger, check).get(step["token"], 0)
            return actual == step["expect"], f"{check} {actual}"
        if check == "backing":
            symbol = step["token"]
            locked = self.chains[ORIGIN].canonical_state.ledger.locked.get(symbol, 0)
            supply = self.chains[DESTINATION].canonical_state.ledger.supply.get(
                wrapped_symbol(symbol), 0)
            relation = step.get("relation", "geq")
            ok = locked == supply if relation == "eq" else locked >= supply
            return ok, f"locked {locked} vs wrapped supply {supply}"
        if check == "ledgers_match_initial":
            for cid, chain in sorted(self.chains.items()):
                if chain.canonical_state.ledger != chain.genesis_state.ledger:
                    return False, f"chain {cid} ledger differs from initial state"
            return True, "ledgers identical to initial state"
        if check == "relay_outcome":
            outcome = self.reports[step["round"]]["outcome"]
            return outcome == step["expect"], f"outcome {outcome}"
        if check == "no_forged_accepted":
            forged = {
                (r["chosen_hash"], r["declared_height"], r["target"])
                for r in self.reports
                if r["outcome"] == "submitted" and r["forged_chosen"]
            }
            if forged:
                for cid, chain in sorted(self.chains.items()):
                    for event in chain.canonical_events():
                        if event.kind != EventKind.PULSE_ACCEPTED:
                            continue
                        key = (event.payload["data_hash"],
                               event.payload["declared_height"], cid)
                        if key in forged:
                            return False, (
                                f"forged pulse {event.payload['pulse_id']} "
                                f"accepted on chain {cid}")
            return True, "no forged pulse accepted"
        if check == "exec_count":
            swap_id = self.swap_ids[step["swap"]]
            if swap_id is None:
                return step["expect"] == 0, "swap not yet registered"
            count = sum(1 for chain in self.chains.values()
                        for event in chain.swap_events(swap_id)
                        if event.kind in EXECUTION_KINDS)
            return count == step["expect"], f"{count} canonical executions"
        raise InvalidScenario(f"unknown check {check!r}")
