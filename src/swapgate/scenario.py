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
above the tip, or a fork or reorg deeper than the finality depth (the Chain's
own bound), which would break the finalization contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import trace as trace_mod
from .chain import EXECUTION_KINDS, Chain, EventKind
from .controller import FinalityPolicy, StatusController
from .crypto import oracle_secret, sha256
from .errors import BeyondFinality, HeightBeyondTip, InvalidScenario
from .gateway import (DESTINATION, ORIGIN, BurnTx, GatewayConfig, LockTx,
                      build_chains)
from .ledger import AccountId, TokenId, wrapped_symbol
from .nebula import OracleRoster, default_threshold
from .oracles import Behavior, OracleIdentity, OracleNetwork, RoundReport

STEP_OPS = {"produce_block", "user_lock", "user_burn", "relay_round",
            "fork_at", "extend_branch", "tick", "assert"}

ASSERT_CHECKS = {"status", "port_status", "balance", "locked", "supply",
                 "backing", "ledgers_match_initial", "relay_outcome",
                 "no_forged_accepted", "exec_count"}


@dataclass
class ChainParams:
    relevance_window: int = 10
    confirmation_depth: int = 6
    finality_depth: int = 6
    recovery_timeout: int = 50

    @classmethod
    def from_json(cls, obj: dict) -> "ChainParams":
        return cls(**{f.name: obj[f.name] for f in fields(cls) if f.name in obj})

    def to_json(self) -> dict:
        return dict(vars(self))


@dataclass
class OracleConfig:
    count: int = 5
    threshold: int | None = None
    behaviors: list[str] = field(default_factory=list)

    @classmethod
    def from_json(cls, obj: dict) -> "OracleConfig":
        count = obj.get("count", 5)
        if not isinstance(count, int):
            raise InvalidScenario("oracles: count must be an integer")
        return cls(
            count=count,
            threshold=obj.get("threshold"),
            behaviors=list(_shaped(obj.get("behaviors", ["honest"] * count),
                                   list, "oracles: behaviors")),
        )

    def effective_threshold(self) -> int:
        return self.threshold if self.threshold is not None \
            else default_threshold(self.count)

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "threshold": self.effective_threshold(),
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
        chains = _shaped(obj.get("chains", [{}, {}]), list, "chains")
        scenario = cls(
            name=obj.get("name", "unnamed"),
            seed=obj.get("seed", 0),
            chains=[ChainParams.from_json(_shaped(c, dict, f"chain {i}"))
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
        try:
            obj = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidScenario(f"cannot load scenario: {exc}") from None
        if not isinstance(obj, dict):
            raise InvalidScenario("scenario file must contain a JSON object")
        return cls.from_json(obj)

    # --- validation ---------------------------------------------------------

    def validate(self) -> None:
        if not isinstance(self.seed, int):
            raise InvalidScenario("seed must be an integer")
        if len(self.chains) != 2:
            raise InvalidScenario("exactly two chains are required")
        for idx, params in enumerate(self.chains):
            for name, value in vars(params).items():
                if not isinstance(value, int) or value < 0:
                    raise InvalidScenario(
                        f"chain {idx}: {name} must be a non-negative integer")
            if params.finality_depth < 1:
                raise InvalidScenario(f"chain {idx}: finality depth must be >= 1")
            if params.recovery_timeout <= (params.confirmation_depth
                                           + params.finality_depth):
                raise InvalidScenario(
                    f"chain {idx}: recovery timeout must exceed "
                    f"confirmation depth + finality depth")

        cfg = self.oracles
        if cfg.count < 1:
            raise InvalidScenario("at least one oracle is required")
        if not isinstance(cfg.threshold, (int, type(None))):
            raise InvalidScenario("oracles: threshold must be an integer")
        if len(cfg.behaviors) != cfg.count:
            raise InvalidScenario("one behavior per oracle is required")
        valid_behaviors = {b.value for b in Behavior}
        for b in cfg.behaviors:
            if not isinstance(b, str) or b not in valid_behaviors:
                raise InvalidScenario(f"unknown oracle behavior {b!r}")
        threshold = cfg.effective_threshold()
        if not 1 <= threshold <= cfg.count:
            raise InvalidScenario(
                f"threshold {threshold} out of range for {cfg.count} oracles")

        if not self.tokens:
            raise InvalidScenario("at least one token is required")
        seen_tokens: set[str] = set()
        for symbol in self.tokens:
            if not isinstance(symbol, str) or not 1 <= len(symbol) <= 32:
                raise InvalidScenario(f"bad token symbol {symbol!r}")
            if symbol.startswith("sw"):
                raise InvalidScenario(
                    f"original token {symbol!r} may not use the wrapped prefix")
            if symbol in seen_tokens:
                raise InvalidScenario(f"duplicate token {symbol!r}")
            seen_tokens.add(symbol)

        for balance in self.balances:
            _shaped(balance, dict, "each balance")
            if balance.get("token") not in seen_tokens:
                raise InvalidScenario(
                    f"balance references unknown token {balance.get('token')!r}")
            if not isinstance(balance.get("amount"), int) or balance["amount"] <= 0:
                raise InvalidScenario("initial balances must be positive integers")
            resolve_address(balance.get("account"))

        self._validate_timeline(seen_tokens)

    def _validate_timeline(self, tokens: set[str]) -> None:
        branches: dict[int, set[str]] = {ORIGIN: {"main"}, DESTINATION: {"main"}}
        user_steps = 0
        relay_steps = 0
        for idx, step in enumerate(self.timeline):
            where = f"timeline step {idx}"
            try:
                op = step.get("op")
            except AttributeError:      # not a JSON object; costs nothing if it is
                raise InvalidScenario(f"{where} must be a JSON object") from None
            if op not in STEP_OPS:
                raise InvalidScenario(f"{where}: unknown op {op!r}")
            if op in ("produce_block", "fork_at", "extend_branch"):
                chain = step.get("chain")
                if chain not in (ORIGIN, DESTINATION):
                    raise InvalidScenario(f"{where}: bad chain {chain!r}")
            if op == "produce_block":
                count = step.get("count", 1)
                if not isinstance(count, int) or count < 1:
                    raise InvalidScenario(f"{where}: count must be >= 1")
                branch = step.get("branch")
                if branch is not None and branch not in branches[step["chain"]]:
                    raise InvalidScenario(f"{where}: unknown branch {branch!r}")
            elif op == "fork_at":
                name = step.get("name")
                if not name or not isinstance(name, str) or name == "main":
                    raise InvalidScenario(f"{where}: fork needs a fresh branch name")
                if name in branches[step["chain"]]:
                    raise InvalidScenario(f"{where}: branch {name!r} already exists")
                if not isinstance(step.get("height"), int) or step["height"] < 0:
                    raise InvalidScenario(f"{where}: fork height must be >= 0")
                branches[step["chain"]].add(name)
            elif op == "extend_branch":
                if step.get("branch") not in branches[step["chain"]]:
                    raise InvalidScenario(
                        f"{where}: unknown branch {step.get('branch')!r}")
                count = step.get("count")
                if not isinstance(count, int) or count < 1:
                    raise InvalidScenario(f"{where}: count must be >= 1")
            elif op == "user_lock":
                if step.get("token") not in tokens:
                    raise InvalidScenario(
                        f"{where}: unknown token {step.get('token')!r}")
                if not isinstance(step.get("amount"), int):
                    raise InvalidScenario(f"{where}: amount must be an integer")
                resolve_address(step.get("sender"))
                resolve_address(step.get("receiver"))
                user_steps += 1
            elif op == "user_burn":
                symbol = step.get("token")
                if not isinstance(symbol, str) or not symbol.startswith("sw"):
                    raise InvalidScenario(
                        f"{where}: burn needs a wrapped token symbol")
                if not isinstance(step.get("amount"), int):
                    raise InvalidScenario(f"{where}: amount must be an integer")
                resolve_address(step.get("holder"))
                resolve_address(step.get("receiver"))
                user_steps += 1
            elif op == "relay_round":
                source, target = step.get("source"), step.get("target")
                if source not in (ORIGIN, DESTINATION) or \
                        target not in (ORIGIN, DESTINATION) or source == target:
                    raise InvalidScenario(f"{where}: bad relay direction")
                relay_steps += 1
            elif op == "assert":
                self._validate_assert(step, idx, tokens, user_steps, relay_steps)

    def _validate_assert(self, step: dict, idx: int, tokens: set[str],
                         user_steps: int, relay_steps: int) -> None:
        where = f"timeline step {idx}"
        check = step.get("check")
        if check not in ASSERT_CHECKS:
            raise InvalidScenario(f"{where}: unknown check {check!r}")
        if check in ("status", "port_status", "exec_count"):
            swap = step.get("swap")
            if not isinstance(swap, int) or not 0 <= swap < user_steps:
                raise InvalidScenario(
                    f"{where}: swap index {swap!r} does not reference an "
                    f"earlier user step")
        if check == "relay_outcome":
            rnd = step.get("round")
            if not isinstance(rnd, int) or not 0 <= rnd < relay_steps:
                raise InvalidScenario(
                    f"{where}: round index {rnd!r} does not reference an "
                    f"earlier relay step")
        if check == "balance":
            resolve_address(step.get("account"))

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


def _shaped(value, kind: type, what: str):
    """`value`, if it is a JSON list or object as `kind` says; a malformed
    section is an invalid scenario, not a crash further on."""
    if not isinstance(value, kind):
        name = "list" if kind is list else "object"
        raise InvalidScenario(f"{what} must be a JSON {name}")
    return value


def resolve_address(spec) -> bytes:
    """An account is either 40 hex chars or an alias hashed to an address."""
    if not isinstance(spec, str) or not spec:
        raise InvalidScenario(f"bad account spec {spec!r}")
    if len(spec) == 40:
        try:
            return bytes.fromhex(spec)
        except ValueError:
            pass
    return sha256(b"addr:" + spec.encode("utf-8"))[:20]


@dataclass
class RunResult:
    exit_code: int
    records: list[dict]
    violations: list[dict] = field(default_factory=list)
    error: str | None = None
    chains: dict[int, Chain] | None = None
    controller: StatusController | None = None
    network: OracleNetwork | None = None
    reports: list[RoundReport] = field(default_factory=list)
    swap_ids: list[bytes | None] = field(default_factory=list)

    def trace_lines(self) -> list[str]:
        return trace_mod.records_to_lines(self.records)


class Runner:
    """Executes one scenario deterministically."""

    def __init__(self, scenario: Scenario, seed: int | None = None):
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed

        cfg = scenario.oracles
        params = dict(enumerate(scenario.chains))   # chain id -> ChainParams
        secrets = [oracle_secret(i, self.seed) for i in range(cfg.count)]
        scheme_keys = tuple(secrets)  # MAC scheme: verification key == secret
        roster = OracleRoster(keys=scheme_keys,
                              threshold=cfg.effective_threshold())
        self.network = OracleNetwork(
            oracles=[OracleIdentity(i, secrets[i], Behavior(cfg.behaviors[i]))
                     for i in range(cfg.count)],
            roster=roster,
            confirmation_depth={cid: p.confirmation_depth
                                for cid, p in params.items()},
        )

        tokens = [TokenId(symbol, ORIGIN) for symbol in scenario.tokens]
        initial = [
            (TokenId(b["token"], ORIGIN),
             AccountId(ORIGIN, resolve_address(b["account"])),
             b["amount"])
            for b in scenario.balances
        ]
        gateway_cfg = GatewayConfig(
            roster=roster,
            relevance_window={cid: p.relevance_window
                              for cid, p in params.items()},
            finality_depth={cid: p.finality_depth for cid, p in params.items()},
        )
        self.chains = build_chains(gateway_cfg, tokens, initial)
        self.controller = StatusController({
            cid: FinalityPolicy(p.finality_depth, p.recovery_timeout)
            for cid, p in params.items()})

        self.records: list[dict] = []
        self.reports: list[RoundReport] = []
        self.swap_ids: list[bytes | None] = []
        self._tx_handles: dict[int, int] = {}  # id(tx) -> user step handle
        self._initial_ledgers = {
            cid: chain.canonical_state.ledger.summary()
            for cid, chain in self.chains.items()
        }

    # --- trace helpers -------------------------------------------------------

    def _canonical_summary(self) -> dict:
        out = {}
        for cid, chain in sorted(self.chains.items()):
            tip = chain.canonical_tip
            out[str(cid)] = {
                "tip": tip.block_hash.hex(),
                "height": tip.height,
                "branch": tip.branch,
                "accounting": chain.canonical_state.ledger.accounting(),
            }
        return out

    def _block_json(self, chain: Chain, ref) -> dict:
        block = chain.blocks[ref.block_hash]
        out = block.to_json()
        out["accounting"] = chain.states[ref.block_hash].ledger.accounting()
        return out

    def _header_record(self) -> dict:
        genesis = {}
        for cid, chain in sorted(self.chains.items()):
            g = chain.canonical_chain()[0]
            genesis[str(cid)] = {
                "hash": g.ref.block_hash.hex(),
                "accounting": chain.states[g.ref.block_hash].ledger.accounting(),
            }
        return {
            "op": "header",
            "name": self.scenario.name,
            "seed": self.seed,
            "chains": [c.to_json() for c in self.scenario.chains],
            "oracles": self.scenario.oracles.to_json(),
            "genesis": genesis,
        }

    def _resolve_new_swaps(self, chain: Chain, ref) -> None:
        block = chain.blocks[ref.block_hash]
        for receipt in block.receipts:
            handle = self._tx_handles.get(id(receipt.tx))
            if handle is not None and receipt.status == "ok":
                self.swap_ids[handle] = bytes.fromhex(receipt.extra["swap_id"])

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
        try:
            self.records.append(self._header_record())
            for step_index, step in enumerate(self.scenario.timeline):
                self._execute_step(step_index, step)
        except (InvalidScenario, HeightBeyondTip, BeyondFinality) as exc:
            return RunResult(exit_code=2, records=self.records, error=str(exc),
                             chains=self.chains, controller=self.controller,
                             network=self.network, reports=self.reports,
                             swap_ids=self.swap_ids)

        violations = trace_mod.evaluate_records(self.records)
        exit_code = 1 if violations else 0
        self.records.append({
            "op": "end",
            "exit": exit_code,
            "violations": violations,
            "canonical": self._canonical_summary(),
        })
        return RunResult(exit_code=exit_code, records=self.records,
                         violations=violations, chains=self.chains,
                         controller=self.controller, network=self.network,
                         reports=self.reports, swap_ids=self.swap_ids)

    def _produce(self, op: str, index: int, chain: Chain, branch: str,
                 count: int) -> None:
        blocks = []
        reorg = None
        for _ in range(count):
            ref = chain.produce_block(branch)
            reorg = self._reorg_record(chain) or reorg
            self._resolve_new_swaps(chain, ref)
            blocks.append(self._block_json(chain, ref))
        self.records.append({
            "op": op, "step": index, "chain": chain.chain_id,
            "branch": branch, "blocks": blocks, "reorg": reorg,
            "canonical": self._canonical_summary(),
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
        elif op == "user_lock":
            tx = LockTx(
                chain=ORIGIN,
                sender=AccountId(ORIGIN, resolve_address(step["sender"])),
                symbol=step["token"],
                amount=step["amount"],
                receiver=AccountId(DESTINATION, resolve_address(step["receiver"])),
            )
            self.chains[ORIGIN].submit(tx)
            self.swap_ids.append(None)
            self._tx_handles[id(tx)] = len(self.swap_ids) - 1
            self.records.append({"op": op, "step": index, "tx": tx.describe()})
        elif op == "user_burn":
            tx = BurnTx(
                chain=DESTINATION,
                holder=AccountId(DESTINATION, resolve_address(step["holder"])),
                symbol=step["token"],
                amount=step["amount"],
                receiver=AccountId(ORIGIN, resolve_address(step["receiver"])),
            )
            self.chains[DESTINATION].submit(tx)
            self.swap_ids.append(None)
            self._tx_handles[id(tx)] = len(self.swap_ids) - 1
            self.records.append({"op": op, "step": index, "tx": tx.describe()})
        elif op == "relay_round":
            report = self.network.relay_round(
                self.chains[step["source"]], self.chains[step["target"]])
            self.reports.append(report)
            self.records.append({
                "op": op, "step": index, "report": report.to_json(),
            })
        elif op == "tick":
            result = self.controller.tick(self.chains)
            for swap_id in result.requeue:
                self.network.request_reattestation(swap_id)
            self.records.append({
                "op": op, "step": index,
                "transitions": result.transitions,
                "stuck": result.stuck,
            })
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

    def _swap_id_for(self, index: int) -> bytes | None:
        if 0 <= index < len(self.swap_ids):
            return self.swap_ids[index]
        return None

    def _evaluate_assert(self, step: dict) -> tuple[bool, str]:
        check = step["check"]
        if check == "status":
            swap_id = self._swap_id_for(step["swap"])
            if swap_id is None:
                return step["expect"] == "unknown", "swap not yet registered"
            status = self.controller.status_of(swap_id)
            actual = status.label if status else "unknown"
            return actual == step["expect"], f"controller status {actual}"
        if check == "port_status":
            swap_id = self._swap_id_for(step["swap"])
            if swap_id is None:
                return step["expect"] == "unknown", "swap not yet registered"
            state = self.chains[step["chain"]].canonical_state
            port = state.lu_port or state.ib_port
            record = port.record(swap_id) if port else None
            actual = record.status.label if record else "unknown"
            return actual == step["expect"], f"port status {actual}"
        if check == "balance":
            state = self.chains[step["chain"]].canonical_state
            token = state.tokens.get(step["token"])
            if token is None:
                actual = 0
            else:
                account = AccountId(step["chain"], resolve_address(step["account"]))
                actual = state.ledger.balance(token, account)
            return actual == step["expect"], f"balance {actual}"
        if check == "locked":
            ledger = self.chains[step["chain"]].canonical_state.ledger
            actual = ledger.locked.get(step["token"], 0)
            return actual == step["expect"], f"locked {actual}"
        if check == "supply":
            ledger = self.chains[step["chain"]].canonical_state.ledger
            actual = ledger.supply.get(step["token"], 0)
            return actual == step["expect"], f"supply {actual}"
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
                if chain.canonical_state.ledger.summary() != self._initial_ledgers[cid]:
                    return False, f"chain {cid} ledger differs from initial state"
            return True, "ledgers identical to initial state"
        if check == "relay_outcome":
            report = self.reports[step["round"]]
            return report.outcome == step["expect"], f"outcome {report.outcome}"
        if check == "no_forged_accepted":
            forged = {
                (r.chosen_hash, r.declared_height, r.target)
                for r in self.reports
                if r.outcome == "submitted" and r.forged_chosen
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
            swap_id = self._swap_id_for(step["swap"])
            if swap_id is None:
                return step["expect"] == 0, "swap not yet registered"
            count = sum(1 for chain in self.chains.values()
                        for event in chain.swap_events(swap_id)
                        if event.kind in EXECUTION_KINDS)
            return count == step["expect"], f"{count} canonical executions"
        raise InvalidScenario(f"unknown check {check!r}")


def run_scenario(scenario: Scenario, seed: int | None = None) -> RunResult:
    return Runner(scenario, seed=seed).run()
