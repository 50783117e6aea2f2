"""Seeded scenario generators owned by the benchmark.

Each generator returns one scenario as a JSON-ready dict. The seed varies
what a user would vary (senders, receivers, tokens, amounts, oracle key
material and the position of Byzantine oracles in the roster); the shape of
the timeline (batch sizes, block cadence, fork schedule) is fixed per
workload, so host time and the simulated metrics depend on the workload and
not on the seed. The generators deliberately do not share code with the
test suite, so that editing a test can never move a benchmark number.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

CONF, FIN, TIMEOUT, WINDOW = 2, 3, 12, 20
SENDERS = [f"sender{i}" for i in range(6)]
RECEIVERS = [f"receiver{i}" for i in range(8)]
LOCKS = [1, 2, 1, 2, 1]     # reorg_byzantine user locks per round, 7 every 5


def _scenario(name: str, seed: int, tokens: list[str], behaviors: list[str],
              timeline: list[dict]) -> dict:
    params = {"relevance_window": WINDOW, "confirmation_depth": CONF,
              "finality_depth": FIN, "recovery_timeout": TIMEOUT}
    return {
        "name": name,
        "seed": seed,
        "chains": [dict(params), dict(params)],
        "oracles": {"count": len(behaviors), "behaviors": behaviors},
        "tokens": tokens,
        "balances": [{"account": s, "token": t, "amount": 10**9}
                     for s in SENDERS for t in tokens],
        "timeline": timeline,
    }


class _Holdings:
    """Wrapped balances minted so far, so that burns never exceed them."""

    def __init__(self):
        self.minted: dict[tuple[str, str], int] = {}

    def add(self, receiver: str, token: str, amount: int) -> None:
        key = (receiver, token)
        self.minted[key] = self.minted.get(key, 0) + amount

    def burn(self, rng: random.Random) -> dict:
        key = rng.choice(sorted(k for k, v in self.minted.items() if v > 0))
        amount = rng.randint(1, self.minted[key])
        self.minted[key] -= amount
        return {"op": "user_burn", "holder": key[0], "token": "sw" + key[1],
                "amount": amount, "receiver": rng.choice(SENDERS)}


def _lock(rng: random.Random, tokens: list[str]) -> dict:
    return {"op": "user_lock", "sender": rng.choice(SENDERS),
            "token": rng.choice(tokens), "amount": rng.randint(1, 5000),
            "receiver": rng.choice(RECEIVERS)}


def _closing(tokens: list[str], relation: str) -> list[dict]:
    """Bury every execution past the finality depth and check backing."""
    steps = [{"op": "produce_block", "chain": 0, "count": FIN},
             {"op": "produce_block", "chain": 1, "count": FIN},
             {"op": "tick"}]
    steps += [{"op": "assert", "check": "backing", "token": t,
               "relation": relation} for t in tokens]
    steps.append({"op": "assert", "check": "no_forged_accepted"})
    return steps


def swap_dense(seed: int) -> dict:
    """Large lock batches, a burn-back round every 4th round, a tick every
    round: big per-branch state, short history."""
    rng = random.Random(seed)
    tokens = ["TKA", "TKB"]
    holdings = _Holdings()
    timeline: list[dict] = []
    for rnd in range(48):
        if rnd % 4 == 3:
            timeline += [holdings.burn(rng) for _ in range(12)]
            timeline += [{"op": "produce_block", "chain": 1, "count": 1 + CONF},
                         {"op": "relay_round", "source": 1, "target": 0},
                         {"op": "produce_block", "chain": 0},
                         {"op": "tick"}]
            continue
        batch = [_lock(rng, tokens) for _ in range(30)]
        timeline += batch
        timeline += [{"op": "produce_block", "chain": 0, "count": 1 + CONF},
                     {"op": "relay_round", "source": 0, "target": 1},
                     {"op": "produce_block", "chain": 1},
                     {"op": "tick"}]
        for lock in batch:
            holdings.add(lock["receiver"], lock["token"], lock["amount"])
    timeline += _closing(tokens, "eq")
    return _scenario("bench_swap_dense", seed, tokens, ["honest"] * 5, timeline)


def history_long(seed: int) -> dict:
    """A few swaps spread over a long history: one block on each chain, a
    relay round and a tick per pair, directions alternating."""
    rng = random.Random(seed)
    tokens = ["TKA"]
    holdings = _Holdings()
    timeline: list[dict] = []
    for pair in range(1000):
        if pair % 16 == 0:
            lock = _lock(rng, tokens)
            timeline.append(lock)
            holdings.add(lock["receiver"], lock["token"], lock["amount"])
        elif pair % 64 == 40:
            timeline.append(holdings.burn(rng))
        source = pair % 2
        timeline += [{"op": "produce_block", "chain": 0},
                     {"op": "produce_block", "chain": 1},
                     {"op": "relay_round", "source": source,
                      "target": 1 - source},
                     {"op": "tick"}]
    timeline += _closing(tokens, "eq")
    return _scenario("bench_history_long", seed, tokens, ["honest"] * 5,
                     timeline)


def reorg_byzantine(seed: int) -> dict:
    """Seven oracles (two Byzantine), relay and tick every round, and a
    destination-chain fork every fifth round. Forks alternate between
    orphaning an already delivered mint and landing between a relay's
    submission and its inclusion; recovery re-attests what was lost."""
    rng = random.Random(seed)
    tokens = ["TKA", "TKB"]
    behaviors = ["honest"] * 5 + ["equivocator", "wrong_receiver"]
    rng.shuffle(behaviors)
    timeline: list[dict] = []
    height = 0          # destination canonical tip height
    forks = 0
    rounds, quiet = 200, 3 * TIMEOUT
    for rnd in range(rounds + quiet):
        if rnd < rounds:
            timeline += [_lock(rng, tokens) for _ in range(LOCKS[rnd % 5])]
        timeline += [{"op": "produce_block", "chain": 0},
                     {"op": "relay_round", "source": 0, "target": 1}]
        if rnd >= rounds or rnd % 5 != 4:
            timeline.append({"op": "produce_block", "chain": 1})
            height += 1
        else:
            if forks % 2 == 0:
                # include the relay first, so the fork orphans a delivered mint
                timeline.append({"op": "produce_block", "chain": 1})
                height += 1
            # otherwise the fork lands between the relay's submission and
            # its inclusion: the first block of the new branch includes it
            depth = 1 + forks % FIN
            name = f"fork{forks}"
            timeline += [{"op": "fork_at", "chain": 1, "height": height - depth,
                          "name": name},
                         {"op": "extend_branch", "chain": 1, "branch": name,
                          "count": depth + 1}]
            height += 1
            forks += 1
        timeline.append({"op": "tick"})
    timeline += _closing(tokens, "geq")
    return _scenario("bench_reorg_byzantine", seed, tokens, behaviors,
                     timeline)


def bundled_suite(src: Path, seed: int) -> list[dict]:
    """The scenarios shipped with the program, each re-seeded (the seed only
    changes oracle key material, never the protocol's behaviour)."""
    out = []
    for path in sorted((src / "swapgate" / "scenarios").glob("*.json")):
        obj = json.loads(path.read_text())
        obj["seed"] = seed
        out.append(obj)
    return out


GENERATORS = {
    "swap_dense": swap_dense,
    "history_long": history_long,
    "reorg_byzantine": reorg_byzantine,
}
