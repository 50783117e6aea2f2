"""Seeded random scenario generators for the acceptance suite.

random_happy_scenario builds an honest-roster run with batched forward
transfers, occasional burn-backs of already-minted funds, and a closing
stretch that buries every execution past the finality depth. The generator
tracks a model of minted balances so burns never exceed holdings, which
keeps every generated timeline conflict-free by construction.
"""

import random

from swapgate.scenario import Scenario

CONF, FIN, TIMEOUT, WINDOW = 2, 3, 12, 20
SENDERS = ["s0", "s1", "s2"]
RECEIVERS = ["r0", "r1", "r2"]


def random_happy_scenario(seed: int, swaps: int = 50) -> Scenario:
    rng = random.Random(seed)
    symbols = ["TKA", "TKB", "TKC"][: rng.randint(1, 3)]

    balances = [
        {"account": sender, "token": sym, "amount": 200_000}
        for sender in SENDERS
        for sym in symbols
    ]
    timeline: list[dict] = []
    minted: dict[tuple[str, str], int] = {}   # (receiver, symbol) -> amount
    pending: list[tuple[str, str, int]] = []  # minted once the batch relays
    remaining = swaps

    while remaining > 0:
        do_burn = pending == [] and minted and rng.random() < 0.35
        if do_burn:
            batch = min(remaining, rng.randint(1, 3))
            for _ in range(batch):
                holders = [(key, amt) for key, amt in minted.items() if amt > 0]
                if not holders:
                    break
                (receiver, sym), held = rng.choice(holders)
                amount = rng.randint(1, held)
                minted[(receiver, sym)] -= amount
                timeline.append({
                    "op": "user_burn", "holder": receiver,
                    "token": "sw" + sym, "amount": amount,
                    "receiver": rng.choice(SENDERS),
                })
                remaining -= 1
            timeline.append({"op": "produce_block", "chain": 1,
                             "count": 1 + CONF})
            timeline.append({"op": "relay_round", "source": 1, "target": 0})
            timeline.append({"op": "produce_block", "chain": 0})
            continue

        batch = min(remaining, rng.randint(1, 6))
        for _ in range(batch):
            sender = rng.choice(SENDERS)
            receiver = rng.choice(RECEIVERS)
            sym = rng.choice(symbols)
            amount = rng.randint(1, 500)
            timeline.append({
                "op": "user_lock", "sender": sender, "token": sym,
                "amount": amount, "receiver": receiver,
            })
            pending.append((receiver, sym, amount))
            remaining -= 1
        timeline.append({"op": "produce_block", "chain": 0, "count": 1 + CONF})
        timeline.append({"op": "relay_round", "source": 0, "target": 1})
        timeline.append({"op": "produce_block", "chain": 1})
        for receiver, sym, amount in pending:
            key = (receiver, sym)
            minted[key] = minted.get(key, 0) + amount
        pending = []

    # bury every execution past the finality depth, then finalize
    timeline.append({"op": "produce_block", "chain": 0, "count": FIN})
    timeline.append({"op": "produce_block", "chain": 1, "count": FIN})
    timeline.append({"op": "tick"})
    for sym in symbols:
        timeline.append({"op": "assert", "check": "backing", "token": sym,
                         "relation": "eq"})
    timeline.append({"op": "assert", "check": "no_forged_accepted"})

    return Scenario.from_json({
        "name": f"random_happy_{seed}",
        "seed": seed,
        "chains": [
            {"relevance_window": WINDOW, "confirmation_depth": CONF,
             "finality_depth": FIN, "recovery_timeout": TIMEOUT},
            {"relevance_window": WINDOW, "confirmation_depth": CONF,
             "finality_depth": FIN, "recovery_timeout": TIMEOUT},
        ],
        "oracles": {"count": 5,
                    "behaviors": ["honest"] * 5},
        "tokens": symbols,
        "balances": balances,
        "timeline": timeline,
    })


ADVERSARIAL_BEHAVIOR_POOL = ["silent", "wrong_amount", "wrong_receiver",
                             "replayer", "equivocator"]


def adversarial_scenario(behaviors: list[str], seed: int = 77) -> Scenario:
    """The byzantine_minority timeline with an arbitrary behavior roster.

    Two relay rounds over two locks with amount 1, the worst case for
    cross-profile payload collisions (doubling and increment coincide).
    """
    return Scenario.from_json({
        "name": "adversarial_sweep",
        "seed": seed,
        "chains": [
            {"relevance_window": WINDOW, "confirmation_depth": CONF,
             "finality_depth": FIN, "recovery_timeout": TIMEOUT},
            {"relevance_window": WINDOW, "confirmation_depth": CONF,
             "finality_depth": FIN, "recovery_timeout": TIMEOUT},
        ],
        "oracles": {"count": len(behaviors), "behaviors": list(behaviors)},
        "tokens": ["T"],
        "balances": [{"account": "alice", "token": "T", "amount": 1000}],
        "timeline": [
            {"op": "user_lock", "sender": "alice", "token": "T", "amount": 1,
             "receiver": "bob"},
            {"op": "produce_block", "chain": 0, "count": 1 + CONF},
            {"op": "relay_round", "source": 0, "target": 1},
            {"op": "produce_block", "chain": 1},
            {"op": "user_lock", "sender": "alice", "token": "T", "amount": 1,
             "receiver": "bob"},
            {"op": "produce_block", "chain": 0, "count": 1 + CONF},
            {"op": "relay_round", "source": 0, "target": 1},
            {"op": "produce_block", "chain": 1},
            {"op": "tick"},
        ],
    })


def reorg_scenario(seed: int, rounds: int = 40) -> Scenario:
    """Forward swaps relayed through forks on both chains, with a Byzantine
    minority of two among seven oracles (f = 2 < n/3) at seeded positions.

    Some origin forks orphan a lock block before it is confirmed, after a
    tick has seen it, so the controller drops the registration. Some
    destination forks orphan a delivered mint after a tick has processed
    it, so the swap reverts, goes stuck past the recovery timeout and is
    re-attested. A closing stretch recovers and finalizes every swap.
    """
    rng = random.Random(seed)
    behaviors = ["honest"] * 7
    for index, behavior in zip(rng.sample(range(7), 2),
                               rng.sample(ADVERSARIAL_BEHAVIOR_POOL, 2)):
        behaviors[index] = behavior
    height = {0: 0, 1: 0}
    forks = 0
    timeline: list[dict] = []

    def produce(chain: int, count: int = 1) -> None:
        timeline.append({"op": "produce_block", "chain": chain, "count": count})
        height[chain] += count

    def orphan_tip(chain: int) -> None:
        """Tick, then fork one block below the tip and outgrow it."""
        nonlocal forks
        forks += 1
        name = f"fork{forks}"
        timeline.append({"op": "tick"})
        timeline.append({"op": "fork_at", "chain": chain,
                         "height": height[chain] - 1, "name": name})
        timeline.append({"op": "extend_branch", "chain": chain,
                         "branch": name, "count": 2})
        height[chain] += 1

    for _ in range(rounds):
        for _ in range(rng.randint(1, 3)):
            timeline.append({
                "op": "user_lock", "sender": rng.choice(SENDERS),
                "token": "T", "amount": rng.randint(1, 500),
                "receiver": rng.choice(RECEIVERS),
            })
        produce(0)
        if rng.random() < 0.25:
            orphan_tip(0)
        produce(0, CONF)
        timeline.append({"op": "relay_round", "source": 0, "target": 1})
        produce(1)
        if rng.random() < 0.3:
            orphan_tip(1)
        timeline.append({"op": "tick"})

    # flag whatever is still unexecuted, re-attest it, then finalize
    produce(1, TIMEOUT + 1)
    timeline.append({"op": "tick"})
    timeline.append({"op": "relay_round", "source": 0, "target": 1})
    produce(1)
    produce(0, FIN)
    produce(1, FIN)
    timeline.append({"op": "tick"})
    timeline.append({"op": "assert", "check": "backing", "token": "T",
                     "relation": "eq"})
    timeline.append({"op": "assert", "check": "no_forged_accepted"})

    return Scenario.from_json({
        "name": f"reorg_{seed}",
        "seed": seed,
        "chains": [
            {"relevance_window": WINDOW, "confirmation_depth": CONF,
             "finality_depth": FIN, "recovery_timeout": TIMEOUT},
            {"relevance_window": WINDOW, "confirmation_depth": CONF,
             "finality_depth": FIN, "recovery_timeout": TIMEOUT},
        ],
        "oracles": {"count": len(behaviors), "behaviors": behaviors},
        "tokens": ["T"],
        "balances": [{"account": sender, "token": "T", "amount": 100_000}
                     for sender in SENDERS],
        "timeline": timeline,
    })
