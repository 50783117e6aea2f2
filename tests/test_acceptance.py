"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
verdict lines. Every tolerance is exact integer equality; the timed
criteria assert their stated wall-clock budgets.
"""

import functools
import itertools
import random
import time
from pathlib import Path

import pytest

from swapgate.chain import BlockCtx, BlockRef
from swapgate.cli import load_scenario
from swapgate.encoding import Direction, PayloadEntry, decode_payload, \
    encode_payload, payload_hash
from swapgate.errors import (
    DuplicatePulse,
    FutureHeight,
    InsufficientSignatures,
    InvalidSignature,
    StaleHeight,
    UnknownPulse,
)
from swapgate.nebula import NebulaState, OracleRoster
from swapgate.scenario import Runner

from reference_codec import (
    GOLDEN_PAYLOADS,
    ref_encode_payload,
    ref_payload_hash,
    ref_pulse_message,
    ref_sha256,
    ref_signature,
)
from scenario_gen import (
    ADVERSARIAL_BEHAVIOR_POOL,
    adversarial_scenario,
    random_happy_scenario,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

BUNDLED = [
    "happy_path", "reverse_path", "round_trip", "byzantine_minority",
    "byzantine_wrong_receiver", "byzantine_silent", "byzantine_replayer",
    "byzantine_equivocator", "equivocation", "reorg_before_conf",
    "stuck_swap_recovery", "replay_attack",
]
BUNDLED_MINORITY_ADVERSARIAL = [
    "byzantine_minority", "byzantine_wrong_receiver", "byzantine_silent",
    "byzantine_replayer", "byzantine_equivocator", "equivocation",
]


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num} {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {num} {name}: PASS")
        return wrapper
    return decorate


def backing_violations(result) -> list[dict]:
    """The run's reports that a wrapped supply exceeded the origin's locked
    amount of its original at some canonical state."""
    return [v for v in result.violations if v["invariant"] == "backing"]


def canonical_execution_counts(chains) -> dict[bytes, int]:
    counts: dict[bytes, int] = {}
    for chain in chains.values():
        for event in chain.canonical_events():
            if event.kind.value in ("MintExecuted", "UnlockExecuted"):
                counts[event.swap_id] = counts.get(event.swap_id, 0) + 1
    return counts


def canonical_registrations(chains) -> set[bytes]:
    out: set[bytes] = set()
    for chain in chains.values():
        for event in chain.canonical_events():
            if event.kind.value in ("LockRegistered", "BurnRegistered"):
                out.add(event.swap_id)
    return out


@criterion(1, "conservation at quiescence over 100 randomized scenarios")
def test_criterion_1_conservation_quiescence():
    started = time.monotonic()
    for seed in range(100):
        scenario = random_happy_scenario(seed, swaps=50)
        runner = Runner(scenario)
        result = runner.run()
        assert result.exit_code == 0, (seed, result.violations, result.error)
        assert all(sid is not None for sid in runner.swap_ids), seed
        for sid in runner.swap_ids:
            status = runner.controller.status_of(sid)
            assert status is not None and status.label == "finalized", seed
        ledger0 = runner.chains[0].canonical_state.ledger
        ledger1 = runner.chains[1].canonical_state.ledger
        for sym in scenario.tokens:
            locked = ledger0.locked.get(sym, 0)
            supply = ledger1.supply.get("sw" + sym, 0)
            assert locked == supply, (seed, sym, locked, supply)
        assert not backing_violations(result), seed
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


@criterion(2, "Byzantine-minority safety, exhaustive over <= 3 faulty of 5")
def test_criterion_2_byzantine_minority_safety():
    started = time.monotonic()
    checked = 0
    for byz_count in range(4):
        for positions in itertools.combinations(range(5), byz_count):
            for profiles in itertools.product(ADVERSARIAL_BEHAVIOR_POOL,
                                              repeat=byz_count):
                behaviors = ["honest"] * 5
                for pos, profile in zip(positions, profiles):
                    behaviors[pos] = profile
                runner = Runner(adversarial_scenario(behaviors))
                result = runner.run()
                assert result.exit_code == 0, (behaviors, result.error)
                for report in runner.reports:
                    assert not (report["outcome"] == "submitted"
                                and report["forged_chosen"]), behaviors
                assert not backing_violations(result), behaviors
                checked += 1
    assert checked == 1526  # sum of C(5,k) * 5^k for k in 0..3

    for name in BUNDLED_MINORITY_ADVERSARIAL:
        runner = Runner(load_scenario(name))
        result = runner.run()
        assert result.exit_code == 0, name
        for report in runner.reports:
            assert not (report["outcome"] == "submitted"
                        and report["forged_chosen"]), name
        assert not backing_violations(result), name
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


@criterion(3, "exactly-once execution under recovery and reorgs")
def test_criterion_3_exactly_once_under_recovery():
    started = time.monotonic()
    for name in ("stuck_swap_recovery", "reorg_before_conf"):
        runner = Runner(load_scenario(name))
        result = runner.run()
        assert result.exit_code == 0, (name, result.violations)
        registered = canonical_registrations(runner.chains)
        counts = canonical_execution_counts(runner.chains)
        assert registered, name
        for sid in registered:
            assert counts.get(sid, 0) == 1, (name, sid.hex(), counts)
        for sid, count in counts.items():
            assert sid in registered and count == 1, (name, sid.hex())
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"


@criterion(4, "status machine: prefix of registered/processed/finalized")
def test_criterion_4_status_machine():
    order = ["registered", "processed", "finalized"]
    for name in BUNDLED:
        result = Runner(load_scenario(name)).run()
        header = result.records[0]
        fin_depths = [c["finality_depth"] for c in header["chains"]]
        view: dict[str, str | None] = {}
        for record in result.records:
            if record.get("op") != "tick":
                continue
            for t in record["transitions"]:
                sid = t["swap_id"]
                current = view.get(sid)
                if t["revert"]:
                    assert current != "finalized", (name, t)
                    if t["to"] is None:
                        view.pop(sid, None)
                    else:
                        assert (current, t["to"]) == ("processed", "registered")
                        view[sid] = t["to"]
                    continue
                expected = order[0] if current is None \
                    else order[order.index(current) + 1]
                assert t["to"] == expected, (name, t, current)
                if t["to"] == "finalized":
                    depth = int(t["reason"].rsplit("_", 1)[1])
                    assert depth >= fin_depths[t["chain"]], (name, t)
                view[sid] = t["to"]


@criterion(5, "nebula rule suite against independent golden vectors")
def test_criterion_5_nebula_rules():
    secrets = [ref_sha256(b"acceptance-oracle-%d" % i) for i in range(5)]
    roster = OracleRoster(keys=tuple(secrets), threshold=4)
    window = 10

    def nebula():
        return NebulaState(1, roster, window)

    def ctx(height):
        return BlockCtx(BlockRef(1, "main", height, b"\xaa" * 32), {})

    def sigs(indices, data_hash, height):
        message = ref_pulse_message(data_hash, height, 1)
        return [(i, ref_signature(secrets[i], message)) for i in indices]

    data_hash = ref_sha256(b"acceptance pulse payload")
    # threshold boundary at exactly 4-of-5
    with pytest.raises(InsufficientSignatures):
        nebula().submit_pulse(ctx(1), data_hash, 0, sigs([0, 1, 2], data_hash, 0))
    assert nebula().submit_pulse(ctx(1), data_hash, 0,
                                 sigs([0, 1, 2, 3], data_hash, 0)) == 1
    assert nebula().submit_pulse(ctx(1), data_hash, 0,
                                 sigs(range(5), data_hash, 0)) == 1
    with pytest.raises(InvalidSignature):
        nebula().submit_pulse(ctx(1), data_hash, 0,
                              sigs([0, 1, 2, 3], data_hash, 0)
                              + [(4, b"\x00" * 32)])
    with pytest.raises(InsufficientSignatures):
        nebula().submit_pulse(ctx(1), data_hash, 0,
                              sigs([0, 1, 2, 2], data_hash, 0))

    # window boundary exactly at W
    current = 30
    assert nebula().submit_pulse(
        ctx(current), data_hash, current - window,
        sigs(range(4), data_hash, current - window)) == 1
    with pytest.raises(StaleHeight):
        nebula().submit_pulse(
            ctx(current), data_hash, current - window - 1,
            sigs(range(4), data_hash, current - window - 1))
    with pytest.raises(FutureHeight):
        nebula().submit_pulse(
            ctx(current), data_hash, current + 1,
            sigs(range(4), data_hash, current + 1))

    # duplicate unconsumed hash
    dup = nebula()
    dup.submit_pulse(ctx(1), data_hash, 0, sigs(range(4), data_hash, 0))
    with pytest.raises(DuplicatePulse):
        dup.submit_pulse(ctx(2), data_hash, 1, sigs(range(4), data_hash, 1))

    # reveal by payload hash: a match routes, a one-bit flip matches no open
    # pulse, and a consumed pulse is never opened again
    entries = [PayloadEntry(Direction.ORIGIN_TO_DESTINATION, b"\x31" * 32,
                            "T", 0, b"\x32" * 20, 64)]
    digest = ref_payload_hash([(0, b"\x31" * 32, "T", 0, b"\x32" * 20, 64)])
    assert digest == payload_hash(entries)
    reveal = nebula()
    reveal.submit_pulse(ctx(1), digest, 0, sigs(range(4), digest, 0))
    routed = []
    assert reveal.submit_send_data(ctx(1), entries,
                                   router=routed.append) == ["ok"]
    assert routed == entries and reveal.pulses == {}
    flipped = [PayloadEntry(entries[0].direction, entries[0].swap_id,
                            entries[0].symbol, entries[0].origin_chain,
                            entries[0].receiver, entries[0].amount ^ 1)]
    fresh = nebula()
    fresh.submit_pulse(ctx(1), digest, 0, sigs(range(4), digest, 0))
    routed = []
    with pytest.raises(UnknownPulse):
        fresh.submit_send_data(ctx(1), flipped, router=routed.append)
    assert routed == [] and fresh.pulses == {digest: 1}
    fresh.submit_send_data(ctx(1), entries, router=lambda e: None)
    with pytest.raises(UnknownPulse):
        fresh.submit_send_data(ctx(1), entries, router=routed.append)
    assert routed == [] and fresh.pulses == {}


@criterion(6, "canonical encoding: 1000-payload round trip plus golden bytes")
def test_criterion_6_encoding_roundtrip():
    rng = random.Random(4242)
    seen: dict[bytes, list[PayloadEntry]] = {}
    for _ in range(1000):
        entries = [
            PayloadEntry(
                direction=Direction(rng.randint(0, 1)),
                swap_id=rng.randbytes(32),
                symbol="".join(rng.choice("ABCDEFTUVXYZ")
                               for _ in range(rng.randint(1, 10))),
                origin_chain=rng.randint(0, 255),
                receiver=rng.randbytes(20),
                amount=rng.randint(0, 2**64 - 1),
            )
            for _ in range(rng.randint(1, 6))
        ]
        raw = encode_payload(entries)
        assert decode_payload(raw) == entries
        if raw in seen:
            assert seen[raw] == entries
        seen[raw] = entries
    assert len(seen) == 1000

    for i, raw_entries in enumerate(GOLDEN_PAYLOADS):
        expected = (GOLDEN_DIR / f"payload_{i}.hex").read_text().strip()
        entries = [PayloadEntry(Direction(d), sid, sym, oc, recv, amt)
                   for d, sid, sym, oc, recv, amt in raw_entries]
        assert encode_payload(entries).hex() == expected
        assert ref_encode_payload(raw_entries).hex() == expected


@criterion(7, "replay determinism: byte-identical traces per seed")
def test_criterion_7_replay_determinism():
    for name in BUNDLED:
        first = Runner(load_scenario(name)).run()
        second = Runner(load_scenario(name)).run()
        a = "\n".join(first.trace_lines())
        b = "\n".join(second.trace_lines())
        assert a == b, name
        assert first.exit_code == second.exit_code == 0, name


@criterion(8, "end-to-end round trip restores both ledgers exactly")
def test_criterion_8_round_trip_identity():
    runner = Runner(load_scenario("round_trip"))
    result = runner.run()
    assert result.exit_code == 0, result.violations
    for chain_id, chain in sorted(runner.chains.items()):
        assert chain.canonical_state.ledger == chain.genesis_state.ledger, \
            chain_id
