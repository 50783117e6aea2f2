"""Run scenarios the way `swapgate run --trace` and `swapgate check` do, and
derive metrics from what comes out.

Host time is measured around the program's public entry points:
`Scenario.from_json` and `Runner(...)` (set-up), `Runner.run` plus
`trace.records_to_lines` (the run), and `trace.check_trace_text` (the
check). The runner has no per-step hook, so per-step latency comes from a
timer the benchmark puts around the step dispatch of the one runner
instance it measures. The same wrapper samples the host's speed between
steps with a fixed calibration routine (see `calibrate` and `Stopwatch`).
Everything simulated (swaps executed, latency in blocks, transaction
outcomes, relay outcomes, controller transitions) is read back from the
trace records, so it is exact and independent of host speed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from swapgate import trace
from swapgate.scenario import Runner, Scenario

DRIVING_OPS = {"produce_block", "extend_branch", "fork_at", "relay_round",
               "tick"}
# span name of each timeline op in the traced run
STEP_SPANS = {"produce_block": "scenario.step.produce_block",
              "extend_branch": "scenario.step.produce_block",
              "fork_at": "scenario.step.fork",
              "relay_round": "scenario.step.relay_round",
              "tick": "scenario.step.tick"}
# transaction statuses reported one by one; anything else is "other"
TX_CODES = ["InsufficientBalance", "ZeroAmount", "WrongChainReceiver",
            "UnknownToken", "NotWrappedToken", "InvalidSignature",
            "InsufficientSignatures", "StaleHeight", "FutureHeight",
            "DuplicatePulse", "UnknownPulse", "AlreadyConsumed",
            "HashMismatch", "other"]

clock = time.perf_counter

# The shared host's speed changes many times a second, and every host time
# moves with it. A fixed routine timed between the program's own steps
# samples the speed where it happens, and each host time is reported scaled
# to a host on which the routine takes CALIBRATION_S. Each interval gets
# the samples right beside it, because one factor for a whole repetition
# averages over those changes and leaves most of the drift in.
CALIBRATION_S = 30e-6
POINT_SAMPLES = 3   # samples around a single long interval (check, set-up)
CHECK_REPEATS = 3   # checks of each trace; the median is its check time
_ROWS = [{"height": i, "kind": "mint" if i % 3 else "burn"} for i in range(400)]


def calibrate() -> float:
    """Seconds one pass of the calibration routine takes: a scan over small
    dicts, like the program's hot paths. It runs no program code, so a
    change to the program cannot move it."""
    start = clock()
    sum(1 for row in _ROWS if row["kind"] == "mint" and row["height"] % 5)
    return clock() - start


class Stopwatch:
    """Consecutive host-time intervals, each scaled to the nominal host
    speed. A calibration sample is taken when the watch starts and after
    every lap, outside the intervals; an interval is scaled by the mean of
    the samples on either side of it. A sample is the least of `samples`
    passes of the routine, so that an interrupt does not count as a slow
    host."""

    def __init__(self, samples: int = 1):
        self.per_point = samples
        self.samples = [self._sample()]
        self.mark = clock()

    def _sample(self) -> float:
        return min(calibrate() for _ in range(self.per_point))

    def lap(self) -> tuple[float, float]:
        """Ends the interval begun at the last sample; returns its seconds at
        the nominal speed and the factor that scaled it."""
        elapsed = clock() - self.mark
        self.samples.append(self._sample())
        factor = 2 * CALIBRATION_S / (self.samples[-2] + self.samples[-1])
        self.mark = clock()
        return elapsed * factor, factor


def scale(samples: list[float]) -> float:
    """Factor from host seconds measured among these calibration samples to
    seconds at the nominal host speed."""
    return CALIBRATION_S / statistics.mean(samples)


@dataclass
class Execution:
    """One scenario run: set-up, run, serialisation and check. Every time
    is in seconds at the nominal host speed (see Stopwatch)."""

    run_s: float            # Runner.run() + trace.records_to_lines
    check_s: float
    calibration: list[float]    # calibrate() samples during run and check
    steps: list[tuple[str, float]]   # (op, seconds) of every timeline step
    trace_bytes: int
    digest: str
    ok: bool
    problem: str = ""
    records: list[dict] = field(default_factory=list, repr=False)
    scenario: int = 0       # index of the scenario within its workload


def setup(text: str) -> Runner:
    return Runner(Scenario.from_json(json.loads(text)))


def execute(text: str, recorder=None, keep_records: bool = False) -> Execution:
    frame = recorder.begin("scenario.setup") if recorder else None
    runner = setup(text)
    if recorder:
        recorder.end(frame)

    steps: list[tuple[str, float]] = []
    dispatch = runner._execute_step
    run_laps: list[float] = []

    def timed_step(index: int, step: dict) -> None:
        op = step["op"]
        span = recorder.begin(STEP_SPANS.get(op, "scenario.step.other")) \
            if recorder else None
        start = clock()
        try:
            dispatch(index, step)
        finally:
            elapsed = clock() - start
            if recorder:
                recorder.end(span)
        seconds, factor = watch.lap()
        run_laps.append(seconds)
        steps.append((op, elapsed * factor))

    runner._execute_step = timed_step
    watch = Stopwatch()
    result = runner.run()
    run_laps.append(watch.lap()[0])    # the run's end: evaluate_records
    lines = trace.records_to_lines(result.records)
    run_laps.append(watch.lap()[0])
    text = "".join(line + "\n" for line in lines)
    problem = ""
    if result.exit_code != 0:
        problem = (f"run exited {result.exit_code}: {result.error or ''} "
                   f"{result.violations[:3]}")
    records = result.records if keep_records else []
    # `swapgate check` reads a trace with no run in memory. Freeing the run
    # first also keeps a collection of its objects out of the timed check.
    del runner, result, lines
    gc.collect()
    check_watch, checks = Stopwatch(POINT_SAMPLES), []
    # a traced run checks once, so that its check spans stay per trace
    for _ in range(1 if recorder else CHECK_REPEATS):
        check_exit, _ = trace.check_trace_text(text)
        checks.append(check_watch.lap()[0])
    body = text.encode()

    if not problem and check_exit != 0:
        problem = f"check exited {check_exit} on a trace the run accepted"
    return Execution(run_s=sum(run_laps), check_s=statistics.median(checks),
                     calibration=watch.samples + check_watch.samples,
                     steps=steps, trace_bytes=len(body),
                     digest=hashlib.sha256(body).hexdigest(),
                     ok=not problem, problem=problem, records=records)


# --- percentiles -------------------------------------------------------------


def tail(values: list) -> tuple[float, float, int]:
    """Nearest-rank value at the highest of p90 / p99 / p99.9 that has at
    least ten samples beyond it (p90 when none has), with that percentile
    and the number of samples beyond it."""
    n = len(values)
    q = next((q for q in (0.999, 0.99) if n - math.ceil(q * n) >= 10), 0.9)
    return nearest_rank(values, q), q, n - math.ceil(q * n)


def nearest_rank(values: list, q: float):
    """The q-quantile of `values` by the nearest-rank rule."""
    return sorted(values)[max(0, math.ceil(q * len(values)) - 1)]


# --- exact facts read back from a trace --------------------------------------


def facts(records: list[dict], timeline: list[dict]) -> dict:
    """Swap outcomes, simulated latency and per-layer counts of one run."""
    submitted = sum(1 for s in timeline if s["op"] in ("user_lock", "user_burn"))
    canonical, _ = trace.canonical_block_lists(records)
    produced_in = {block["hash"]: i for i, record in enumerate(records)
                   for block in record.get("blocks", [])}
    registered: dict[str, str] = {}
    executions: Counter[str] = Counter()
    executed_at: dict[str, tuple[int, int]] = {}
    for chain_id, blocks in canonical.items():
        for block in blocks:
            for event in block["events"]:
                sid = event.get("swap_id")
                if event["kind"] in trace.REGISTRATION_EVENT_KINDS:
                    registered[sid] = block["hash"]
                elif event["kind"] in trace.EXECUTION_EVENT_KINDS:
                    executions[sid] += 1
                    executed_at[sid] = (chain_id, block["height"])
    latencies = []
    for sid, count in executions.items():
        if count != 1 or sid not in registered:
            continue
        chain_id, height = executed_at[sid]
        at_registration = records[produced_in[registered[sid]]]["canonical"]
        latencies.append(height - at_registration[str(chain_id)]["height"])

    counts: Counter[str] = Counter()
    relayed: set[str] = set()
    for record in records:
        op = record.get("op")
        for block in record.get("blocks", []):
            for tx in block["txs"]:
                status, kind = tx["status"], tx["tx"]["kind"]
                if status == "ok":
                    counts["chain.tx.applied"] += 1
                else:
                    code = status if status in TX_CODES else "other"
                    counts[f"chain.tx.rejected.{code}"] += 1
                if kind == "pulse":
                    counts["nebula.pulse.txs"] += 1
                    counts["nebula.pulse.accepted"] += status == "ok"
                elif kind == "send_data":
                    counts["nebula.reveal.txs"] += 1
                    counts["nebula.reveal.accepted"] += status == "ok"
        if op == "relay_round":
            report = record["report"]
            counts[f"oracles.round.{report['outcome']}"] += 1
            counts["oracles.forged_candidates"] += sum(
                1 for c in report["candidates"] if c["forged"])
            if report["outcome"] == "submitted":
                for entry in report["entries"]:
                    counts["oracles.reattestations"] += entry["swap_id"] in relayed
                    relayed.add(entry["swap_id"])
        elif op == "tick":
            counts["controller.transitions"] += len(record["transitions"])
            counts["controller.reverts"] += sum(
                1 for t in record["transitions"] if t["revert"])
            counts["controller.stuck"] += len(record["stuck"])
    counts["trace.records"] = len(records)
    return {"submitted": submitted,
            "executed": sum(1 for c in executions.values() if c == 1),
            "latencies": latencies,
            "counts": counts}
