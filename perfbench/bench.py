"""Repetitions, the correctness gate and the metrics of one benchmark run.

Every host time is measured at the nominal host speed (see
measure.Stopwatch). Each host-time metric is computed per repetition and
reported as the median over the run's repetitions; set-up time is the
median over set-up rounds spread across the run.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import measure
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUNDLED_PASSES = 10     # one bundled_suite repetition runs every scenario this often
SETUP_ROUNDS = 20       # set-up rounds before the repetitions
SETUP_ROUNDS_PER_REP = 3
MIN_REPS = 4
MIN_TRACED_REPS = 2
MB = 1 << 20


class Workload:
    """The scenario texts of one workload and how often a repetition runs them."""

    def __init__(self, name: str, seed: int):
        if name == "bundled_suite":
            objs, self.passes = workloads.bundled_suite(SRC, seed), BUNDLED_PASSES
        else:
            objs, self.passes = [workloads.GENERATORS[name](seed)], 1
        self.name, self.seed = name, seed
        self.texts = [json.dumps(o, sort_keys=True, separators=(",", ":"))
                      for o in objs]
        self.timelines = [o["timeline"] for o in objs]
        self.digest = hashlib.sha256("\n".join(self.texts).encode()).hexdigest()


class Gate:
    """Correctness verdict: every execution ok, every trace digest stable."""

    def __init__(self):
        self.digests: dict[int, str] = {}
        self.problems: list[str] = []

    def admit(self, execution: measure.Execution) -> None:
        index = execution.scenario
        if not execution.ok:
            self.problems.append(f"scenario {index}: {execution.problem}")
        expected = self.digests.setdefault(index, execution.digest)
        if execution.digest != expected:
            self.problems.append(f"scenario {index}: trace digest changed "
                                 f"between repetitions of the same seed")

    @property
    def correct(self) -> bool:
        return not self.problems

    def trace_digest(self) -> str:
        joined = "\n".join(self.digests[i] for i in sorted(self.digests))
        return hashlib.sha256(joined.encode()).hexdigest()


def repetition(load: Workload, gate: Gate, recorder=None,
               keep_records: bool = False) -> list[measure.Execution]:
    """Run every scenario of the workload `passes` times."""
    gc.collect()
    out = []
    for _ in range(load.passes):
        for index, text in enumerate(load.texts):
            execution = measure.execute(text, recorder, keep_records)
            execution.scenario = index
            gate.admit(execution)
            out.append(execution)
    return out


def timed_reps(run_once, seconds: float, minimum: int) -> list:
    """Results of `run_once()` until `seconds` are used up (at least
    `minimum`); a repetition starts only if one more of the longest so far
    still fits."""
    reps, longest = [], 0.0
    deadline = time.perf_counter() + seconds
    while len(reps) < minimum or time.perf_counter() + longest <= deadline:
        start = time.perf_counter()
        reps.append(run_once())
        longest = max(longest, time.perf_counter() - start)
    return reps


def facts_of(load: Workload, rep: list[measure.Execution]) -> dict:
    """Exact facts of one pass, summed over the workload's scenarios."""
    total = {"submitted": 0, "executed": 0, "latencies": [], "counts": {}}
    for execution, timeline in zip(rep, load.timelines):
        f = measure.facts(execution.records, timeline)
        total["submitted"] += f["submitted"]
        total["executed"] += f["executed"]
        total["latencies"] += f["latencies"]
        for key, value in f["counts"].items():
            total["counts"][key] = total["counts"].get(key, 0) + value
    return total


def rep_scale(rep: list[measure.Execution]) -> float:
    return measure.scale([c for e in rep for c in e.calibration])


def driving(rep: list[measure.Execution]) -> list[float]:
    """Latencies of the driving steps of every execution in a repetition."""
    return [dt for e in rep for op, dt in e.steps if op in measure.DRIVING_OPS]


def swap_counts(load: Workload, exact: dict, gate: Gate, reps: int) -> dict:
    """Swaps attempted and failed over the measured repetitions. A generated
    workload expects every swap to execute exactly once. The bundled
    scenarios assert their own outcomes, and some keep a swap unexecuted on
    purpose (a Byzantine majority, a lock orphaned before confirmation), so
    there a swap fails when its scenario fails the gate."""
    attempted = exact["submitted"] * load.passes * reps
    if load.name == "bundled_suite":
        failed = 0 if gate.correct else attempted
    else:
        failed = (exact["submitted"] - exact["executed"]) * load.passes * reps
    return {"attempted": attempted, "failed": failed}


def pct(q: float) -> str:
    return f"{q * 100:g}"


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# --- peak RSS ----------------------------------------------------------------------


def peak_rss_mb(load: Workload) -> float:
    """Peak RSS of a fresh process that runs only this workload, once."""
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--rss-child",
         "--workload", load.name, "--seed", str(load.seed)],
        capture_output=True, text=True, timeout=170, cwd=ROOT, check=False)
    if child.returncode != 0:
        raise SystemExit(f"perfbench: peak RSS child failed:\n{child.stderr}")
    return json.loads(child.stdout.splitlines()[-1])["peak_rss_mb"]


def rss_child(load: Workload) -> None:
    gate = Gate()
    repetition(load, gate)
    if not gate.correct:
        raise SystemExit("perfbench: " + "; ".join(gate.problems))
    # VmHWM belongs to this process image alone; getrusage's ru_maxrss
    # would also count the parent's pages as they stood before exec.
    status = Path("/proc/self/status").read_text()
    kib = next(int(line.split()[1]) for line in status.splitlines()
               if line.startswith("VmHWM:"))
    print(json.dumps({"peak_rss_mb": kib * 1024 / MB}))


# --- end-to-end metrics --------------------------------------------------------


def setup_round(load: Workload) -> float:
    """Seconds to set up every scenario of the workload once, at the
    nominal host speed."""
    watch, total = measure.Stopwatch(measure.POINT_SAMPLES), 0.0
    for text in load.texts:
        measure.setup(text)
        total += watch.lap()[0]
    return total


def end_to_end(load: Workload, gate: Gate, seconds: float) -> tuple[dict, dict]:
    setups = [setup_round(load) for _ in range(SETUP_ROUNDS)]
    exact: dict = {}

    def measured_rep():
        rep = repetition(load, gate, keep_records=not exact)
        if not exact:
            # the facts are exact, so one repetition's records suffice; they
            # are dropped at once, so that later repetitions and set-up rounds
            # run with a heap no larger than a fresh process's
            exact.update(facts_of(load, rep))
            for execution in rep:
                execution.records = []
        gc.collect()
        setups.extend(setup_round(load) for _ in range(SETUP_ROUNDS_PER_REP))
        return rep

    reps = timed_reps(measured_rep, seconds, MIN_REPS)
    runs, p50s, tails, checks = [], [], [], []
    for rep in reps:
        steps = driving(rep)
        runs.append(sum(e.run_s for e in rep))
        p50s.append(statistics.median(steps))
        tails.append(measure.tail(steps)[0])
        checks.append(sum(e.check_s for e in rep) / load.passes)
    calibration = [c for rep in reps for e in rep for c in e.calibration]
    # the tail percentile follows from one repetition's step count, and its
    # value is read from the steps of every repetition together: the few
    # slowest steps of a single repetition scatter more than their median
    _, step_q, step_beyond = measure.tail(driving(reps[0]))
    pooled = [dt for rep in reps for dt in driving(rep)]
    lat_tail, lat_q, lat_beyond = measure.tail(exact["latencies"])

    swaps = [exact["executed"] * load.passes / r for r in runs]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "swaps_per_s": (statistics.median(swaps), "swaps/s"),
        "step_ms_p50": (statistics.median(p50s) * 1e3, "ms"),
        "step_ms_tail": (measure.nearest_rank(pooled, step_q) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(load), "MB"),
        "trace_mb": (sum(e.trace_bytes for e in reps[0]) / load.passes / MB,
                     "MB"),
        "check_s": (statistics.median(checks), "s"),
        "executed_swap_ratio": (exact["executed"] / exact["submitted"], "ratio"),
        "swap_latency_blocks_p50": (statistics.median(exact["latencies"]),
                                    "blocks"),
        "swap_latency_blocks_tail": (lat_tail, "blocks"),
    }
    notes = {
        "repetitions": f"{len(reps)} x {load.passes} pass(es), "
                       f"{len(setups)} set-up rounds",
        "host_speed": f"calibration mean "
                      f"{statistics.mean(calibration) * 1e6:.1f} us over "
                      f"{len(calibration)} samples, nominal "
                      f"{measure.CALIBRATION_S * 1e6:g} us; host times are "
                      f"scaled to nominal",
        # a run whose own repetitions spread by more than a metric's bound
        # cannot resolve a change of that size
        "spread_within_run": ", ".join(
            f"{name} {spread(values):.1%}" for name, values in
            [("setup_s", setups), ("swaps_per_s", swaps), ("step_ms_p50", p50s),
             ("step_ms_tail", tails), ("check_s", checks)]),
        "step_ms_tail": f"p{pct(step_q)} of the driving steps of all "
                        f"repetitions; one has {len(driving(reps[0]))}, "
                        f"{step_beyond} beyond",
        "swap_latency_blocks_tail": f"p{pct(lat_q)} of "
                                    f"{len(exact['latencies'])} executed "
                                    f"swaps, {lat_beyond} beyond",
        "swaps_submitted": exact["submitted"],
        "swaps_executed_once": exact["executed"],
    }
    return metrics, {"notes": notes, **swap_counts(load, exact, gate, len(reps))}


# --- per-layer metrics -----------------------------------------------------------

TIMED_SPANS = {    # metric name -> span name; every time is self time in ms
    "scenario.setup.ms": "scenario.setup",
    "scenario.step.produce_block.self_ms": "scenario.step.produce_block",
    "scenario.step.relay_round.self_ms": "scenario.step.relay_round",
    "scenario.step.tick.self_ms": "scenario.step.tick",
    "scenario.step.fork.self_ms": "scenario.step.fork",
    "chain.produce_block.self_ms": "chain.produce_block",
    "chain.canonical_chain.ms": "chain.canonical_chain",
    "chain.events_since.ms": "chain.events_since",
    "chain.replay_canonical.ms": "chain.replay_canonical",
    "gateway.clone.self_ms": "gateway.clone",
    "gateway.apply_tx.self_ms": "gateway.apply_tx",
    "ledger.clone.ms": "ledger.clone",
    "ports.clone.ms": "ports.clone",
    "nebula.clone.ms": "nebula.clone",
    "nebula.submit_pulse.self_ms": "nebula.submit_pulse",
    "nebula.submit_send_data.self_ms": "nebula.submit_send_data",
    "encoding.encode_payload.ms": "encoding.encode_payload",
    "encoding.payload_hash.ms": "encoding.payload_hash",
    "crypto.sign.ms": "crypto.sign",
    "crypto.verify.ms": "crypto.verify",
    "oracles.relay_round.self_ms": "oracles.relay_round",
    "oracles.extract.ms": "oracles.extract",
    "controller.tick.self_ms": "controller.tick",
    "trace.records_to_lines.ms": "trace.records_to_lines",
    "trace.evaluate_records.ms": "trace.evaluate_records",
    "trace.check.ms": "trace.check",
}
CALL_COUNTS = ["chain.produce_block", "chain.canonical_chain",
               "chain.events_since", "chain.replay_canonical", "gateway.clone",
               "gateway.apply_tx", "nebula.submit_pulse",
               "nebula.submit_send_data", "encoding.encode_payload",
               "encoding.payload_hash", "crypto.sign", "crypto.verify",
               "oracles.relay_round", "oracles.extract", "controller.tick"]
SPAN_COUNTS = ["chain.events_since.events", "chain.replay_canonical.blocks",
               "chain.reorgs", "ports.clone.records_copied",
               "nebula.clone.pulses_copied", "encoding.encode_payload.bytes",
               "controller.tick.events_scanned"]
TRACE_COUNTS = ["chain.tx.applied", "nebula.pulse.txs", "nebula.reveal.txs",
                "oracles.round.submitted", "oracles.round.no_quorum",
                "oracles.round.empty", "oracles.forged_candidates",
                "oracles.reattestations", "controller.transitions",
                "controller.reverts", "controller.stuck", "trace.records"]
# counters each workload exists to drive; zero means it no longer does
EXERCISED = {
    "swap_dense": ["ports.clone.records_copied", "oracles.round.submitted"],
    "history_long": ["chain.events_since.events",
                     "controller.tick.events_scanned"],
    "reorg_byzantine": ["chain.reorgs", "chain.replay_canonical.blocks",
                        "controller.reverts", "controller.stuck",
                        "oracles.forged_candidates",
                        "oracles.reattestations"],
    "bundled_suite": ["chain.reorgs", "controller.stuck",
                      "oracles.forged_candidates"],
}


def exact_counts(load: Workload, recorder: spans.Recorder, exact: dict) -> dict:
    """Counts of one traced repetition, per pass of the workload."""
    out = {f"{name}.calls": recorder.calls[name] // load.passes
           for name in CALL_COUNTS}
    out.update({name: recorder.counts[name] // load.passes
                for name in SPAN_COUNTS})
    out["chain.reorg_depth_max"] = recorder.counts["chain.reorg_depth_max"]
    for name in TRACE_COUNTS + [f"chain.tx.rejected.{code}"
                                for code in measure.TX_CODES]:
        out[name] = exact["counts"].get(name, 0)
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 1.0


def per_layer(load: Workload, gate: Gate, seconds: float) -> tuple[dict, dict]:
    exact = facts_of(load, repetition(load, gate, keep_records=True))
    plain: list[list[measure.Execution]] = []

    def traced_rep():
        # an untraced repetition next to each traced one gives the overhead
        plain.append(repetition(load, gate))
        recorder = spans.Recorder()
        with spans.installed(recorder):
            executions = repetition(load, gate, recorder)
        return executions, recorder

    reps = timed_reps(traced_rep, seconds, MIN_TRACED_REPS)
    counts = [exact_counts(load, recorder, exact) for _, recorder in reps]
    for other in counts[1:]:
        changed = sorted(k for k in counts[0] if counts[0][k] != other[k])
        if changed:
            gate.problems.append(f"exact counters differ between traced "
                                 f"repetitions: {changed}")
    c = counts[0]
    for name in EXERCISED[load.name]:
        if c[name] <= 0:
            gate.problems.append(f"{load.name} no longer exercises {name}")

    metrics: dict[str, tuple[float, str]] = {}
    for metric, span in TIMED_SPANS.items():
        metrics[metric] = (statistics.median(
            r.self_s[span] * rep_scale(executions) for executions, r in reps)
            * 1e3 / load.passes, "ms")
    for name, value in c.items():
        metrics[name] = (value, "count")

    timelines = [[dt for op, dt in e.steps if op in measure.DRIVING_OPS]
                 for e in plain[-1][:len(load.texts)]]
    head = [t for steps in timelines for t in steps[:len(steps) // 4]]
    last = [t for steps in timelines for t in steps[len(steps) - len(steps) // 4:]]
    metrics["scenario.step_growth"] = (
        statistics.median(last) / statistics.median(head), "ratio")
    metrics["nebula.pulse.accepted_ratio"] = (
        ratio(exact["counts"].get("nebula.pulse.accepted", 0),
              c["nebula.pulse.txs"]), "ratio")
    metrics["nebula.reveal.accepted_ratio"] = (
        ratio(exact["counts"].get("nebula.reveal.accepted", 0),
              c["nebula.reveal.txs"]), "ratio")
    metrics["oracles.round.submitted_ratio"] = (
        ratio(c["oracles.round.submitted"], c["oracles.relay_round.calls"]),
        "ratio")
    # each traced repetition against the untraced one run just before it,
    # so that a drift in host speed cancels within the pair
    metrics["bench.tracing_overhead"] = (statistics.median(
        sum(e.run_s for e in traced) / sum(e.run_s for e in untraced)
        for untraced, (traced, _) in zip(plain, reps)), "ratio")

    spans_file = ROOT / ".bench_out" / f"spans-{load.name}-seed{load.seed}.jsonl"
    reps[-1][1].write(spans_file)
    top = sorted(reps[0][1].self_s.items(), key=lambda kv: -kv[1])[:6]
    notes = {
        "traced_repetitions": len(reps),
        "top_self_ms": {k: round(v * rep_scale(reps[0][0]) * 1e3 / load.passes,
                                 3) for k, v in top},
        "spans_file": str(spans_file.relative_to(ROOT)),
        "rejected_UnknownPulse": c["chain.tx.rejected.UnknownPulse"],
    }
    return metrics, {"notes": notes, **swap_counts(load, exact, gate, len(reps))}


def run(workload: str, seed: int, seconds: float, traced: bool) -> int:
    load = Workload(workload, seed)
    print(f"workload {load.name} seed {load.seed}: scenario sha256 "
          f"{load.digest}", flush=True)
    gate = Gate()
    metrics, info = (per_layer if traced else end_to_end)(load, gate, seconds)

    print(f"workload {load.name} seed {load.seed}: trace sha256 "
          f"{gate.trace_digest()}")
    for key, value in info["notes"].items():
        print(f"  {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    verdict = "pass" if gate.correct else "FAIL: " + "; ".join(gate.problems)
    print(f"correctness gate: {verdict}")
    print(json.dumps({
        "correct": gate.correct,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if gate.correct else 1
