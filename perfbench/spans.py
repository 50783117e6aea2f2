"""Outside-in span recorder for the traced benchmark run.

Spans come from wrappers that the benchmark installs around the public
callables of every swapgate module at run time; nothing in the program is
edited. Each span keeps its name, start, end and parent. A span's self time
is its duration minus the time covered by its child spans. Counters record
exact work (records copied, events returned, blocks replayed, bytes
encoded) at the same boundaries.

Functions imported by name into another module are patched where they are
called: `swapgate.oracles.encode_payload`, `swapgate.nebula.payload_hash`
and `swapgate.gateway.apply_tx`. Every Chain captures `apply_tx` when it is
constructed, so the recorder must be installed before `Runner(...)` runs.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter
from pathlib import Path


class Recorder:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.open: Counter[str] = Counter()
        # frames of open spans: [index, name, start, seconds covered by children]
        self._stack: list[list] = []

    def begin(self, name: str) -> list:
        frame = [len(self.spans), name, time.perf_counter(), 0.0]
        self.spans.append((name, frame[2], frame[2], -1))
        self._stack.append(frame)
        self.open[name] += 1
        return frame

    def end(self, frame: list) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        assert popped is frame, "spans must nest"
        index, name, start, covered = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans[index] = (name, start, end, parent[0] if parent else -1)
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        self.open[name] -= 1

    def wrap(self, name: str, fn, after=None):
        """A callable recording one span per call of `fn`; `after(args,
        result)` updates the counters once the call has returned."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = recorder.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.end(frame)
            if after is not None:
                after(args, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps([name, round(start, 9), round(end, 9),
                                      parent]) + "\n")


def _targets(rec: Recorder):
    """(owner, attribute, span name, counter hook) for every wrapped callable."""
    from swapgate import chain, controller, crypto, gateway, ledger, nebula
    from swapgate import oracles, ports, trace

    counts = rec.counts

    def reorg(args, _ref):
        info = args[0].last_reorg
        if info is not None:
            counts["chain.reorgs"] += 1
            counts["chain.reorg_depth_max"] = max(
                counts["chain.reorg_depth_max"], info.abandoned_depth)

    def events(_args, result):
        counts["chain.events_since.events"] += len(result)
        if rec.open["controller.tick"]:
            counts["controller.tick.events_scanned"] += len(result)

    def replayed(args, _state):
        counts["chain.replay_canonical.blocks"] += args[0].canonical_tip.height

    def records_copied(args, _port):
        counts["ports.clone.records_copied"] += len(args[0].swaps)

    def pulses_copied(args, _state):
        counts["nebula.clone.pulses_copied"] += len(args[0].pulses)

    def encoded(_args, raw):
        counts["encoding.encode_payload.bytes"] += len(raw)

    C, N = chain.Chain, nebula.NebulaState
    return [
        (C, "produce_block", "chain.produce_block", reorg),
        (C, "canonical_chain", "chain.canonical_chain", None),
        (C, "events_since", "chain.events_since", events),
        (C, "replay_canonical", "chain.replay_canonical", replayed),
        (gateway.GatewayState, "clone", "gateway.clone", None),
        (gateway, "apply_tx", "gateway.apply_tx", None),
        (ledger.Ledger, "clone", "ledger.clone", None),
        (ports.LockUnlockPort, "clone", "ports.clone", records_copied),
        (ports.IssueBurnPort, "clone", "ports.clone", records_copied),
        (N, "clone", "nebula.clone", pulses_copied),
        (N, "submit_pulse", "nebula.submit_pulse", None),
        (N, "submit_send_data", "nebula.submit_send_data", None),
        (oracles, "encode_payload", "encoding.encode_payload", encoded),
        (nebula, "payload_hash", "encoding.payload_hash", None),
        (crypto.HashMacScheme, "sign", "crypto.sign", None),
        (crypto.HashMacScheme, "verify", "crypto.verify", None),
        (oracles.OracleNetwork, "relay_round", "oracles.relay_round", None),
        (oracles.OracleNetwork, "extract", "oracles.extract", None),
        (controller.StatusController, "tick", "controller.tick", None),
        (trace, "records_to_lines", "trace.records_to_lines", None),
        (trace, "evaluate_records", "trace.evaluate_records", None),
        (trace, "check_trace_text", "trace.check", None),
    ]


@contextlib.contextmanager
def installed(rec: Recorder):
    """Patch every target for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, after in _targets(rec):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, rec.wrap(name, original, after))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
