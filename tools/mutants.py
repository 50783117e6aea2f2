"""Mutants that a check is known to catch, or known to miss, checked in.

    python3 tools/mutants.py

Each entry names a file under src/, an exact snippet of it, the snippet
that replaces it, an oracle and the outcome recorded for that mutant; a
tier1 entry recorded as "caught" may also name the one test file that
catches it. The script copies src/, tests/, perfbench/ and pyproject.toml
to a temporary directory; for each entry it applies the edit there (the
old snippet must occur exactly once), runs the oracle on the copy in a
child process and undoes the edit. The tree itself is never edited. It
exits 1 if a snippet no longer matches or an outcome differs from the
recorded one: a refactor that silently stops catching a mutant shows up,
and so does one that starts catching a known hole, whose entry is then
updated.

Oracles:
  selfcheck  the number of tests/scenario_gen.reorg_scenario seeds 1-10
             whose run raises the reorg self-check's RuntimeError, the one
             that names the state fields differing ("differing: ..."); any
             other RuntimeError counts as not caught. It is deterministic,
             so the outcome is an exact count. The unmutated tree must
             give 0.
  tier1      the tier-1 tests, `pytest -x -q` on the copy under the
             derandomized "ci" hypothesis profile: "caught" if a test
             fails, "survives" if all pass. The first failing test is
             printed. An entry that names a test file runs `pytest -x -q
             <file>` alone, in place of the full run; a "survives" entry
             and the unmutated tree, which must give "survives", run in
             full.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/, old snippet, new snippet, oracle, outcome[,
# the test file that catches it])
MUTANTS = [
    ("port swaps shared", "swapgate/ports.py",
     "return type(self)(dict(self.swaps), self.next_seq, symbols)",
     "return type(self)(self.swaps, self.next_seq, symbols)",
     "selfcheck", 10),
    ("per-token balances shared", "swapgate/ledger.py",
     "balances={sym: dict(per) for sym, per in self.balances.items()},",
     "balances=dict(self.balances),",
     "selfcheck", 10),
    ("locked shared", "swapgate/ledger.py",
     "locked=dict(self.locked),",
     "locked=self.locked,",
     "selfcheck", 10),
    # a relay's pulse and its reveal land in one block, so no clone ever
    # holds an open pulse for a later block to consume: a known hole
    ("NebulaState.pulses shared", "swapgate/nebula.py",
     "self.pulse_count, dict(self.pulses))",
     "self.pulse_count, self.pulses)",
     "selfcheck", 0),
    # the wrapped symbols a destination branch has minted
    ("IssueBurnPort.wrapped shared", "swapgate/ports.py",
     "return self._clone(set(self.wrapped))",
     "return self._clone(self.wrapped)",
     "selfcheck", 2),
    # the self-check misses it (above), the tests do not
    ("NebulaState.pulses shared", "swapgate/nebula.py",
     "self.pulse_count, dict(self.pulses))",
     "self.pulse_count, self.pulses)",
     "tier1", "caught", "tests/test_chain.py"),
    # a twin of the tip keeps the tip and takes nothing off the list, but
    # lies below the old tip's height
    ("reorg test from the fork height", "swapgate/chain.py",
     "if not self.is_canonical(prev_tip):",
     "if fork_height < prev_tip.height:",
     "tier1", "caught", "tests/test_chain_index.py"),
    # a twin of the tip is stored under the newer branch's name, while the
    # older branch keeps the tip
    ("tip is the winner's own ref whatever its branch", "swapgate/chain.py",
     "        if tip.branch != name:\n"
     "            # a twin stored under another branch's name\n"
     "            tip = BlockRef(self.chain_id, name, tip.height, tip.block_hash)\n",
     "",
     "tier1", "caught", "tests/test_chain_index.py"),
    # the replay resumes from the last block it reached: a tip that a reorg
    # has orphaned holds the abandoned branch's state
    ("replay resumes from its last tip without checking that it is "
     "canonical", "swapgate/chain.py",
     "if self.is_canonical(self._replay_tip[0].ref):",
     "if True:",
     "tier1", "caught", "tests/test_replay_checkpoint.py"),
    # a replay that never keeps its tip starts from genesis every time, and
    # so applies each canonical block again
    ("replay never keeps its last tip", "swapgate/chain.py",
     "self._replay_tip = (block, state)",
     "pass",
     "tier1", "caught", "tests/test_replay_checkpoint.py"),
    # the early returns of a step that carries nothing, each missing one
    # of its conditions
    ("quiet tick ignores open swaps", "swapgate/controller.py",
     "if not (self._open or touched):",
     "if not touched:",
     "tier1", "caught", "tests/test_acceptance.py"),
    # a tick visits its swaps in set order: the transitions of several new
    # swaps come out in no canonical order
    ("tick leaves its live swaps unsorted", "swapgate/controller.py",
     "live.sort(key=_position)",
     "pass",
     "tier1", "caught", "tests/test_controller_differential.py"),
    # a Processed swap revisited for any reason is finalized at once, its
    # execution perhaps still above the final height
    ("Processed swap finalized whatever its height", "swapgate/controller.py",
     "if status == PROCESSED and height <= exec_final:",
     "if status == PROCESSED:",
     "tier1", "caught", "tests/test_acceptance.py"),
    ("empty extraction ignores re-attestations", "swapgate/oracles.py",
     "if height > upper and not requests:",
     "if height > upper:",
     "tier1", "caught", "tests/test_acceptance.py"),
    ("empty round ignores a replayer", "swapgate/oracles.py",
     "if not reference_entries and not self._replays:",
     "if not reference_entries:",
     "tier1", "caught", "tests/test_fixed_cost.py"),
    # the self-check catches it on only 2 of 10 seeds (above), the tests
    # catch it
    ("IssueBurnPort.wrapped shared", "swapgate/ports.py",
     "return self._clone(set(self.wrapped))",
     "return self._clone(self.wrapped)",
     "tier1", "caught", "tests/test_state_equality.py"),
    # the relay assert reads the round's report by key; this one takes
    # every submitted round, honest ones included, for a forged one
    ("no_forged_accepted counts every submitted round", "swapgate/scenario.py",
     'if r["outcome"] == "submitted" and r["forged_chosen"]',
     'if r["outcome"] == "submitted"',
     "tier1", "caught", "tests/test_acceptance.py"),
    # a refused tx changes nothing only because each contract refuses
    # before it writes; this lock writes the pool before the balance check
    ("lock writes before it refuses", "swapgate/ledger.py",
     "        self._debit(symbol, owner.address, amount)\n"
     "        _add(self.locked, symbol, amount)\n",
     "        _add(self.locked, symbol, amount)\n"
     "        self._debit(symbol, owner.address, amount)\n",
     "tier1", "caught", "tests/test_chain.py"),
    # a receipt's reference is checked for its chain but not its kind: the
    # dangling_user_ref tamper of tests/test_trace_check.py turns a lock's
    # reference into a burn's of the same step
    ("reference check accepts the wrong kind", "swapgate/trace.py",
     'submitted.get(tx[key]) != (tx["kind"], block["chain"])',
     'submitted.get(tx[key], (None, None))[1] != block["chain"]',
     "tier1", "caught", "tests/test_trace_check.py"),
    # the tick's stuck entries are the only requeue list: this runner
    # records them but asks the network to re-attest none
    ("Runner requeues nothing after a tick", "swapgate/scenario.py",
     'for entry in result["stuck"]:',
     "for entry in []:",
     "tier1", "caught", "tests/test_acceptance.py"),
    # a refused user tx registers no swap, so its swap_ids slot stays None
    ("swap id resolved whatever the receipt's status", "swapgate/scenario.py",
     'if handle is not None and receipt.status == "ok":',
     "if handle is not None:",
     "tier1", "caught", "tests/test_run_collector.py"),
    # a mint's receiver comes from the destination chain's table, the one
    # the runner's txs of that account use, so the two share one dict
    ("an attested mint builds its own receiver", "swapgate/ports.py",
     "receiver = account_id(ctx.accounts, self.chain_id, entry.receiver)\n"
     "        # Mint first",
     "receiver = AccountId(self.chain_id, entry.receiver)\n"
     "        # Mint first",
     "tier1", "caught", "tests/test_record_sharing.py"),
    # orjson writes non-ASCII and DEL raw, where json escapes them
    ("canonical bytes kept without the ASCII guard", "swapgate/crypto.py",
     'if raw.isascii() and b"\\x7f" not in raw:',
     "if True:",
     "tier1", "caught", "tests/test_json_codec.py"),
    # orjson reads an int beyond 64 bits as a float
    ("parsed line kept without the round trip", "swapgate/crypto.py",
     "if written == line.encode():",
     "if True:",
     "tier1", "caught", "tests/test_json_codec.py"),
    # a run pauses the cyclic collector and gives it back as it found it
    ("run leaves the collector paused", "swapgate/scenario.py",
     "gc.enable()",
     "pass",
     "tier1", "caught", "tests/test_run_collector.py"),
    ("run turns on a collector its caller had off", "swapgate/scenario.py",
     "            if collecting:\n"
     "                gc.enable()\n",
     "            gc.enable()\n",
     "tier1", "caught", "tests/test_run_collector.py"),
    ("run never pauses the collector", "swapgate/scenario.py",
     "gc.disable()",
     "pass",
     "tier1", "caught", "tests/test_run_collector.py"),
    # a balance or pool that reaches zero keeps its entry
    ("_add keeps zeros", "swapgate/ledger.py",
     "    if total:\n"
     "        counts[key] = total\n"
     "    else:\n"
     "        del counts[key]\n",
     "    counts[key] = total\n",
     "tier1", "caught", "tests/test_ledger.py"),
    # the exactly_once violations of several swaps come out in dict order
    ("exactly-once unsorted", "swapgate/trace.py",
     "for sid, count in sorted(exec_counts.items()) if count > 1]",
     "for sid, count in exec_counts.items() if count > 1]",
     "tier1", "caught", "tests/test_trace_check.py"),
    # the backing rule finds a breach where the origin locks more than the
    # destination has minted of a wrapped token it lists, as while a
    # second lock of a token is in flight, and none where it has minted more
    ("backing comparison reversed", "swapgate/trace.py",
     'if acct["supply"] <= backed:',
     'if acct["supply"] >= backed:',
     "tier1", "caught", "tests/test_trace_check.py"),
    # each chunk is cut at its last newline, which goes to the next line
    ("_lines cuts before its newline", "swapgate/trace.py",
     'cut = chunk.rfind("\\n") + 1',
     'cut = chunk.rfind("\\n")',
     "tier1", "caught", "tests/test_trace_check.py"),
    # a run hashes each account spec once: this memo is never filled, so
    # every step hashes its specs again, with the same addresses
    ("account memo never filled", "swapgate/scenario.py",
     "address = self._addresses[spec] = resolve_address(spec)",
     "address = resolve_address(spec)",
     "tier1", "caught", "tests/test_fixed_cost.py"),
    # this memo hands every spec the address of the first spec it holds
    ("account memo hands back another spec's address", "swapgate/scenario.py",
     "address = self._addresses.get(spec)",
     "address = next(iter(self._addresses.values()), None)",
     "tier1", "caught", "tests/test_record_sharing.py"),
    # the id's preimage with its two user addresses in the wrong order
    ("swap id packs the receiver before the sender", "swapgate/ports.py",
     "sender, receiver, amount, seq)))",
     "receiver, sender, amount, seq)))",
     "tier1", "caught", "tests/test_ports.py"),
    # a stored state builds its accounting once: rebuilt on every call, each
    # record of the state holds its own equal copy, with the same bytes
    ("stored state's accounting rebuilt on every call", "swapgate/gateway.py",
     "    @built_once\n"
     "    def accounting(self) -> dict:\n",
     "    def accounting(self) -> dict:\n",
     "tier1", "caught", "tests/test_record_sharing.py"),
]

SELFCHECK = """
from swapgate.scenario import Runner
from scenario_gen import reorg_scenario

caught = 0
for seed in range(1, 11):
    try:
        Runner(reorg_scenario(seed)).run()
    except RuntimeError as exc:
        caught += "differing:" in str(exc)
print(caught)
"""

# each oracle's outcome on the unmutated tree
CLEAN = {"selfcheck": 0, "tier1": "survives"}


def run_oracle(oracle: str, tree: Path,
               tests: list[str]) -> tuple[int | str, str]:
    """The oracle's outcome on the copy at `tree`, or its error output,
    and a note to print with it; a tier1 run runs only `tests`, if it
    names any."""
    # no bytecode: a mutant and the next one of the same file may share
    # its size and modification time, and so a stale cache entry
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(tree / "src"),
                                           str(tree / "tests")]),
               HYPOTHESIS_PROFILE="ci")
    command = (["-c", SELFCHECK] if oracle == "selfcheck" else
               ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                *tests])
    done = subprocess.run([sys.executable, *command], env=env, cwd=tree,
                          capture_output=True, text=True)
    lines = (done.stdout + done.stderr).strip().splitlines()
    if oracle == "selfcheck":
        return (lines[-1] if done.returncode else int(done.stdout)), ""
    if done.returncode == 0:
        return "survives", ""
    failed = [line.split()[1] for line in lines
              if line.startswith(("FAILED ", "ERROR "))]
    if done.returncode != 1 or not failed:    # not a failing test: an error
        return lines[-1], ""
    return "caught", f"first failure {failed[0]}"


def main() -> int:
    failures = 0

    def report(name: str, oracle: str, expected: int | str,
               tests: list[str]) -> None:
        nonlocal failures
        start = time.perf_counter()
        outcome, note = run_oracle(oracle, tree, tests)
        seconds = time.perf_counter() - start
        ok = outcome == expected
        failures += not ok
        note = f", {note}" if note else ""
        print(f"{'ok' if ok else 'FAIL':4}  {name}: {oracle} {outcome} "
              f"(recorded {expected}; {seconds:.1f} s{note})", flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, tree / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tree)
        for oracle in sorted({entry[4] for entry in MUTANTS}):
            report("unmutated", oracle, CLEAN[oracle], [])
        for name, file, old, new, oracle, expected, *tests in MUTANTS:
            if tests and (oracle, expected) != ("tier1", "caught"):
                failures += 1
                print(f"FAIL  {name}: only a tier1 entry recorded as "
                      f"caught may name a test file")
                continue
            path = tree / "src" / file
            original = path.read_text(encoding="utf-8")
            if original.count(old) != 1:
                failures += 1
                print(f"FAIL  {name}: the old snippet occurs "
                      f"{original.count(old)} times in src/{file}, not once")
                continue
            path.write_text(original.replace(old, new), encoding="utf-8")
            try:
                report(name, oracle, expected, tests)
            finally:
                path.write_text(original, encoding="utf-8")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
