import os

import pytest
from hypothesis import settings

from swapgate import (
    AccountId,
    Behavior,
    OracleIdentity,
    OracleNetwork,
    OracleRoster,
    PulseTx,
    SendDataTx,
    StatusController,
    build_chains,
    default_threshold,
)
from swapgate.crypto import DEFAULT_SCHEME, oracle_secret
from swapgate.encoding import payload_hash
from swapgate.nebula import pulse_message

# CI selects a profile with HYPOTHESIS_PROFILE. Push and pull-request runs
# use "ci": the same examples on every run, and no per-example deadline on a
# slow shared runner. The weekly run uses "deep": fresh random examples, ten
# times as many, so the property tests keep searching new interleavings.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.register_profile("deep", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

ALICE = AccountId(0, bytes.fromhex("aa" * 20))
BOB = AccountId(1, bytes.fromhex("bb" * 20))
CAROL = AccountId(0, bytes.fromhex("cc" * 20))


class World:
    """A fully wired two-chain gateway for direct-API tests.

    A chain's finality depth is `fin_depth`, or `fin_depth[chain id]` for
    a dict: the chain refuses a deeper reorg, and the controller finalizes
    the swaps that chain executes at that depth.
    """

    def __init__(self, behaviors=None, seed=99, conf_depth=2, fin_depth=3,
                 timeout=6, window=10, initial=1000):
        behaviors = behaviors or [Behavior.HONEST] * 5
        n = len(behaviors)
        secrets = [oracle_secret(i, seed) for i in range(n)]
        self.roster = OracleRoster(tuple(secrets), default_threshold(n))
        self.token = "T"
        if not isinstance(fin_depth, dict):
            fin_depth = {0: fin_depth, 1: fin_depth}
        self.chains = build_chains(
            self.roster, {0: window, 1: window}, fin_depth,
            [self.token], [(self.token, ALICE, initial)])
        self.network = OracleNetwork(
            [OracleIdentity(i, secrets[i], behaviors[i]) for i in range(n)],
            self.roster,
            {0: conf_depth, 1: conf_depth},
        )
        self.controller = StatusController({0: timeout, 1: timeout})
        self.conf_depth = conf_depth

    @property
    def origin(self):
        return self.chains[0]

    @property
    def destination(self):
        return self.chains[1]

    def attested(self, chain_id, entries, declared_height=0):
        """A pulse signed by every oracle over `entries`, and its reveal."""
        data_hash = payload_hash(entries)
        message = pulse_message(data_hash, declared_height, chain_id)
        signatures = tuple((i, DEFAULT_SCHEME.sign(key, message))
                           for i, key in enumerate(self.roster.keys))
        return (PulseTx(chain_id, data_hash, declared_height, signatures, 0),
                SendDataTx(chain_id, tuple(entries), 0))


@pytest.fixture
def world():
    return World()
