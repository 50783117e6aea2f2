"""swapgate: a deterministic two-chain token gateway simulator.

Two simulated blockchains are connected by a lock-unlock port on the origin
chain and an issue-burn port on the destination chain. An oracle network
extracts confirmed port events, agrees on a payload, and delivers it through
a threshold-verified commit/reveal contract. A status controller finalizes
swaps once their execution is buried deep enough and re-attests swaps that
got stuck, while the scenario runner drives everything on a scripted,
fully replayable timeline.
"""

from .chain import Block, BlockRef, Chain, ChainEvent, EventKind
from .controller import StatusController
from .encoding import (
    Direction,
    PayloadEntry,
    decode_payload,
    encode_payload,
    payload_hash,
)
from .errors import GatewayError, InvalidScenario, MalformedTrace
from .gateway import (
    BurnTx,
    GatewayState,
    LockTx,
    PulseTx,
    SendDataTx,
    build_chains,
)
from .ledger import AccountId, Ledger, TokenId, wrapped_symbol
from .nebula import (
    NEBULA_ADDRESS,
    NebulaState,
    OracleRoster,
    default_threshold,
    pulse_message,
)
from .oracles import (
    ATTACKER_ADDRESS,
    Behavior,
    OracleIdentity,
    OracleNetwork,
)
from .ports import (
    IB_PORT_ADDRESS,
    LU_PORT_ADDRESS,
    IssueBurnPort,
    LockUnlockPort,
    SwapStatus,
    derive_swap_id,
)
from .scenario import Runner, RunResult, Scenario
from .trace import check_trace, evaluate_records, parse_trace, write_trace

__version__ = "0.1.0"
