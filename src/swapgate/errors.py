"""Error hierarchy shared by the gateway contracts and the scenario tooling.

Contract-level errors carry a stable ``code`` string so that failed
transactions can be recorded in blocks and traces without losing the reason.
"""


class GatewayError(Exception):
    """Base for every recoverable contract/protocol error."""

    code = "GatewayError"

    def __str__(self) -> str:
        detail = super().__str__()
        return f"{self.code}: {detail}" if detail else self.code


# --- ledger ---------------------------------------------------------------

class InsufficientBalance(GatewayError):
    code = "InsufficientBalance"


class InsufficientLocked(GatewayError):
    code = "InsufficientLocked"


class ZeroAmount(GatewayError):
    code = "ZeroAmount"


class WrongChain(GatewayError):
    code = "WrongChain"


class NotAuthorized(GatewayError):
    code = "NotAuthorized"


class NotWrappedToken(GatewayError):
    code = "NotWrappedToken"


class UnknownToken(GatewayError):
    code = "UnknownToken"


# --- chain ----------------------------------------------------------------

class UnknownBranch(GatewayError):
    code = "UnknownBranch"


class HeightBeyondTip(GatewayError):
    code = "HeightBeyondTip"


class BeyondFinality(GatewayError):
    code = "BeyondFinality"


# --- ports ----------------------------------------------------------------

class WrongChainReceiver(GatewayError):
    code = "WrongChainReceiver"


class AmountTooLarge(GatewayError):
    code = "AmountTooLarge"


class DuplicateExecution(GatewayError):
    code = "DuplicateExecution"


class UnknownSwap(GatewayError):
    code = "UnknownSwap"


# --- nebula ---------------------------------------------------------------

class InsufficientSignatures(GatewayError):
    code = "InsufficientSignatures"


class InvalidSignature(GatewayError):
    code = "InvalidSignature"


class StaleHeight(GatewayError):
    code = "StaleHeight"


class FutureHeight(GatewayError):
    code = "FutureHeight"


class DuplicatePulse(GatewayError):
    code = "DuplicatePulse"


class UnknownPulse(GatewayError):
    code = "UnknownPulse"


class MalformedPayload(GatewayError):
    code = "MalformedPayload"


# --- scenario tooling -----------------------------------------------------

class InvalidScenario(Exception):
    """Scenario file or timeline violates a validation rule. CLI exit 2."""


class MalformedTrace(Exception):
    """Trace file cannot be parsed or is structurally incomplete. CLI exit 2."""
