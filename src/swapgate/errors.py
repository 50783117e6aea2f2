"""Error hierarchy shared by the gateway contracts and the scenario tooling.

Contract-level errors carry a stable ``code`` string, the class name, so
that failed transactions can be recorded in blocks and traces without
losing the reason.
"""


class GatewayError(Exception):
    """Base for every recoverable contract/protocol error."""

    code = "GatewayError"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__

    def __str__(self) -> str:
        detail = super().__str__()
        return f"{self.code}: {detail}" if detail else self.code


# --- ledger ---------------------------------------------------------------

class InsufficientBalance(GatewayError):
    pass


class InsufficientLocked(GatewayError):
    pass


class ZeroAmount(GatewayError):
    pass


class WrongChain(GatewayError):
    pass


class NotAuthorized(GatewayError):
    pass


class NotWrappedToken(GatewayError):
    pass


class UnknownToken(GatewayError):
    pass


# --- chain ----------------------------------------------------------------

class UnknownBranch(GatewayError):
    pass


class HeightBeyondTip(GatewayError):
    pass


class BeyondFinality(GatewayError):
    pass


# --- ports ----------------------------------------------------------------

class WrongChainReceiver(GatewayError):
    pass


class AmountTooLarge(GatewayError):
    pass


class DuplicateExecution(GatewayError):
    pass


class UnknownSwap(GatewayError):
    pass


# --- nebula ---------------------------------------------------------------

class InsufficientSignatures(GatewayError):
    pass


class InvalidSignature(GatewayError):
    pass


class StaleHeight(GatewayError):
    pass


class FutureHeight(GatewayError):
    pass


class DuplicatePulse(GatewayError):
    pass


class UnknownPulse(GatewayError):
    pass


class MalformedPayload(GatewayError):
    pass


# --- scenario tooling -----------------------------------------------------

class InvalidScenario(Exception):
    """Scenario file or timeline violates a validation rule. CLI exit 2."""


class MalformedTrace(Exception):
    """Trace file cannot be parsed or is structurally incomplete. CLI exit 2."""
