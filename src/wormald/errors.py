"""Exception hierarchy shared by all modules.

Two families matter to callers: :class:`ContractError` means the caller
violated an API contract (bad dimensions, out-of-range arguments), while
:class:`NumericalError` and its subclasses mean a computation failed for
numerical reasons (divergence, an exceeded cap, degenerate data).  The CLI
maps the first family to exit code 2 and the second to exit code 3.
"""


class WormaldError(Exception):
    """Base class for all errors raised by this package."""


class ContractError(WormaldError, ValueError):
    """An API precondition was violated by the caller."""


class NumericalError(WormaldError, RuntimeError):
    """A computation failed for numerical reasons."""


class DriftEvaluationError(NumericalError):
    """A drift function returned a non-finite value."""


class DivergenceError(NumericalError):
    """The ODE state became non-finite during integration."""

    def __init__(self, message: str, s: float):
        super().__init__(message)
        self.s = s


class EstimationError(NumericalError):
    """A sampling-based estimate could not be formed (e.g. all pairs degenerate)."""


class CapExceededError(NumericalError):
    """A hard iteration cap was exceeded (guards against generator pathology)."""


class FitError(NumericalError):
    """A regression could not be fitted (zero spread or degenerate data)."""
