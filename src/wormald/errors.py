"""Exception hierarchy shared by all modules.

Two families matter to callers: :class:`ContractError` means the caller
violated an API contract (bad dimensions, out-of-range arguments), while
:class:`NumericalError` and its subclasses mean a computation failed for
numerical reasons (a non-finite drift or state, degenerate data).  The CLI
maps the first family to exit code 2 and the second to exit code 3.
:func:`_size` is the one rule by which every size, index and seed the
package takes is checked.
"""

import operator


class WormaldError(Exception):
    """Base class for all errors raised by this package."""


class ContractError(WormaldError, ValueError):
    """An API precondition was violated by the caller."""


def _size(name: str, value, least) -> int:
    """``value`` as a Python int, or :class:`ContractError` naming ``name``.

    A size is a Python or numpy int (anything with ``__index__``) that is
    not a ``bool`` and, unless ``least`` is None, is at least ``least``.
    Floats are refused even when integral, so that ``100.5`` and ``1e5``
    alike are caught rather than truncated.
    """
    # An exact int is tested first: it is the common case, and hasattr is slow.
    if type(value) is int or hasattr(value, "__index__") and not isinstance(value, bool):
        index = operator.index(value)
        if least is None or index >= least:
            return index
    bound = "" if least is None else f" >= {least}"
    raise ContractError(f"{name} must be an integer{bound}, got {value!r}")


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


class FitError(NumericalError):
    """A regression could not be fitted (zero spread or degenerate data)."""
