"""Exception types shared across the package, and the one integer rule of its checks."""

import numbers


def is_integer(value) -> bool:
    """Any ``numbers.Integral`` (numpy's integers too) except bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class ConfigError(ValueError):
    """Invalid or inconsistent configuration, raised by the type that owns the value (exit 2)."""


class RunError(RuntimeError):
    """A run that stopped before it finished.

    ``report`` is the partial ``PararealReport`` when ``parareal.run``
    raised the error after the serial reference, and None otherwise.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ChannelClosureError(RunError):
    """Channel half-width fell below the configured minimum (lumen closure)."""


class MicroNonConvergenceError(RunError):
    """Micro problem did not reach a near-periodic state within its cycle limit."""


class PararealNonConvergenceError(RunError):
    """Parareal iteration did not satisfy its stopping criterion within max_iters."""


class GridAlignmentError(ConfigError):
    """Requested a grid node (e.g. the interface midpoint) that does not exist."""


class ImexStepError(RunError):
    """IMEX step whose linear system the solver cannot solve (contraction bound too weak)."""
