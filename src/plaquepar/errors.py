"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid or inconsistent scenario/schedule configuration."""


class ChannelClosureError(RuntimeError):
    """Channel half-width fell below the configured minimum (lumen closure)."""


class MicroNonConvergenceError(RuntimeError):
    """Micro problem did not reach a near-periodic state within its cycle limit."""


class PararealNonConvergenceError(RuntimeError):
    """Parareal iteration did not satisfy its stopping criterion within max_iters."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class GridAlignmentError(ValueError):
    """Requested a grid node (e.g. the interface midpoint) that does not exist."""
