"""Exception types shared across the package, and the rules of its parameter checks.

The rules run when a parameter object is built, never per step.
"""

import numbers
from sys import float_info


def is_integer(value) -> bool:
    """Any ``numbers.Integral`` (numpy's integers too) except bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Any ``numbers.Real`` (numpy's floats and integers too) except bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """A real (not bool) of size at most ``float_info.max``; a Python int compares exactly
    (``10**400 < math.inf``), any other real as ``float(value)`` (no bound cast to float32)."""
    return is_real(value) and abs(value if isinstance(value, int)
                                  else float(value)) <= float_info.max


def shown(value) -> str:
    """value as a message shows it: a real number (numpy's too) as ``str``, anything
    else as ``repr``, so that a string reads quoted and not as a number."""
    try:
        return str(value) if is_real(value) else repr(value)
    except ValueError:  # past Python's digit limit for str: an integer, or one in a container
        return (f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
                if is_integer(value) else f"a {type(value).__name__} too long to show")


class ConfigError(ValueError):
    """Invalid or inconsistent configuration, raised by the type that owns the value (exit 2)."""


def check_integer(name: str, value, least: int):
    """The integer rule: ``is_integer(value)`` and value >= least, else ConfigError."""
    if not (is_integer(value) and value >= least):
        raise ConfigError(f"{name} must be an integer >= {least}, got {shown(value)}")


def check_processes(P, N_l):
    """The process-count rule: integers N_l and P with 1 <= P <= N_l, else ConfigError."""
    check_integer("N_l", N_l, 1)
    check_integer("P", P, 1)
    if P > N_l:
        raise ConfigError(f"P must satisfy 1 <= P <= N_l={shown(N_l)}, got {shown(P)}")


def check_number(name: str, value, zero_ok: bool = False):
    """The number rule: ``is_finite(value)`` and value above zero, or at zero too when
    ``zero_ok``, else ConfigError."""
    if not (is_finite(value) and (0 <= value if zero_ok else 0 < value)):
        sign = "non-negative" if zero_ok else "positive"
        raise ConfigError(f"{name} must be {sign} and finite, got {shown(value)}")


def check_choice(name: str, value, choices: tuple):
    """The choice rule: value is one of ``choices``, else ConfigError.  Only a string
    or a real number (not bool) can be one, so an array never compares its way in."""
    if not ((isinstance(value, str) or is_real(value)) and value in choices):
        raise ConfigError(f"{name} must be one of {choices}, got {shown(value)}")


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
