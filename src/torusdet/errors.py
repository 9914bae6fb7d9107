"""Exception types shared across the package.

The split matters for the CLI, which maps invalid input and numerical
failures to distinct exit codes.  The argument checks shared by several
entry points live here too, so each range is stated once.
"""

import math
import operator


class TorusdetError(Exception):
    """Base class for all package errors."""


class InputError(TorusdetError, ValueError):
    """Invalid arguments: bad grids, out-of-range parameters, size caps."""


class NumericalError(TorusdetError, RuntimeError):
    """Quadrature or another numerical subroutine failed to converge."""


class FitDegenerateError(NumericalError):
    """Least-squares design matrix is rank deficient or too ill-conditioned."""


class TailModelError(NumericalError):
    """A declared tail basis cannot represent the sampled tail behaviour."""


def check_integer(name: str, value) -> int:
    """``value`` as an int, numpy integers included; InputError otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None


def check_dimension(m: int) -> None:
    """Reject torus dimensions outside the supported range 1..4."""
    if not (1 <= check_integer("dimension m", m) <= 4):
        raise InputError(f"dimension m must be in 1..4, got {m}")


def check_resolvent_parameter(z: float, alpha: int,
                              log_scale: float = 0.0) -> None:
    """Reject a resolvent parameter z that is not finite and positive.

    A z whose largest trace term, ``exp(log_scale) z^(-2 alpha)``, leaves
    the float range is a numerical failure, caught before any evaluation.
    """
    if not (math.isfinite(z) and z > 0):
        raise InputError(f"resolvent parameter z must be finite and positive, "
                         f"got {z}")
    if log_scale - 2 * alpha * math.log(z) > 708.0:
        raise NumericalError(f"trace at z = {z} exceeds the float range")
