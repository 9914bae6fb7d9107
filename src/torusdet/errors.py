"""Exception types shared across the package.

The split matters for the CLI, which maps invalid input and numerical
failures to distinct exit codes.  The argument checks shared by several
entry points live here too, so each range is stated once.
"""

import math


class TorusdetError(Exception):
    """Base class for all package errors."""


class InputError(TorusdetError, ValueError):
    """Invalid arguments: bad grids, out-of-range parameters, size caps."""


class FitDegenerateError(TorusdetError, RuntimeError):
    """Least-squares design matrix is rank deficient or too ill-conditioned."""


class TailModelError(TorusdetError, RuntimeError):
    """A declared tail basis cannot represent the sampled tail behaviour."""


class NumericalError(TorusdetError, RuntimeError):
    """Quadrature or another numerical subroutine failed to converge."""


def check_dimension(m: int) -> None:
    """Reject torus dimensions outside the supported range 1..4."""
    if not (1 <= m <= 4):
        raise InputError(f"dimension m must be in 1..4, got {m}")


def check_resolvent_parameter(z: float) -> None:
    """Reject a resolvent parameter z that is not finite and positive."""
    if not (math.isfinite(z) and z > 0):
        raise InputError(f"resolvent parameter z must be finite and positive, "
                         f"got {z}")
