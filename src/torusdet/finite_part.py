"""Hadamard finite-part (regularized) integrals.

The regularized integral of f over (0, a], [A, inf) or (0, inf) is the
regularized limit of the partial integrals as the moving endpoint tends to
0 or infinity.  For the power-log terms ``z**alpha log(z)**k`` the moving
boundary term has no constant coefficient in its own expansion, so the
finite part is read off the antiderivative at the fixed endpoint alone.

Numerically, an integral over (0, inf) is split into an adaptive-quadrature
core on a window [a, A] and two tail contributions.  Each tail is either a
caller-declared expansion or a least-squares fit of a declared basis to
samples at geometric points beyond the window, integrated term by term in
closed form.  The reported error combines the quadrature estimate with the
tail-fit residual scaled by the window endpoint.

The log-determinant integrand ``z**(2m-1)`` times a resolvent trace needs
neither window nor tail: it goes as a constant over z at both ends, whose
finite parts over (0, 1] and [1, inf) vanish, so z = 1/x folds it into one
quadrature over (0, 1].
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy

from .errors import InputError, NumericalError, TailModelError, check_integer
from .expansion import (TO_INFINITY, TO_ZERO, BasisSpec, Expansion, Samples,
                        fit_expansion)

DEFAULT_WINDOW = (1e-3, 64.0)
DEFAULT_QUAD_TOL = 1e-10
TAIL_SAMPLE_RATIO = 2.0
TAIL_EXTRA_POINTS = 4
TAIL_RESIDUAL_REL = 1e-6
FAR_Z = 1e16   # m lam_max / z^2 is below rounding, z^(-2m) a normal float


def antiderivative_term(alpha: float, k: int, x: float) -> float:
    """Antiderivative of ``z**alpha * log(z)**k`` evaluated at ``x > 0``.

    For alpha != -1 this is
    ``sum_{j=0}^{k} (-1)^j k!/(k-j)! log(x)**(k-j) / (alpha+1)**(j+1) * x**(alpha+1)``
    and for alpha == -1 it is ``log(x)**(k+1) / (k+1)``.
    """
    if x <= 0:
        raise InputError("antiderivative argument must be positive")
    if check_integer("log power k", k) < 0:
        raise InputError("log power must be non-negative")
    lx = math.log(x)
    if alpha == -1.0:
        return lx ** (k + 1) / (k + 1)
    ap1 = alpha + 1.0
    total = 0.0
    fact = 1.0  # k!/(k-j)!
    for j in range(k + 1):
        total += (-1.0) ** j * fact * lx ** (k - j) / ap1 ** (j + 1)
        fact *= k - j
    return total * x ** ap1


def finite_part_tail_inf(alpha: float, k: int, A: float) -> float:
    """Finite part of the integral of ``z**alpha log(z)**k`` over [A, inf).

    The antiderivative at the moving endpoint R carries only terms
    ``R**(alpha+1) log(R)**j`` (or pure log powers when alpha == -1), whose
    constant coefficient vanishes, so the finite part is ``-F(A)``.  This is
    the ordinary convergent integral when alpha < -1.
    """
    return -antiderivative_term(alpha, k, A)


def finite_part_tail_zero(alpha: float, k: int, a: float) -> float:
    """Finite part of the integral of ``z**alpha log(z)**k`` over (0, a].

    The boundary terms at the moving endpoint eps have vanishing constant
    coefficient as eps -> 0, leaving ``F(a)``.
    """
    return antiderivative_term(alpha, k, a)


@dataclass
class RegIntResult:
    """Finite-part integral value with its exact decomposition.

    ``value`` is computed as the literal float sum of the three parts, so
    the decomposition identity holds bitwise.
    """

    value: float
    core_part: float
    tail_zero_part: float
    tail_inf_part: float
    error_estimate: float


def _quad(f, a, b, tol):
    """The package's one adaptive quadrature, ``tol`` absolute and relative.

    ``scipy.integrate`` is looked up here, at the call, so it loads on the
    first quadrature and not at ``import torusdet``.  An IntegrationWarning
    or a non-finite value raises NumericalError.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", scipy.integrate.IntegrationWarning)
        try:
            val, err = scipy.integrate.quad(f, a, b, epsabs=tol,
                                            epsrel=tol, limit=400)
        except scipy.integrate.IntegrationWarning as exc:
            raise NumericalError(f"quadrature on [{a}, {b}] failed: {exc}") from exc
    if not math.isfinite(val):
        raise NumericalError(f"quadrature on [{a}, {b}] returned {val}")
    return val, err


def fit_tail(f: Callable[[float], float], side: str, anchor: float,
             basis: BasisSpec):
    """Fit a tail basis to f sampled at geometric points beyond the anchor.

    Returns ``(coefficients, rms_residual)``.  Raises TailModelError when
    the relative residual exceeds ``TAIL_RESIDUAL_REL``, which signals that
    the declared basis cannot represent the actual tail.
    """
    npts = len(basis) + TAIL_EXTRA_POINTS
    if side == "infinity":
        if not math.isfinite(anchor * TAIL_SAMPLE_RATIO ** npts):
            raise NumericalError(f"tail samples beyond {anchor:g} overflow")
        xs = anchor * TAIL_SAMPLE_RATIO ** np.arange(1, npts + 1)
    elif side == "zero":
        xs = anchor / TAIL_SAMPLE_RATIO ** np.arange(npts, 0, -1)
    else:
        raise InputError(f"unknown tail side {side!r}")
    ys = np.array([f(float(x)) for x in xs], dtype=float)
    samples = Samples(xs, ys)
    coeffs, report = fit_expansion(samples, basis, cond_cap=math.inf)
    scale = float(np.max(np.abs(ys))) if len(ys) else 0.0
    if scale > 0 and report.rms_residual > TAIL_RESIDUAL_REL * scale:
        raise TailModelError(
            f"tail fit residual {report.rms_residual:.3g} exceeds "
            f"{TAIL_RESIDUAL_REL:.1g} of sample scale {scale:.3g} on side {side!r}")
    return coeffs, report.rms_residual


def _tail_part(f, side, anchor, tail):
    """Tail finite part plus an error term.

    ``tail`` is a declared ``Expansion``, which must point toward the
    side's limit point and carries no error, or a ``BasisSpec`` fitted by
    ``fit_tail``, whose error is the fit residual scaled by the anchor.
    """
    if isinstance(tail, Expansion):
        want = TO_ZERO if side == "zero" else TO_INFINITY
        if tail.direction != want:
            raise InputError(f"tail on side {side!r} needs a {want} expansion")
        coeffs = {(t.alpha, t.k): t.coeff for t in tail.terms}
        err = 0.0
    elif tail is None:
        raise InputError(
            f"no tail treatment on side {side!r}: pass a basis or a declared "
            "expansion")
    else:
        coeffs, rms = fit_tail(f, side, anchor, tail)
        err = rms * anchor
    fp = finite_part_tail_zero if side == "zero" else finite_part_tail_inf
    return math.fsum(c * fp(a, k, anchor) for (a, k), c in coeffs.items()), err


def reg_integral(f: Callable[[float], float], window=DEFAULT_WINDOW,
                 basis_zero: BasisSpec | Expansion | None = None,
                 basis_inf: BasisSpec | Expansion | None = None,
                 quad_tol: float = DEFAULT_QUAD_TOL) -> RegIntResult:
    """Finite-part integral of f over (0, inf).

    The core on ``window = [a, A]``, ``0 < a < A < inf``, is adaptive
    quadrature.  Each tail is a declared ``Expansion`` integrated term by
    term, or a ``BasisSpec`` fitted at geometric sample points outside the
    window and integrated likewise.
    """
    a, A = float(window[0]), float(window[1])
    if not (0 < a < A < math.inf):
        raise InputError(f"window must satisfy 0 < a < A < inf, got {window}")

    core, quad_err = _quad(f, a, A, quad_tol)
    tz, tz_err = _tail_part(f, "zero", a, basis_zero)
    ti, ti_err = _tail_part(f, "infinity", A, basis_inf)
    value = core + tz + ti
    return RegIntResult(value=value, core_part=core, tail_zero_part=tz,
                        tail_inf_part=ti,
                        error_estimate=quad_err + tz_err + ti_err)


def logdet_via_regint(trace, m: int, kernel_dim: int, *,
                      window_end: float = 64.0,
                      nonzero_modes: float | None = None) -> float:
    """Log-determinant from the finite-part resolvent-trace integral.

    Evaluates ``-2 * fp-integral of z**(2m-1) * trace(z, m) over (0, inf)``
    for a finite spectrum: ``trace(z, alpha)`` is the resolvent trace, which
    behaves like ``kernel_dim * z**(-2m)`` as z -> 0 and like
    ``N * z**(-2m)`` as z -> inf, with N the total mode count.  A trace with
    no finite mode count, such as the continuum torus's, ends in
    NumericalError; ``smooth.logdet_zeta_via_regint`` is its route.

    For m >= 2 the iterated integration by parts that raises the trace
    power from 1 to m leaves boundary terms: per nonzero eigenvalue the
    finite part of ``-2 int z**(2m-1) (lam + z^2)^(-m)`` is
    ``log(lam) + H_{m-1}`` with the harmonic number ``H_{m-1}``, so the
    returned value subtracts ``H_{m-1} * (N - kernel_dim)``.

    ``window_end`` and ``nonzero_modes`` do not change the value: the
    integral has no window, and N is measured.  They remain only because
    ``bench/workloads.py`` and ``bench/run.py`` pass them.
    """
    return _logdet_regint(lambda z: z ** (2 * m - 1) * trace(z, m), m,
                          kernel_dim)


def _logdet_regint(g, m, kernel_dim):
    """``logdet_via_regint`` of ``g(z) = z**(2m-1) * trace``.

    With ``g ~ k/z`` at 0 and ``g ~ N/z`` at infinity, the map z = 1/x
    folds [1, inf) onto (0, 1], and the finite parts of both 1/z terms
    vanish there (log 1 = 0): the finite part over (0, inf) is the
    integral over (0, 1] of ``g(x) - k/x + g(1/x)/x^2 - N/x``.  N is
    ``z g(z)`` at ``FAR_Z``; where it differs at ``FAR_Z / 100``, the
    trace has no finite mode count and NumericalError says so.
    """
    if m < 1:
        raise InputError("dimension m must be >= 1")
    if kernel_dim < 0:
        raise InputError("kernel dimension must be >= 0")
    kd = float(kernel_dim)
    modes, near = (z * g(z) for z in (FAR_Z, FAR_Z / 100))
    if not math.isclose(modes, near, rel_tol=DEFAULT_QUAD_TOL):
        raise NumericalError(
            f"the trace has no finite mode count: z g(z) is {near:.6g} at "
            f"z = {FAR_Z / 100:g}, {modes:.6g} at {FAR_Z:g}")

    def folded(x):
        return g(x) - kd / x + (g(1.0 / x) / x - modes) / x

    fp, _ = _quad(folded, 0.0, 1.0, DEFAULT_QUAD_TOL)
    harmonic = math.fsum(1.0 / j for j in range(1, m))
    return -2.0 * fp - harmonic * (modes - kd)
