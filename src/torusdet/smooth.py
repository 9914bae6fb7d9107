"""Continuum torus references: heat traces, zeta determinants, eigenvalue
products, and convergence of the discrete resolvent traces.

The flat m-torus (product of unit circles) has Laplace spectrum
``|k|^2, k in Z^m`` with a one-dimensional kernel.  Its zeta function and
its resolvent traces are the heat-trace Mellin transform split at one point
(Ewald 1921; Crandall 1998): a lattice series of incomplete gamma functions
over one table of shells plus closed-form terms, with no quadrature.  Two
independent routes to the log-determinant are provided: the zeta
continuation (the reference oracle), and the finite-part resolvent-trace
integral evaluated with the machinery used for the discrete tori, whose
tail beyond the window is the trace's declared lead term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import (InputError, NumericalError, check_dimension,
                     check_resolvent_parameter)
from .expansion import (TO_INFINITY, BasisSpec, Expansion, Samples,
                        extract_reglimit)
from .discrete import MAX_SUM_LATTICE
from . import finite_part

EULER_GAMMA = float(np.euler_gamma)
THETA_LOG_EPS = 40.0     # theta sums drop Gaussian terms below exp(-40)
SMOOTH_POINTS = 41       # cutoffs per eigenproduct smoothing window
SMOOTH_HALFWIDTH = 1.2   # the window spans [Lambda/1.2, Lambda*1.2]
EWALD_SPLIT = 0.2        # Mellin split c of the trace: drops exp(-pi^2/c) = 4e-22
TRACE_SHELLS = 250       # squared norms in the trace: drops < 1e-17 for m <= 4
EWALD_TAIL = 1e-17       # shell weight below which the trace is its lead term
ZETA_SHELLS = 60         # squared norms kept in the zeta lattice series
GAMMA_OVERFLOW = 171.0   # Gamma(x) overflows a double just above x = 171.6


def _theta1_direct(t: float) -> float:
    j_max = int(math.ceil(math.sqrt(THETA_LOG_EPS / t)))
    j = np.arange(1, j_max + 1)
    return 1.0 + 2.0 * float(np.sum(np.exp(-t * j * j)))


def theta1(t: float) -> float:
    """One-dimensional Gaussian lattice sum ``sum_j exp(-t j^2)``.

    For t < 1 the modular identity ``theta1(t) = sqrt(pi/t) theta1(pi^2/t)``
    turns the slowly converging sum into a rapidly converging one.
    """
    if t <= 0:
        raise InputError("theta argument must be positive")
    if t < 1.0:
        return math.sqrt(math.pi / t) * _theta1_direct(math.pi ** 2 / t)
    return _theta1_direct(t)


def theta_function(m: int, t: float) -> float:
    """Heat trace of the m-torus, ``theta1(t)**m``."""
    check_dimension(m)
    return theta1(t) ** m


def _min_alpha(m: int) -> int:
    return (m + 2) // 2  # smallest integer alpha with alpha > m/2


@lru_cache(maxsize=None)
def _shells(m: int, r2max: int):
    """Squared norms ``0..r2max`` that occur in Z^m, zero first, with their
    multiplicities: the one-axis counts (1 at 0, 2 at k^2) convolved m times."""
    axis = np.zeros(r2max + 1, dtype=np.int64)
    axis[np.arange(math.isqrt(r2max) + 1) ** 2] = 2
    axis[0] = 1
    counts = axis
    for _ in range(m - 1):
        counts = np.convolve(counts, axis)[:r2max + 1]
    norms = np.flatnonzero(counts)
    return norms, counts[norms]


def _lead(m: int, alpha: int) -> float:
    """``pi^(m/2) Gamma(alpha - m/2) / Gamma(alpha)``; times ``z^(m - 2 alpha)``
    it is the trace's whole-space integral."""
    return math.pi ** (m / 2.0) * math.exp(
        math.lgamma(alpha - m / 2.0) - math.lgamma(alpha))


def _lead_radius(alpha: int) -> float:
    """The z beyond which the trace is its whole-space term to rounding: every
    shell's weight ``Q(alpha, c (|k|^2 + z^2))`` is below ``EWALD_TAIL``."""
    return math.sqrt(float(special.gammainccinv(alpha, EWALD_TAIL)) / EWALD_SPLIT)


def resolvent_trace_continuum(m: int, z: float, alpha: int) -> float:
    """``sum over Z^m of (|k|^2 + z^2)^(-alpha)``.

    The Mellin integral ``int t^(alpha-1) e^(-z^2 t) theta1(t)^m dt / Gamma(alpha)``
    split at ``t = c`` (Ewald 1921; Crandall 1998): above c, shell by shell,
    ``sum r_m(|k|^2) (|k|^2+z^2)^(-alpha) Q(alpha, c(|k|^2+z^2))``; below c,
    after the modular transform, ``_lead(m, alpha) z^(m-2 alpha) P(nu, c z^2)``
    with ``nu = alpha - m/2``, dropping terms ``exp(-pi^2/c)`` times smaller.
    A shell of squared norm r^2 weighs less than ``exp(-c r^2)`` times the
    k = 0 shell, so the ``TRACE_SHELLS`` table serves every alpha and z.
    """
    check_dimension(m)
    if alpha < _min_alpha(m):
        raise InputError(
            f"alpha = {alpha} gives a divergent trace for m = {m}; "
            f"need alpha >= {_min_alpha(m)}")
    check_resolvent_parameter(z, alpha)   # the k = 0 term z^(-2 alpha)
    norms, counts = _shells(m, TRACE_SHELLS)
    z2 = z * z
    x = norms + z2
    shells = math.fsum((counts * x ** -float(alpha)
                        * special.gammaincc(alpha, EWALD_SPLIT * x)).tolist())
    whole = (_lead(m, alpha) * z ** (m - 2 * alpha)
             * float(special.gammainc(alpha - m / 2.0, EWALD_SPLIT * z2)))
    return whole + shells


# -- zeta function and determinant ------------------------------------------

def _upper_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """The upper incomplete gamma function ``Gamma(a, x)`` for real a, x > 0.

    Below a = 0 it steps down from ``[0, 1)`` by the recurrence
    ``Gamma(a, x) = (Gamma(a+1, x) - x^a e^(-x)) / a``.
    """
    steps = max(0, math.ceil(-a))
    base = a + steps
    g = (special.exp1(x) if base == 0 else
         special.gammaincc(base, x) * special.gamma(base))
    for j in range(steps - 1, -1, -1):
        g = (g - x ** (a + j) * np.exp(-x)) / (a + j)
    return g


def _gamma_series(m: int, a: float, c: float) -> float:
    """``sum over nonzero k of |k|^(-2a) Gamma(a, c |k|^2)``.

    The Mellin tail ``int_c^inf t^(a-1) (theta1(t)^m - 1) dt``, summed
    Gaussian by Gaussian (Crandall 1998); shells beyond ``ZETA_SHELLS``
    weigh less than ``exp(-c ZETA_SHELLS)``.
    """
    norms, counts = (v[1:] for v in _shells(m, ZETA_SHELLS))
    return math.fsum(counts * norms ** -float(a) * _upper_gamma(a, c * norms))


def _h_analytic(m: int, s: float) -> float:
    """The regular part of ``Gamma(s) zeta(s)`` after removing the -1/s pole."""
    g = math.pi ** (2 * s - m) * _gamma_series(m, m / 2.0 - s, math.pi ** 2)
    return (math.pi ** (m / 2.0) / (s - m / 2.0)
            + math.pi ** (m / 2.0) * g + _gamma_series(m, s, 1.0))


def zeta_continued(m: int, s: float) -> float:
    """Spectral zeta function of the m-torus by Mellin continuation.

    Splits the heat-trace Mellin transform at t = 1 and applies the modular
    transform on (0, 1), which isolates the single pole at s = m/2 and the
    kernel pole at s = 0 analytically; both remaining tails are entire
    lattice series.  Valid for real s != m/2; the factor ``1/Gamma(s+1)``
    gives the analytic limit -1 at s = 0 and the zeros at negative
    integers.  An s whose evaluation leaves the float range (about
    ``|s| > 171``) raises NumericalError.
    """
    check_dimension(m)
    if s == m / 2.0:
        raise InputError(f"s = m/2 = {s} is the pole of the zeta function")
    value = math.nan     # beyond it the series overflows and its recurrence
    if abs(s) < GAMMA_OVERFLOW:     # would take about |s| steps
        value = (-1.0 + s * _h_analytic(m, s)) * float(special.rgamma(s + 1.0))
    if not math.isfinite(value):
        raise NumericalError(f"zeta at s = {s} leaves the float range")
    return value


@lru_cache(maxsize=None)
def log_det_zeta(m: int) -> float:
    """Zeta-regularized log-determinant ``-zeta'(0)`` of the torus Laplacian.

    With ``Gamma(s) zeta(s) = -1/s + h(s)`` and h analytic at 0,
    ``zeta'(0) = h(0) - EulerGamma``.
    """
    check_dimension(m)
    return EULER_GAMMA - _h_analytic(m, 0.0)


def logdet_zeta_via_regint(m: int, *, window_end: float = 64.0) -> float:
    """Log-determinant via the finite-part resolvent-trace integral.

    Independent route: must agree with ``log_det_zeta(m)``.  Beyond
    ``window_end`` the integrand ``z^(2m-1)`` times the trace is its lead
    term ``pi^(m/2) Gamma(m/2)/Gamma(m) z^(m-1)`` to rounding, which is the
    declared tail; a ``window_end`` below that floor (about 14 to 15.7 for
    m = 1..4) is refused.
    """
    check_dimension(m)
    floor = _lead_radius(m)
    if not window_end >= floor:
        raise InputError(f"window_end must be at least {floor:.4g} for m = {m}, "
                         "where the trace reaches its lead term")
    tail = Expansion(TO_INFINITY, ((m - 1.0, 0, _lead(m, m)),))
    return finite_part._logdet_regint(
        lambda z, a: resolvent_trace_continuum(m, z, int(a)), m, 1,
        window_end, None, tail)


# -- eigenvalue enumeration and partial products -----------------------------

def _lattice_norms_sq(m: int, r2max: int) -> np.ndarray:
    """Squared norms of all nonzero lattice points with ``|k|^2 <= r2max``.

    Multiplicities are kept by repetition; the array is returned sorted,
    which realizes the ascending eigenvalue order (ties are norm-equal, so
    any tie order yields the same partial sums).
    """
    kmax = int(math.isqrt(r2max))
    parts = []
    if m == 1:
        k = np.arange(1, kmax + 1, dtype=np.int64)
        sq = k * k
        sq = sq[sq <= r2max]
        parts.append(np.repeat(sq, 2))
    else:
        ranges = [np.arange(-kmax, kmax + 1, dtype=np.int64)] * (m - 1)
        inner = np.arange(-kmax, kmax + 1, dtype=np.int64) ** 2
        import itertools as _it
        for outer in _it.product(*ranges):
            base = sum(int(c) * int(c) for c in outer)
            if base > r2max:
                continue
            row = base + inner
            row = row[row <= r2max]
            row = row[row > 0] if base == 0 else row
            parts.append(row)
    if not parts:
        return np.empty(0, dtype=np.int64)
    norms = np.concatenate(parts)
    del parts   # free the rows before sorting
    norms.sort()
    return norms


def partial_log_product(m: int, mode: str, parameter) -> float:
    """Log of a finite product of nonzero torus eigenvalues.

    ``mode = "by_cutoff"``: product over ``0 < |k| <= parameter``.
    ``mode = "by_count"``: product of the first ``parameter`` eigenvalues in
    ascending order (ties within an eigenvalue shell are norm-equal, so the
    documented lexicographic tie-break does not change the value).
    """
    check_dimension(m)
    if mode == "by_cutoff":
        lam = float(parameter)
        if lam < 1:
            raise InputError("cutoff must be >= 1")
        _check_enumeration(m, mode, lam)
        norms = _lattice_norms_sq(m, int(math.floor(lam * lam)))
        return float(np.sum(np.log(norms.astype(float))))
    if mode == "by_count":
        count = int(parameter)
        if count < 1:
            raise InputError("count must be >= 1")
        _check_enumeration(m, mode, count)
        # start at the radius whose ball holds about `count` points
        r2 = int((count / _ball_volume(m)) ** (2.0 / m)) + 4
        while True:
            norms = _lattice_norms_sq(m, r2)
            if len(norms) >= count:
                break
            r2 += r2 // 4
        return float(np.sum(np.log(norms[:count].astype(float))))
    raise InputError(f"unknown mode {mode!r}")


def _check_enumeration(m: int, mode: str, parameter: float) -> None:
    """Reject a partial product too large to enumerate, before allocating.

    A count, or the about ``V_m Lambda^m`` norms below a cutoff Lambda, may
    not exceed ``MAX_SUM_LATTICE``.
    """
    limit = (MAX_SUM_LATTICE if mode == "by_count"
             else (MAX_SUM_LATTICE / _ball_volume(m)) ** (1.0 / m))
    if not parameter <= limit:
        raise InputError(f"{mode} parameter {parameter:g} needs more than "
                         f"{MAX_SUM_LATTICE} lattice norms")


def _ball_volume(m: int) -> float:
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


def eigenproduct_reglimit(m: int, mode: str, grid, basis: BasisSpec):
    """Regularized limit of partial eigenvalue products.

    Returns ``(constant, uncertainty, reference)`` with the zeta
    log-determinant as reference.

    For m >= 2 in cutoff mode the samples carry lattice-point counting
    oscillation of size ``Lambda^(1/2+)`` which a least-squares fit
    amplifies into the constant, so two damping steps are applied before
    fitting.  First the exactly computable counting term
    ``(N(Lambda) - V_m Lambda^m) log(Lambda^2)`` is subtracted (N counts
    nonzero eigenvalues, V_m is the unit-ball volume); by Abel summation
    this removes the dominant oscillation and shifts only the ``log``
    coefficient, never the constant.  Second, each sample is averaged over
    a centered log-symmetric window of ``SMOOTH_POINTS`` cutoffs spanning
    ``[Lambda/SMOOTH_HALFWIDTH, Lambda*SMOOTH_HALFWIDTH]``; a log-symmetric
    window remixes each smooth basis group within itself and leaves the
    constant coefficient intact.
    """
    check_dimension(m)
    grid = [float(g) for g in grid]
    smoothed = mode == "by_cutoff" and m >= 2
    largest = max(grid, default=0.0) * (SMOOTH_HALFWIDTH if smoothed else 1.0)
    _check_enumeration(m, mode, largest)
    if smoothed:
        half = SMOOTH_POINTS // 2
        ratio = SMOOTH_HALFWIDTH ** (1.0 / half)
        norms = _lattice_norms_sq(m, int(math.floor(largest * largest)) + 1)
        # prefix[i] = sum of log over the i smallest norms, in one buffer
        prefix = np.empty(len(norms) + 1)
        prefix[0] = 0.0
        np.cumsum(np.log(norms, out=prefix[1:]), out=prefix[1:])
        vol = _ball_volume(m)

        def corrected(lam):
            t = lam * lam
            i = int(np.searchsorted(norms, math.floor(t), side="right"))
            count_err = i - vol * lam ** m
            return float(prefix[i]) - count_err * math.log(t)

        ys = []
        for lam in grid:
            window = [lam * ratio ** j for j in range(-half, half + 1)]
            ys.append(math.fsum(corrected(w) for w in window) / len(window))
        samples = Samples(np.array(grid), np.array(ys))
    else:
        ys = [partial_log_product(m, mode, g) for g in grid]
        samples = Samples(np.array(grid), np.array(ys))
    constant, uncertainty = extract_reglimit(samples, basis)
    return constant, uncertainty, log_det_zeta(m)


# -- convergence of discrete traces -----------------------------------------

@dataclass
class ConvergenceReport:
    rows: list                      # (n, discrete, continuum, difference)
    strictly_decreasing: bool
    final_abs_diff: float
    derivative_rel_err_discrete: float
    derivative_rel_err_continuum: float


def _fd4(f, z: float, h: float) -> float:
    return (-f(z + 2 * h) + 8 * f(z + h) - 8 * f(z - h) + f(z - 2 * h)) / (12 * h)


def convergence_check(m: int, n_grid, z: float, alpha: int) -> ConvergenceReport:
    """Discrete resolvent traces against the continuum limit.

    Tabulates both traces over the grid, checks that the absolute
    difference decreases, and verifies the derivative identity
    ``d/dz Tr(.+z^2)^(-alpha) = -2 alpha z Tr(.+z^2)^(-alpha-1)`` by a
    fourth-order finite difference with step ``z / 400`` on both sides of
    the limit.
    """
    from .discrete import DiscreteTorus, resolvent_trace

    if alpha < m:
        raise InputError("need alpha >= m for the convergence table")
    cont = resolvent_trace_continuum(m, z, alpha)
    rows = []
    for n in n_grid:
        t = DiscreteTorus(m, int(n))
        d = resolvent_trace(t, z, alpha)
        rows.append((int(n), d, cont, cont - d))
    diffs = [abs(r[3]) for r in rows]
    decreasing = all(b < a for a, b in zip(diffs, diffs[1:]))

    h = z / 400.0   # the relative truncation error goes as (h/z)^4
    t_big = DiscreteTorus(m, int(n_grid[-1]))
    fd_d = _fd4(lambda s: resolvent_trace(t_big, s, alpha), z, h)
    ident_d = -2.0 * alpha * z * resolvent_trace(t_big, z, alpha + 1)
    rel_d = abs(fd_d - ident_d) / max(abs(ident_d), 1e-300)

    fd_c = _fd4(lambda s: resolvent_trace_continuum(m, s, alpha), z, h)
    ident_c = -2.0 * alpha * z * resolvent_trace_continuum(m, z, alpha + 1)
    rel_c = abs(fd_c - ident_c) / max(abs(ident_c), 1e-300)

    return ConvergenceReport(rows=rows, strictly_decreasing=decreasing,
                             final_abs_diff=diffs[-1],
                             derivative_rel_err_discrete=rel_d,
                             derivative_rel_err_continuum=rel_c)
