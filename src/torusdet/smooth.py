"""Continuum torus references: heat traces, zeta determinants, eigenvalue
products, and convergence of the discrete resolvent traces.

The flat m-torus (product of unit circles) has Laplace spectrum
``|k|^2, k in Z^m`` with a one-dimensional kernel.  Two independent routes
to its log-determinant are provided: the Mellin/theta continuation of the
spectral zeta function (the reference oracle), and the finite-part
resolvent-trace integral evaluated with the same machinery used for the
discrete tori.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate

from .errors import InputError, check_dimension, check_resolvent_parameter
from .expansion import BasisSpec, Samples, extract_reglimit
from .discrete import _lattice_sum
from . import finite_part

EULER_GAMMA = float(np.euler_gamma)
THETA_LOG_EPS = 40.0     # theta sums drop Gaussian terms below exp(-40)
SMOOTH_POINTS = 41       # cutoffs per eigenproduct smoothing window
SMOOTH_HALFWIDTH = 1.2   # the window spans [Lambda/1.2, Lambda*1.2]


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


def _theta_deficit(m: int, t: float) -> float:
    """``theta1(t)^m - (pi/t)^(m/2)`` without cancellation.

    Below t = pi the modular form gives the difference as
    ``(pi/t)^(m/2) * (theta1(pi^2/t)^m - 1)``, which is a small positive
    quantity computed directly.
    """
    if t < math.pi:
        u = math.pi ** 2 / t
        return (math.pi / t) ** (m / 2.0) * (_theta1_direct(u) ** m - 1.0)
    return _theta1_direct(t) ** m - (math.pi / t) ** (m / 2.0)


def _min_alpha(m: int) -> int:
    return (m + 2) // 2  # smallest integer alpha with alpha > m/2


def resolvent_trace_continuum(m: int, z: float, alpha: int, *,
                              method: str = "auto",
                              quad_tol: float = 1e-13) -> float:
    """``sum over Z^m of (|k|^2 + z^2)^(-alpha)``.

    The default evaluation writes the sum as its exact continuum integral
    ``pi^(m/2) Gamma(alpha-m/2)/Gamma(alpha) z^(m-2 alpha)`` plus a heat-trace
    correction integral whose integrand involves only the superexponentially
    small theta deficit; this stays accurate to ~1e-12 relative for all z.
    For m = 1, alpha = 1 the closed form ``pi coth(pi z)/z`` is used.
    """
    check_dimension(m)
    check_resolvent_parameter(z)
    if alpha < _min_alpha(m):
        raise InputError(
            f"alpha = {alpha} gives a divergent trace for m = {m}; "
            f"need alpha >= {_min_alpha(m)}")

    if method == "auto":
        method = "closed" if (m == 1 and alpha == 1) else "mellin"
    if method == "closed":
        if not (m == 1 and alpha == 1):
            raise InputError("closed form available only for m=1, alpha=1")
        x = math.pi * z
        if x > 350.0:
            return math.pi / z
        return math.pi / (math.tanh(x) * z)
    if method != "mellin":
        raise InputError(f"unknown method {method!r}")

    lead = (math.pi ** (m / 2.0) * math.gamma(alpha - m / 2.0)
            / math.gamma(alpha) * z ** (m - 2 * alpha))
    z2 = z * z

    def integrand(u):
        if u <= 0.0:
            return 0.0
        return u ** (alpha - 1) * math.exp(-u) * _theta_deficit(m, u / z2)

    # the theta deficit switches from superexponentially small to O(1)
    # around u = pi * z^2
    breaks = sorted({min(math.pi * z2, 50.0), 1.0, 10.0})
    pieces = []
    lo = 0.0
    for b in [x for x in breaks if 0.0 < x < 60.0] + [60.0]:
        val, _ = integrate.quad(integrand, lo, b, epsabs=quad_tol,
                                epsrel=quad_tol, limit=300)
        pieces.append(val)
        lo = b
    corr = math.fsum(pieces) * z ** (-2 * alpha) / math.gamma(alpha)
    return lead + corr


def lattice_trace_sum(m: int, z: float, alpha: int, box: int):
    """Direct box-truncated lattice sum with an integral tail correction.

    Enumerates ``|k_i| <= box`` exactly, adds the continuum integral over
    the complement of the box ``[-box-1/2, box+1/2]^m``, and returns
    ``(value, bound)`` where the bound is the standard midpoint-cell
    curvature estimate for the lattice-vs-integral error on the tail
    region.  A test oracle for modest z; cost grows like box^m.
    """
    if m > 2:
        raise InputError("box oracle implemented for m in {1, 2}")
    if alpha < _min_alpha(m):
        raise InputError("divergent parameters")
    z2 = z * z
    # half axis k = 0..box: k^2 with weight 1 at k = 0 and 2 for +-k
    w = np.full(box + 1, 2.0)
    w[0] = 1.0
    axis = (np.arange(box + 1, dtype=float) ** 2, w)
    core = _lattice_sum([axis] * m, lambda v: (v + z2) ** (-float(alpha)),
                        skip_zero_mode=False)

    whole = (math.pi ** (m / 2.0) * math.gamma(alpha - m / 2.0)
             / math.gamma(alpha) * z ** (m - 2 * alpha))
    half = box + 0.5
    if m == 1:
        inside, _ = integrate.quad(lambda x: (x * x + z2) ** (-float(alpha)),
                                   -half, half, epsabs=1e-14, epsrel=1e-13,
                                   limit=200)
    else:
        def inner(x):
            c2 = x * x + z2
            if alpha == 2:
                c = math.sqrt(c2)
                return (half / (2 * c2 * (half * half + c2))
                        + math.atan(half / c) / (2 * c2 * c))
            val, _ = integrate.quad(lambda y: (y * y + c2) ** (-float(alpha)),
                                    0.0, half, epsabs=1e-14, epsrel=1e-13)
            return val
        row, _ = integrate.quad(inner, 0.0, half, epsabs=1e-14, epsrel=1e-13,
                                limit=200)
        inside = 4.0 * row
    tail_integral = whole - inside

    # curvature bound: each unit cell contributes at most sup|D^2 f|/24 per
    # dimension, and |D^2 f| <= (4 a(a+1) + 2 a m) (r^2+z^2)^(-a-1) is
    # majorized by the pure power r^(-2a-2), which integrates in closed form
    const = (4 * alpha * (alpha + 1) + 2 * alpha * m) * m / 24.0
    sigma = {1: 2.0, 2: 2 * math.pi}[m]
    r0 = max(box - 1, 1)
    curv = r0 ** (m - 2 * alpha - 2) / (2 * alpha + 2 - m)
    bound = const * sigma * curv
    return core + tail_integral, bound


# -- zeta function and determinant ------------------------------------------

def _g_integral(m: int, s: float, quad_tol: float = 1e-13) -> float:
    """``int_{pi^2}^inf u^(m/2 - s - 1) (theta1(u)^m - 1) du``."""
    def f(u):
        return u ** (m / 2.0 - s - 1.0) * (_theta1_direct(u) ** m - 1.0)
    val, _ = integrate.quad(f, math.pi ** 2, np.inf, epsabs=quad_tol,
                            epsrel=quad_tol, limit=300)
    return val


def _e_integral(m: int, s: float, quad_tol: float = 1e-13) -> float:
    """``int_1^inf t^(s-1) (theta1(t)^m - 1) dt``."""
    def f(t):
        return t ** (s - 1.0) * (_theta1_direct(t) ** m - 1.0)
    val, _ = integrate.quad(f, 1.0, np.inf, epsabs=quad_tol, epsrel=quad_tol,
                            limit=300)
    return val


def _h_analytic(m: int, s: float) -> float:
    """The regular part of ``Gamma(s) zeta(s)`` after removing the -1/s pole."""
    g = math.pi ** (2 * s - m) * _g_integral(m, s)
    return (math.pi ** (m / 2.0) / (s - m / 2.0)
            + math.pi ** (m / 2.0) * g + _e_integral(m, s))


def zeta_continued(m: int, s: float) -> float:
    """Spectral zeta function of the m-torus by Mellin continuation.

    Splits the heat-trace Mellin transform at t = 1 and applies the modular
    transform on (0, 1), which isolates the single pole at s = m/2 and the
    kernel pole at s = 0 analytically; everything else is an entire
    integral.  Valid for real s != m/2; at s = 0 the value is the analytic
    limit ``-1 + s h(s)`` evaluated through ``Gamma(s+1)``.
    """
    check_dimension(m)
    if s == m / 2.0:
        raise InputError(f"s = m/2 = {s} is the pole of the zeta function")
    return (-1.0 + s * _h_analytic(m, s)) / math.gamma(s + 1.0)


@lru_cache(maxsize=None)
def log_det_zeta(m: int) -> float:
    """Zeta-regularized log-determinant ``-zeta'(0)`` of the torus Laplacian.

    With ``Gamma(s) zeta(s) = -1/s + h(s)`` and h analytic at 0,
    ``zeta'(0) = h(0) - EulerGamma``.
    """
    check_dimension(m)
    return EULER_GAMMA - _h_analytic(m, 0.0)


def logdet_zeta_via_regint(m: int, *, window_end: float = 64.0,
                           quad_tol: float = 1e-10) -> float:
    """Log-determinant via the finite-part resolvent-trace integral.

    Independent route: must agree with ``log_det_zeta(m)``.
    """
    if m > 2:
        raise InputError("regularized-integral route implemented for m <= 2")

    def trace(z, alpha):
        return resolvent_trace_continuum(m, z, int(alpha))

    return finite_part.logdet_via_regint(trace, m, kernel_dim=1,
                                         window_end=window_end,
                                         quad_tol=quad_tol)


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
    return np.sort(np.concatenate(parts))


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
        norms = _lattice_norms_sq(m, int(math.floor(lam * lam)))
        return float(np.sum(np.log(norms.astype(float))))
    if mode == "by_count":
        count = int(parameter)
        if count < 1:
            raise InputError("count must be >= 1")
        r2 = 4
        while True:
            norms = _lattice_norms_sq(m, r2)
            if len(norms) >= count:
                break
            r2 *= 4
        return float(np.sum(np.log(norms[:count].astype(float))))
    raise InputError(f"unknown mode {mode!r}")


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
    if mode == "by_cutoff" and m >= 2:
        half = SMOOTH_POINTS // 2
        ratio = SMOOTH_HALFWIDTH ** (1.0 / half)
        lam_max = max(grid) * SMOOTH_HALFWIDTH
        norms = _lattice_norms_sq(m, int(math.floor(lam_max * lam_max)) + 1)
        flt = norms.astype(float)
        prefix = np.concatenate([[0.0], np.cumsum(np.log(flt))])
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
    fourth-order finite difference on both sides of the limit.
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

    h = 0.01
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
