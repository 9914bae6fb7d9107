"""Continuum torus references: heat traces, zeta determinants, eigenvalue
products, and the discrete-to-continuum limits: regularized limits of the
discrete log-determinants and convergence of the discrete resolvent traces.

The flat m-torus (product of unit circles) has Laplace spectrum
``|k|^2, k in Z^m`` with a one-dimensional kernel.  Its zeta function and
its resolvent traces are the heat-trace Mellin transform split at one point
(Ewald 1921; Crandall 1998): a lattice series of incomplete gamma functions
over one table of shells plus closed-form terms, with no quadrature; one
such table per call also gives the partial eigenvalue products.  Two
independent routes to the log-determinant are provided: the zeta
continuation (the reference oracle), and the finite-part resolvent-trace
integral, one quadrature folded onto (0, 1] as for the discrete tori,
with the trace's lead term taken out in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
import scipy

from .errors import (InputError, NumericalError, check_dimension,
                     check_resolvent_parameter)
from .expansion import BasisSpec, Samples, extract_reglimit
from .discrete import (MAX_SUM_LATTICE, DiscreteTorus, _check_sum_size,
                       _reduced_modes, log_det_series, resolvent_trace)
from . import finite_part

EULER_GAMMA = float(np.euler_gamma)
SMOOTH_POINTS = 41       # cutoffs per eigenproduct smoothing window
SMOOTH_HALFWIDTH = 1.2   # the window spans [Lambda/1.2, Lambda*1.2]
EWALD_SPLIT = 0.2        # Mellin split c of the trace: drops exp(-pi^2/c) = 4e-22
TRACE_SHELLS = 250       # squared norms in the trace: drops < 1e-17 for m <= 4
ZETA_SHELLS = 60         # squared norms kept in the zeta lattice series
GAMMA_OVERFLOW = 171.0   # Gamma(x) overflows a double just above x = 171.6


def _min_alpha(m: int) -> int:
    return (m + 2) // 2  # smallest integer alpha with alpha > m/2


def _shells(m: int, r2max: int):
    """Squared norms ``0..r2max`` that occur in Z^m, zero first, with their
    multiplicities: the one-axis table (1 at 0, 2 at k^2), then per further
    axis every shell s scattered over ``s + k^2`` in one dense count array.
    The first scatter pairs {k^2} with itself: pairs i < j twice, i = j once.
    Both arrays are read-only, as the cached tables are shared."""
    k2 = np.arange(math.isqrt(r2max) + 1, dtype=np.int64) ** 2
    norms, counts = k2, np.where(k2 > 0, 2, 1).astype(np.int32)
    for axis in range(1, m):
        first = axis == 1   # {k^2} with itself: the rows i with 2 i^2 <= r2max
        rows = math.isqrt(r2max // 2) + 1 if first else len(k2)
        dense = np.zeros(r2max + 1, dtype=np.int32)
        if first:   # the pairs (i, i); the loop adds i < j twice
            dense[2 * k2[:rows]] = counts[:rows] ** 2
        ends = np.searchsorted(norms, r2max - k2[:rows], side="right").tolist()
        for k, (step, end) in enumerate(zip(k2.tolist(), ends)):
            lo = k + 1 if first else 0
            weight = (2 if k else 1) * (2 if first else 1)
            dense[norms[lo:end] + step] += counts[lo:end] * weight
        norms = np.nonzero(dense > 0)[0]
        counts = dense[norms]
    norms.flags.writeable = counts.flags.writeable = False
    return norms, counts


_fixed_shells = lru_cache(maxsize=None)(_shells)   # the trace and zeta tables


def _lead(m: int, alpha: int) -> float:
    """``pi^(m/2) Gamma(alpha - m/2) / Gamma(alpha)``; times ``z^(m - 2 alpha)``
    it is the trace's whole-space integral."""
    return math.pi ** (m / 2.0) * math.exp(
        math.lgamma(alpha - m / 2.0) - math.lgamma(alpha))


def resolvent_trace_continuum(m: int, z: float, alpha: int) -> float:
    """``sum over Z^m of (|k|^2 + z^2)^(-alpha)``.

    The Mellin integral ``int t^(alpha-1) e^(-z^2 t) theta1(t)^m dt / Gamma(alpha)``
    with ``theta1(t) = sum over Z of e^(-t j^2)``, split at ``t = c`` (Ewald
    1921; Crandall 1998): above c, shell by shell,
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
    whole = (_lead(m, alpha) * z ** (m - 2 * alpha) * float(
        scipy.special.gammainc(alpha - m / 2.0, EWALD_SPLIT * z * z)))
    return whole + _shell_series(m, z, alpha)


def _shell_series(m: int, z: float, alpha: int) -> float:
    """The trace's Mellin part above the split, shell by shell."""
    norms, counts = _fixed_shells(m, TRACE_SHELLS)
    x = norms + z * z
    return math.fsum((counts * x ** -float(alpha)
                      * scipy.special.gammaincc(alpha, EWALD_SPLIT * x)).tolist())


# -- zeta function and determinant ------------------------------------------

def _upper_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """The upper incomplete gamma function ``Gamma(a, x)`` for real a, x > 0.

    Below a = 0 it steps down from ``[0, 1)`` by the recurrence
    ``Gamma(a, x) = (Gamma(a+1, x) - x^a e^(-x)) / a``.
    """
    steps = max(0, math.ceil(-a))
    base = a + steps
    g = (scipy.special.exp1(x) if base == 0 else
         scipy.special.gammaincc(base, x) * scipy.special.gamma(base))
    for j in range(steps - 1, -1, -1):
        g = (g - x ** (a + j) * np.exp(-x)) / (a + j)
    return g


def _gamma_series(m: int, a: float, c: float) -> float:
    """``sum over nonzero k of |k|^(-2a) Gamma(a, c |k|^2)``.

    The Mellin tail ``int_c^inf t^(a-1) (theta1(t)^m - 1) dt``, summed
    Gaussian by Gaussian (Crandall 1998); shells beyond ``ZETA_SHELLS``
    weigh less than ``exp(-c ZETA_SHELLS)``.
    """
    norms, counts = (v[1:] for v in _fixed_shells(m, ZETA_SHELLS))
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
        value = ((-1.0 + s * _h_analytic(m, s))
                 * float(scipy.special.rgamma(s + 1.0)))
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

    Independent route: must agree with ``log_det_zeta(m)``.  The trace's
    lead term ``c z^(-m)``, ``c = pi^(m/2) Gamma(m/2)/Gamma(m)``, is taken
    out at every z: ``c z^(m-1)`` has finite part 0 over (0, inf), and the
    rest of the integrand decays exponentially, so it counts no modes at
    infinity.  ``window_end`` does not change the value; it remains only
    because ``bench/workloads.py`` passes it.
    """
    check_dimension(m)
    lead = _lead(m, m)

    def g(z):   # z^(2m-1) times the trace less lead z^(-m)
        return z ** (2 * m - 1) * (
            _shell_series(m, z, m) - lead * z ** -m
            * float(scipy.special.gammaincc(m / 2.0, EWALD_SPLIT * z * z)))

    return finite_part._logdet_regint(g, m, 1)


# -- partial eigenvalue products --------------------------------------------

def _log_products(m: int, mode: str, parameters, window=(1.0,)):
    """Eigenvalue counts and log products at every parameter (each at least
    1) times every window factor, over ``0 < |k| <= parameter`` (``by_cutoff``)
    or the ``parameter`` smallest nonzero eigenvalues (``by_count``): two
    arrays of shape ``(len(parameters), len(window))``, read by one search
    from one table of Z^m shells.  The largest sample, a count or the about
    ``V_m Lambda^m`` norms below a cutoff, is at most ``MAX_SUM_LATTICE``.
    A count N takes the shells up to radius ``r + sqrt(m)/2`` with ``V_m
    r^m = N + 1``: the unit cubes centred on their points cover the ball of
    radius r, so they hold N nonzero points.
    """
    check_dimension(m)
    if mode not in ("by_cutoff", "by_count"):
        raise InputError(f"unknown mode {mode!r}")
    parameters = np.asarray(parameters, dtype=float)
    if not (parameters >= 1).all():
        raise InputError(f"{mode[3:]} must be >= 1")
    samples = np.multiply.outer(parameters, window)
    largest = float(samples.max(initial=1.0))
    vol = _ball_volume(m)
    if not largest <= (MAX_SUM_LATTICE if mode == "by_count"
                       else (MAX_SUM_LATTICE / vol) ** (1.0 / m)):
        raise InputError(f"{mode} parameter {largest:g} needs more than "
                         f"{MAX_SUM_LATTICE} lattice norms")
    if mode == "by_cutoff":
        r2max = math.floor(largest * largest)
    else:
        r2max = math.ceil((((largest + 1.0) / vol) ** (1.0 / m)
                           + math.sqrt(m) / 2) ** 2)
    norms, counts = (v[1:] for v in _shells(m, r2max))
    # the nonzero eigenvalues in the i smallest shells, and their log product
    count = np.concatenate(([0], np.cumsum(counts)))
    logs = np.concatenate(([0.0], np.cumsum(counts * np.log(norms))))
    if mode == "by_cutoff":
        i = np.searchsorted(norms, np.floor(samples * samples), side="right")
        return count[i], logs[i]
    n = np.floor(samples)
    i = np.searchsorted(count, n)   # the i-th shell completes n
    # math.log: np.log differs from it in the last bit on a few norms
    last = np.vectorize(math.log, otypes=[float])(norms[i - 1])
    return n, logs[i] - (count[i] - n) * last


def _ball_volume(m: int) -> float:
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


def logdet_limit_pipeline(m: int, n_grid):
    """Regularized limit of discrete log-determinants vs the continuum value.

    The main theorem fixes the exponents of the expansion in n:
    ``n^m log n``, ``n^m``, a constant and even inverse powers, fitted here
    as ``n^-2 .. n^-2J`` with ``J = min(4, len(n_grid) - 5)``, which keeps
    at least two residual degrees of freedom; a grid of fewer than five
    sizes is refused.  Returns ``(constant, uncertainty, reference)`` where
    the reference is the zeta-regularized log-determinant of the continuum
    torus.
    """
    if len(n_grid) < 5:
        raise InputError(f"the main theorem needs at least 5 lattice sizes, "
                         f"got {len(n_grid)}")
    basis = BasisSpec(((m, 1), (m, 0), (0, 0)) + tuple(
        (-2 * j, 0) for j in range(1, min(4, len(n_grid) - 5) + 1)))
    constant, uncertainty = extract_reglimit(log_det_series(m, n_grid), basis)
    return constant, uncertainty, log_det_zeta(m)


def eigenproduct_reglimit(m: int, mode: str, grid, basis=None):
    """Regularized limit of partial eigenvalue products.

    Returns ``(constant, uncertainty, reference)`` with the zeta
    log-determinant as reference.  The theorem fixes the exponents of the
    expansion: with e = m in the cutoff Lambda (``by_cutoff``) or e = 1 in
    the count N (``by_count``), the basis is ``x^e log x``, ``x^e``,
    ``log x`` and 1, plus Stirling's ``x^-1`` and ``x^-3`` at m = 1.
    ``basis=None`` derives it; an explicit ``BasisSpec`` replaces it.

    One search in one shell table reads every window cutoff.  Unsmoothed, a
    window is one point, and as a product depends only on the floor of its
    parameter, it is fitted at the distinct floors of the grid.

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
    grid = np.asarray(grid, dtype=float)
    smoothed = mode == "by_cutoff" and m >= 2
    ratio = SMOOTH_HALFWIDTH ** (1.0 / (SMOOTH_POINTS // 2))
    half = SMOOTH_POINTS // 2 if smoothed else 0   # else one point
    window = [ratio ** j for j in range(-half, half + 1)]
    counts, logs = _log_products(m, mode, grid, window)
    if not smoothed:   # a step function of the parameter's floor: fit there
        grid, first = np.unique(np.floor(grid), return_index=True)
        counts, logs = counts[first], logs[first]
    if basis is None:
        e = m if mode == "by_cutoff" else 1
        basis = BasisSpec(((e, 1), (e, 0), (0, 1), (0, 0))
                          + (((-1, 0), (-3, 0)) if m == 1 else ()))
    vol = _ball_volume(m)
    ys = []
    for lam, ns, row in zip(grid.tolist(), counts.tolist(), logs.tolist()):
        if smoothed:   # the counting term, on Python floats
            row = [v - (n - vol * w ** m) * math.log(w * w) for n, v, w in
                   zip(ns, row, (lam * f for f in window))]
        ys.append(math.fsum(row) / len(row))
    constant, uncertainty = extract_reglimit(Samples(grid, ys), basis)
    return constant, uncertainty, log_det_zeta(m)


# -- convergence of discrete traces -----------------------------------------

@dataclass
class ConvergenceReport:
    rows: list                      # (n, discrete, continuum, difference)
    strictly_decreasing: bool
    final_abs_diff: float
    derivative_rel_err_discrete: float
    derivative_rel_err_continuum: float


def convergence_check(m: int, n_grid, z: float, alpha: int) -> ConvergenceReport:
    """Discrete resolvent traces against the continuum limit.

    Tabulates both traces over the grid, checks that the absolute
    difference decreases, and verifies the derivative identity
    ``d/dz Tr(.+z^2)^(-alpha) = -2 alpha z Tr(.+z^2)^(-alpha-1)`` by a
    fourth-order finite difference with step ``z / 400`` on both sides of
    the limit.  The modes the table's traces reduce, plus those of the five
    derivative probes at the last n, are capped at ``MAX_SUM_LATTICE``, as
    each trace is: ``n^(m-1)`` outer modes, or ``n^m`` points above
    ``TRACE_MAX_ALPHA``.
    """
    check_dimension(m)
    if alpha < m:
        raise InputError("need alpha >= m for the convergence table")
    tori = [DiscreteTorus(m, n) for n in n_grid]
    if not tori:
        raise InputError("n_grid is empty")
    t_big = tori[-1]
    _check_sum_size(sum(_reduced_modes(t, alpha) for t in tori)
                    + 4 * _reduced_modes(t_big, alpha)
                    + _reduced_modes(t_big, alpha + 1))
    cont = resolvent_trace_continuum(m, z, alpha)
    rows = []
    for t in tori:
        d = resolvent_trace(t, z, alpha)
        rows.append((t.n, d, cont, cont - d))
    diffs = [abs(r[3]) for r in rows]
    decreasing = all(b < a for a, b in zip(diffs, diffs[1:]))

    h = z / 400.0   # the relative truncation error goes as (h/z)^4
    rel = []
    for trace in (partial(resolvent_trace, t_big),
                  partial(resolvent_trace_continuum, m)):
        f = [trace(z + k * h, alpha) for k in (2, 1, -1, -2)]
        fd = (-f[0] + 8 * f[1] - 8 * f[2] + f[3]) / (12 * h)
        ident = -2.0 * alpha * z * trace(z, alpha + 1)
        rel.append(abs(fd - ident) / max(abs(ident), 1e-300))
    return ConvergenceReport(rows, decreasing, diffs[-1], *rel)
