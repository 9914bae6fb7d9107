"""Euler-Maclaurin decomposition of lattice resolvent sums.

The one-axis summation formula splits ``sum_{x=0}^{n} u(x)`` into the
integral over [0, n], a Bernoulli-number boundary-derivative correction,
the endpoint average and a periodic-Bernoulli remainder.  Applied axis by
axis to ``(omega(n, x) + z^2)^(-alpha)`` on the m-torus, it writes the
boundary-inclusive lattice sum as 4^m operator patterns.

With ``A^(-alpha) = Gamma(alpha)^(-1) int t^(alpha-1) e^(-t A) dt`` the
summand factorises over the axes, and each operator acts on the n-periodic
heat kernel ``e^(-t omega(n, x))``.  Pattern beta is one t-integral
``Gamma(alpha)^(-1) int t^(alpha-1) e^(-t z^2) prod_i A_{beta_i}(t) dt``
with ``x = t n^2 / 2 pi^2`` and the axis factors: integral
``nK = n ive(0, x)``; boundary derivatives 0, exactly, by periodicity;
endpoint average 1; remainder ``R = S - nK``, the heat trace S less the
other three, which by Poisson summation (the winding split of Chinta,
Jorgenson and Karlsson, Nagoya Math. J. 198, 2010) is
``2n sum_{j>=1} ive(jn, x)``, positive.  No truncation order enters.

R is the sum of ``WINDINGS`` windings while ``x < n^2/4`` (the next one is
below ``e^-280`` of the first) and ``S - nK`` above, where R is at least
0.17 S; above n = 20000 the switch is at ``IVE_SERIES_FROM``, where R may
sink below the rounding of S.  scipy's ``ive`` at order n errs by up to
8e-15 relative at n = 64 and 5e-13 at n = 5000.  The t-integrals, and the
unit-window integrals of the homogeneous components, share one trapezoid
rule in ``log t``, exponentially convergent since the integrands are
analytic in the strip ``|Im log t| < pi/2`` and decay double
exponentially (Trefethen and Weideman, SIAM Review 56, 2014).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np
import scipy

from .errors import (InputError, NumericalError, check_dimension,
                     check_integer, check_resolvent_parameter)
from .discrete import (DiscreteTorus, _axis_eigenvalues, _check_sum_size,
                       _extended_trace_sum, _half_axis, resolvent_trace)
from .finite_part import _quad

BERNOULLI_CAP = 250
GL_ORDER_1D = 24          # Gauss-Legendre nodes per cell, one-axis formula
EM_QUAD_TOL = 1e-12       # adaptive quadratures, absolute and relative
LOG_T_STEP = 0.125        # trapezoid step in u = log t
LOG_T_TAIL = 1e-17        # bound on each truncated tail, relative to the value
WINDINGS = 11             # winding terms of the remainder factor
IVE_SERIES_FROM = 1e8     # ive(0, x) from its asymptotic series above this x


# -- Bernoulli numbers and polynomials ---------------------------------------

@lru_cache(maxsize=None)
def _bernoulli_list(upto: int):
    vals = [Fraction(1)]
    for i in range(1, upto + 1):
        acc = Fraction(0)
        for j in range(i):
            acc += math.comb(i + 1, j) * vals[j]
        vals.append(-acc / (i + 1))
    return tuple(vals)


def bernoulli_number(i: int) -> Fraction:
    """Exact Bernoulli number via the binomial recurrence (B_1 = -1/2)."""
    if check_integer("Bernoulli index", i) < 0:
        raise InputError("Bernoulli index must be non-negative")
    if i > BERNOULLI_CAP:
        raise InputError(f"Bernoulli index cap is {BERNOULLI_CAP}")
    return _bernoulli_list(i)[i]


@lru_cache(maxsize=None)
def _bernoulli_poly_coeffs(i: int):
    """Float coefficients of the i-th Bernoulli polynomial, highest power first."""
    bs = _bernoulli_list(i)
    return tuple(float(math.comb(i, j) * bs[j]) for j in range(i + 1))


# -- one-axis Euler-Maclaurin -------------------------------------------------

@dataclass
class EMParts:
    """The four pieces of the one-axis summation formula.

    ``integral + derivative_boundary + endpoint_average + remainder`` equals
    the endpoint-inclusive sum ``sum_{x=0}^{n} u(x)``.
    """

    integral: float
    derivative_boundary: float
    endpoint_average: float
    remainder: float

    @property
    def total(self) -> float:
        return math.fsum([self.integral, self.derivative_boundary,
                          self.endpoint_average, self.remainder])


def poly_evaluator(coeffs) -> Callable[[float, int], float]:
    """Polynomial with exact derivatives: ``u(x, order)``; coeffs ascending."""
    coeffs = [float(c) for c in coeffs]

    def u(x: float, order: int = 0) -> float:
        total = 0.0
        for p, c in enumerate(coeffs):
            if p < order:
                continue
            fall = math.perm(p, order)
            total += c * fall * x ** (p - order)
        return total

    return u


def _gl_nodes(n_cells: int, order: int):
    x0, w0 = np.polynomial.legendre.leggauss(order)
    frac = (x0 + 1.0) / 2.0
    cells = np.arange(n_cells, dtype=float)
    xs = (cells[:, None] + frac[None, :]).ravel()
    ws = np.tile(w0 / 2.0, n_cells)
    return xs, ws


def em_sum_1d(u: Callable[[float, int], float], n: int, M: int) -> EMParts:
    """One-axis Euler-Maclaurin decomposition of ``sum_{x=0}^{n} u(x)``.

    ``u(x, order)`` must return the order-th derivative up to order 2M+1.
    The remainder integral carries the periodic Bernoulli weight, which is
    only piecewise polynomial, so it is integrated cell by cell with
    Gauss-Legendre nodes.
    """
    if check_integer("n", n) < 1 or check_integer("M", M) < 1:
        raise InputError("need n >= 1 and M >= 1")
    integral, _ = _quad(lambda x: u(x, 0), 0.0, float(n), EM_QUAD_TOL)
    deriv = math.fsum(
        float(bernoulli_number(2 * k)) / math.factorial(2 * k)
        * (u(float(n), 2 * k - 1) - u(0.0, 2 * k - 1))
        for k in range(1, M + 1))
    avg = 0.5 * (u(0.0, 0) + u(float(n), 0))
    xs, ws = _gl_nodes(n, GL_ORDER_1D)
    bw = np.polyval(_bernoulli_poly_coeffs(2 * M + 1), xs % 1.0)
    dvals = np.array([u(float(x), 2 * M + 1) for x in xs])
    remainder = float(ws @ (bw * dvals)) / math.factorial(2 * M + 1)
    return EMParts(integral=integral, derivative_boundary=deriv,
                   endpoint_average=avg, remainder=remainder)


def em_direct_sum(u: Callable[[float, int], float], n: int) -> float:
    """Endpoint-inclusive reference sum ``sum_{x=0}^{n} u(x)``."""
    if check_integer("n", n) < 1:
        raise InputError("need n >= 1")
    return math.fsum(u(float(x), 0) for x in range(n + 1))


# -- operator patterns as t-integrals -----------------------------------------

def _ive0(x: np.ndarray) -> np.ndarray:
    """``ive(0, x)``, above ``IVE_SERIES_FROM`` from its asymptotic series
    (next term below 1e-25 there): scipy returns nan from about x = 2e9."""
    out = scipy.special.ive(0, np.minimum(x, IVE_SERIES_FROM))
    big = x > IVE_SERIES_FROM
    r = 1.0 / x[big]
    out[big] = (1.0 + 0.125 * r * (1.0 + 0.5625 * r)) * np.sqrt(
        r / (2.0 * math.pi))
    return out


def _log_t_rule(z: float, alpha: int, log_c: float, log_k: float,
                x_scale: float):
    """Nodes t, weights and a power of two ``alpha e`` of the trapezoid rule
    with step ``LOG_T_STEP`` in ``log t`` for ``Gamma(alpha)^(-1) int
    t^(alpha-1) e^(-t z^2) g(t) dt``, g evaluated at ``x = x_scale t``.

    ``t = 2^e e^v`` with v on the step lattice and ``2^e`` within a factor 2
    of ``z^-2``; the weight, one exponential of ``log(step) + alpha v - z^2
    t - log Gamma(alpha)``, leaves out ``2^(alpha e)`` for the caller's
    ``ldexp``, so it stays near 1 at the peak and nothing overflows.  A
    largest t or x past the float range raises NumericalError.  For
    ``|g| <= G`` and a value of at least ``G c^(-alpha)`` and ``G z^(-2
    alpha) / k`` (k up to 1e283), each dropped tail is at most
    ``LOG_T_TAIL`` of the value: below ``t_lo`` it is ``(t_lo c)^alpha /
    alpha!`` of it, above ``t_hi`` ``k Q(alpha, t_hi z^2)``.
    """
    half = round(-math.log2(z))
    shift = 2 * half * math.log(2.0)
    lo = (math.log(LOG_T_TAIL) + math.lgamma(alpha + 1)) / alpha - log_c
    tail = math.exp(max(math.log(LOG_T_TAIL) - log_k, math.log(1e-300)))
    hi = math.log(scipy.special.gammainccinv(alpha, tail)) - 2 * math.log(z)
    if hi + max(0.0, math.log(x_scale)) > 709.0:
        raise NumericalError(f"t-range at z = {z} exceeds the float range")
    v = LOG_T_STEP * np.arange(math.floor((lo - shift) / LOG_T_STEP),
                               math.ceil((hi - shift) / LOG_T_STEP) + 1)
    ev = np.exp(v)
    log_w = math.log(LOG_T_STEP) - math.lgamma(alpha) + alpha * v
    weights = np.exp(log_w - math.ldexp(z, half) ** 2 * ev)  # z^2 t <= 2 ev
    return np.ldexp(ev, 2 * half), weights, 2 * half * alpha


def _axis_factors(n: int, t: np.ndarray):
    """nK and R of one axis at the ascending nodes t.  S comes from the
    half-axis table, cut where ``e^(-t s)`` is 0.0 at its first node; a
    difference ``S - nK`` that rounds below 0 is taken as 0."""
    x = t * (n * n / (2.0 * math.pi ** 2))
    nk = n * _ive0(x)
    cut = int(np.searchsorted(x, min(n * n / 4.0, IVE_SERIES_FROM)))
    orders = n * np.arange(1, WINDINGS + 1)[:, None]
    r = [2.0 * n * scipy.special.ive(orders, x[:cut]).sum(axis=0)]
    if cut < len(t):
        s, w = _half_axis(n)
        k = int(np.searchsorted(s, 746.0 / t[cut], side="right"))  # e^-746 = 0
        heat = w[0] + np.exp(np.outer(-t[cut:], s[1:k])) @ w[1:k]  # s[0] = 0
        r.append(np.maximum(heat - nk[cut:], 0.0))
    return nk, np.concatenate(r)


def boundary_inclusive_lattice_sum(t: DiscreteTorus, z: float,
                                   alpha: int) -> float:
    """Direct reference sum over the extended grid {0..n}^m: ``(n//2 +
    1)^m`` terms of the half-axis tables, under the lattice-sum cap."""
    check_resolvent_parameter(z, alpha, t.m * math.log(2.0))  # zero-mode weight
    _check_sum_size((t.n // 2 + 1) ** t.m)
    return _extended_trace_sum(t.n, t.m, z, alpha)


def em_decompose(t: DiscreteTorus, z: float, alpha: int | None = None):
    """All 4^m operator-pattern values, keyed by their per-axis labels (1
    integral, 2 boundary derivatives, 3 remainder, 4 endpoint average) in
    lexicographic order, and their total.

    Boundary patterns are 0.0 and the others nonnegative t-integrals.  With
    ``|prod A| <= n^m`` against a total of at least ``(n+1)^m (m n^2/pi^2 +
    z^2)^(-alpha)`` (every term) and ``2^m z^(-2 alpha)`` (the corners),
    each truncated tail is at most ``LOG_T_TAIL`` of the total, which meets
    ``boundary_inclusive_lattice_sum`` to a few units of rounding.  The
    half-axis table of S is under the lattice-sum cap.
    """
    alpha = t.m if alpha is None else check_integer("alpha", alpha)
    if alpha < 1:
        raise InputError("resolvent power alpha must be >= 1")
    check_resolvent_parameter(z, alpha, t.m * math.log(2.0))  # the corners
    _check_sum_size(t.n // 2 + 1)
    nodes, prods, scale = _log_t_rule(
        z, alpha, 2 * math.log(math.hypot(math.sqrt(t.m) * t.n / math.pi, z)),
        t.m * math.log(t.n / 2.0), t.n ** 2 / (2 * math.pi ** 2))
    nk, r = _axis_factors(t.n, nodes)
    factors = np.stack([nk, r, np.ones_like(nk)])      # labels 1, 3, 4
    for _ in range(t.m):   # rows in the lexicographic order of the labels
        prods = (prods[..., None, :] * factors).reshape(-1, len(nodes))
    sums = iter(np.ldexp(prods.sum(axis=1), scale).tolist())
    values = {betas: 0.0 if 2 in betas else next(sums)
              for betas in itertools.product((1, 2, 3, 4), repeat=t.m)}
    return values, math.fsum(values.values())


# -- homogeneous components and checks ----------------------------------------

def _window_integral(q: int, w: float, m: int) -> float:
    """``int over [0,1]^q of (pi^-2 sum sin^2(pi y_i) + w^2)^(-m)``.

    The axes separate under the t-integral: each averages ``e^(-t
    sin^2(pi y)/pi^2)`` to ``ive(0, t / 2 pi^2) <= 1``.  The value is at
    least ``c^(-m)``, ``c = q/pi^2 + w^2``, and for ``w <= 1`` at least
    ``(q+1)^(-m) w^(q-2m)`` (the cube ``[0, w]^q``): the rule's
    ``k = (q+1)^m max(1, w^-q)``.
    """
    check_resolvent_parameter(w, m)   # the integrand's largest value
    if q == 0:
        return w ** (-2.0 * m)
    t, weights, scale = _log_t_rule(
        w, m, 2 * math.log(math.hypot(math.sqrt(q) / math.pi, w)),
        m * math.log(q + 1.0) + q * max(0.0, -math.log(w)),
        1 / (2 * math.pi ** 2))
    heat = _ive0(t / (2.0 * math.pi ** 2)) ** q
    return math.ldexp(float(weights @ heat), scale)


def scaled_bulk_term(m: int, q: int, z: float, n: float) -> float:
    """The jointly homogeneous block of order ``q - 2m``.

    ``n**(q - 2m)`` times the unit-window integral at argument ``z/n``; this
    is the value of a pattern with q integral axes and the rest endpoint
    averages, per inclusion-exclusion level.
    """
    check_dimension(m)
    check_integer("q", q)
    check_resolvent_parameter(z, m)   # the q = 0 block is z^(-2m)
    return n ** (q - 2.0 * m) * _window_integral(q, z / n, m)


def homogeneous_components(m: int, z: float, n: float) -> dict:
    """The jointly homogeneous terms ``j -> h_{-(m+j)}(z, n)`` of the trace.

    The order ``-(m+j)`` block has net inclusion-exclusion multiplicity
    ``sum_k (-1)^k C(m,k) C(m-k,m-j) = C(m,j) sum_k (-1)^k C(j,k)``, which
    is ``[j == 0]``: only the all-integral block survives.
    """
    return {j: 0.0 if j else scaled_bulk_term(m, m, z, n) for j in range(m + 1)}


def corner_term_cancellation(m: int):
    """Exact cancellation of the fully endpoint-pinned contributions.

    Returns ``(binomial_sum, numeric_residual)``: the alternating binomial
    sum (always 0) and the largest floating-point residual of the level
    sum of the corner values ``(omega_at_corner + z^2)^(-m)`` across
    z in {0.5, 1, 2}.
    """
    if check_integer("dimension m", m) < 1:
        raise InputError("dimension must be >= 1")
    levels = [(-1) ** k * math.comb(m, k) for k in range(m + 1)]
    # omega vanishes exactly at every lattice corner
    corner_omega = float(_axis_eigenvalues(8, np.array([0.0, 8.0])).max())
    corners = [(corner_omega + z * z) ** (-float(m)) for z in (0.5, 1.0, 2.0)]
    worst = max(abs(math.fsum(c * v for c in levels)) for v in corners)
    return sum(levels), worst


@dataclass
class RemainderReport:
    table: dict                 # z -> {n: |H(z,n)| * z^(2m+2)}
    sup_per_z: dict             # z -> sup over n
    anchor_per_z: dict          # z -> value at the smallest n


def remainder_uniformity_scan(m: int, *, z_grid=(4.0, 8.0, 16.0),
                              n_grid=(8, 16, 32, 64, 128)) -> RemainderReport:
    """Size of the non-homogeneous remainder across the (z, n) grid.

    ``H(z, n)`` is the trace minus its homogeneous components; the scaled
    values ``|H| z^(2m+2)`` should stay bounded uniformly in n and stop
    growing in z.
    """
    tori = [DiscreteTorus(m, n) for n in n_grid]
    if not tori:
        raise InputError("n_grid is empty")
    table = {}
    for z in z_grid:
        table[z] = row = {}
        for t in tori:
            h = resolvent_trace(t, z, m) - math.fsum(
                homogeneous_components(m, z, float(t.n)).values())
            row[t.n] = abs(h) * z ** (2 * m + 2)
    return RemainderReport(
        table=table, sup_per_z={z: max(r.values()) for z, r in table.items()},
        anchor_per_z={z: r[tori[0].n] for z, r in table.items()})
