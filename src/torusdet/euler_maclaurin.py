"""Euler-Maclaurin decomposition of lattice resolvent sums.

The one-axis summation formula splits ``sum_{x=0}^{n} u(x)`` into four
pieces: the integral over [0, n], the endpoint average, a Bernoulli-number
boundary-derivative correction, and a periodic-Bernoulli remainder
integral.  Applying it axis by axis to ``(omega(n, x) + z^2)^(-alpha)`` on
the m-torus writes the boundary-inclusive lattice sum as a sum over
operator patterns in {integral, boundary, remainder, average} per axis.

Derivatives of ``f^(-alpha)`` with ``f = omega + z^2`` are generated by an
exact recursion on coefficient functionals: ``d^k f^(-alpha) =
sum_l H_{k,l} f^(-alpha-l-1)`` with ``H_{1,0} = -alpha f'`` and
``H_{k,l} = d H_{k-1,l} - (alpha + l) f' H_{k-1,l-1}``.  The functionals
are kept symbolically as integer-coefficient polynomials in the jets of
``f'`` and evaluated with exact trigonometric derivatives, so no numerical
differentiation enters the main path.

Odd-order axis derivatives carry a factor ``sin(2 pi x / n)`` and vanish at
the lattice endpoints, which is why every pattern containing the boundary
piece is exactly zero; the evaluation preserves this exactly by reducing
angles modulo the period before the trigonometric calls.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import integrate

from .errors import InputError, check_resolvent_parameter
from .discrete import (DiscreteTorus, _axis_eigenvalues, _extended_trace_sum,
                       resolvent_trace)

BERNOULLI_CAP = 250
GL_ORDER_1D = 24          # Gauss-Legendre nodes per cell, one-axis formula
GL_ORDER_PATTERNS = 32    # the same for the operator-pattern decomposition


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
    if i < 0:
        raise InputError("Bernoulli index must be non-negative")
    if i > BERNOULLI_CAP:
        raise InputError(f"Bernoulli index cap is {BERNOULLI_CAP}")
    return _bernoulli_list(i)[i]


@lru_cache(maxsize=None)
def _bernoulli_poly_coeffs(i: int):
    """Float coefficients of the i-th Bernoulli polynomial, highest power first."""
    bs = _bernoulli_list(i)
    return tuple(float(math.comb(i, j) * bs[j]) for j in range(i + 1))


def periodic_bernoulli(i: int, x: float) -> float:
    """The i-th Bernoulli polynomial evaluated at the fractional part of x."""
    if i < 1:
        raise InputError("periodic Bernoulli needs index >= 1")
    return float(np.polyval(_bernoulli_poly_coeffs(i), x % 1.0))


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


def em_sum_1d(u: Callable[[float, int], float], n: int, M: int, *,
              quad_tol: float = 1e-12) -> EMParts:
    """One-axis Euler-Maclaurin decomposition of ``sum_{x=0}^{n} u(x)``.

    ``u(x, order)`` must return the order-th derivative up to order 2M+1.
    The remainder integral carries the periodic Bernoulli weight, which is
    only piecewise polynomial, so it is integrated cell by cell with
    Gauss-Legendre nodes.
    """
    if n < 1 or M < 1:
        raise InputError("need n >= 1 and M >= 1")
    integral, _ = integrate.quad(lambda x: u(x, 0), 0.0, float(n),
                                 epsabs=quad_tol, epsrel=quad_tol, limit=400)
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
    return math.fsum(u(float(x), 0) for x in range(n + 1))


# -- derivative coefficient functionals ---------------------------------------

@lru_cache(maxsize=None)
def _h_monomials(k: int, ell: int, alpha: int):
    """H_{k,ell} as integer-coefficient monomials in the jets of f'.

    A monomial key is a sorted tuple of derivative orders: ``(0, 0, 1)``
    stands for ``g * g * g'`` with ``g = df/dx``.  Built by the recursion
    ``H_{k,l} = d H_{k-1,l} - (alpha + l) g H_{k-1,l-1}``.
    """
    if ell < 0 or ell >= k:
        return ()
    if k == 1:
        return (((0,), -alpha),)
    acc: dict = {}
    for mono, coef in _h_monomials(k - 1, ell, alpha):
        for pos in range(len(mono)):
            lifted = list(mono)
            lifted[pos] += 1
            key = tuple(sorted(lifted))
            acc[key] = acc.get(key, 0) + coef
    for mono, coef in _h_monomials(k - 1, ell - 1, alpha):
        key = tuple(sorted(mono + (0,)))
        acc[key] = acc.get(key, 0) - (alpha + ell) * coef
    return tuple(sorted((k2, v) for k2, v in acc.items() if v != 0))


def _jet_matrix(n: int, xs: np.ndarray, max_order: int) -> np.ndarray:
    """Derivatives of ``g(x) = (n/pi) sin(2 pi x / n)`` up to max_order.

    Angles are reduced modulo the period first, so jets of even order are
    exactly 0.0 at x = 0 and x = n.
    """
    u = (np.asarray(xs, dtype=float) / n) % 1.0
    theta = 2.0 * math.pi * u
    s, c = np.sin(theta), np.cos(theta)
    quarter = (s, c, -s, -c)
    rows = [(n / math.pi) * (2.0 * math.pi / n) ** i * quarter[i % 4]
            for i in range(max_order + 1)]
    return np.vstack(rows)


def _h_eval(k: int, ell: int, alpha: int, jets: np.ndarray) -> np.ndarray:
    out = np.zeros(jets.shape[1])
    for mono, coef in _h_monomials(k, ell, alpha):
        term = np.full(jets.shape[1], float(coef))
        for o in mono:
            term = term * jets[o]
        out += term
    return out


def h_coefficient(k: int, ell: int, n: int, x: float, alpha: int) -> float:
    """Value of the coefficient functional H_{k,ell} at a point."""
    if not (0 <= ell <= k - 1):
        raise InputError("need 0 <= ell <= k-1")
    jets = _jet_matrix(n, np.array([x]), max(k - 1, 0))
    return float(_h_eval(k, ell, alpha, jets)[0])


def inv_power_derivative(k: int, n: int, x: float, z: float, alpha: int) -> float:
    """``d^k/dx^k (omega_1(n, x) + z^2)^(-alpha)`` from the exact recursion."""
    if k < 1:
        raise InputError("derivative order must be >= 1")
    f = float(_axis_eigenvalues(n, x)) + z * z
    jets = _jet_matrix(n, np.array([x]), k - 1)
    return math.fsum(
        float(_h_eval(k, ell, alpha, jets)[0]) * f ** (-alpha - ell - 1)
        for ell in range(k))


# -- multi-axis operator decomposition ----------------------------------------

def default_truncation(m: int) -> int:
    return math.ceil((3 * m + 1) / 2)


def _mixed_deriv_grid(n, z, alpha, coords, orders, chain=None):
    """``d^orders (omega + z^2)^(-alpha)`` on a tensor grid of coordinates.

    For two active axes the coefficient functionals chain: the first-applied
    axis uses exponent base alpha, and each of its terms shifts the base for
    the second axis.  ``chain`` selects which axis is applied first (the
    operators commute; both orders must agree).
    """
    z2 = z * z
    svals = [_axis_eigenvalues(n, c) for c in coords]
    if len(coords) == 1:
        F = svals[0] + z2
    else:
        F = svals[0][:, None] + svals[1][None, :] + z2
    active = [j for j in range(len(coords)) if orders[j] > 0]
    if not active:
        return F ** (-float(alpha))
    if len(active) == 1:
        j = active[0]
        o = orders[j]
        jets = _jet_matrix(n, coords[j], o - 1)
        out = np.zeros_like(F)
        for ell in range(o):
            hv = _h_eval(o, ell, alpha, jets)
            if len(coords) == 2:
                hv = hv[:, None] if j == 0 else hv[None, :]
            out += hv * F ** (-float(alpha + ell + 1))
        return out
    first, second = chain if chain is not None else (1, 0)
    o_f, o_s = orders[first], orders[second]
    jets_f = _jet_matrix(n, coords[first], o_f - 1)
    jets_s = _jet_matrix(n, coords[second], o_s - 1)
    out = np.zeros_like(F)
    for lf in range(o_f):
        hf = _h_eval(o_f, lf, alpha, jets_f)
        hf_b = hf[:, None] if first == 0 else hf[None, :]
        for ls in range(o_s):
            hs = _h_eval(o_s, ls, alpha + lf + 1, jets_s)
            hs_b = hs[:, None] if second == 0 else hs[None, :]
            out += hf_b * hs_b * F ** (-float(alpha + lf + ls + 2))
    return out


def _axis_atoms(beta: int, n: int, M: int):
    """Expansion of one summation-formula operator into evaluable atoms.

    Each atom is (kind, derivative order, scalar coefficient) with kind in
    {"int", "bint", "pt0", "ptn"}.
    """
    if beta == 1:
        return [("int", 0, 1.0)]
    if beta == 2:
        atoms = []
        for k in range(1, M + 1):
            c = float(bernoulli_number(2 * k)) / math.factorial(2 * k)
            atoms.append(("ptn", 2 * k - 1, c))
            atoms.append(("pt0", 2 * k - 1, -c))
        return atoms
    if beta == 3:
        return [("bint", 2 * M + 1, 1.0 / math.factorial(2 * M + 1))]
    if beta == 4:
        return [("pt0", 0, 0.5), ("ptn", 0, 0.5)]
    raise InputError(f"operator label must be in 1..4, got {beta}")


def _pattern_value(n, z, alpha, M, betas, chain=None) -> float:
    xs_int, ws_int = _gl_nodes(n, GL_ORDER_PATTERNS)
    bw = np.polyval(_bernoulli_poly_coeffs(2 * M + 1), xs_int % 1.0)
    pt0 = np.array([0.0])
    ptn = np.array([float(n)])
    one = np.array([1.0])

    pieces = []
    for combo in itertools.product(*[_axis_atoms(b, n, M) for b in betas]):
        coords, weights, orders = [], [], []
        scal = 1.0
        for kind, order, coeff in combo:
            scal *= coeff
            orders.append(order)
            if kind == "int":
                coords.append(xs_int)
                weights.append(ws_int)
            elif kind == "bint":
                coords.append(xs_int)
                weights.append(ws_int * bw)
            elif kind == "pt0":
                coords.append(pt0)
                weights.append(one)
            else:
                coords.append(ptn)
                weights.append(one)
        v = _mixed_deriv_grid(n, z, alpha, coords, tuple(orders), chain=chain)
        if len(coords) == 1:
            val = float(weights[0] @ v)
        else:
            val = float(weights[0] @ v @ weights[1])
        pieces.append(scal * val)
    return math.fsum(pieces)


def boundary_inclusive_lattice_sum(t: DiscreteTorus, z: float,
                                   alpha: int) -> float:
    """Direct reference sum over the extended grid {0..n}^m."""
    check_resolvent_parameter(z)
    return _extended_trace_sum(t.n, t.m, z, alpha)


def em_decompose(t: DiscreteTorus, z: float, alpha: int | None = None,
                 M: int | None = None, *, chain=None):
    """All 4^m operator-pattern values and their total.

    The total equals ``boundary_inclusive_lattice_sum(t, z, alpha)`` up to
    quadrature tolerance.  Patterns are keyed by their per-axis labels;
    the reduction runs in lexicographic pattern order.
    """
    if t.m > 2:
        raise InputError("full decomposition implemented for m <= 2")
    check_resolvent_parameter(z)
    alpha = t.m if alpha is None else int(alpha)
    floor = default_truncation(t.m)
    M = floor if M is None else int(M)
    if M < floor:
        raise InputError(
            f"truncation order is configurable upward from {floor} for "
            f"m = {t.m}, got {M}")
    values = {}
    for betas in itertools.product((1, 2, 3, 4), repeat=t.m):
        values[betas] = _pattern_value(t.n, z, alpha, M, betas, chain=chain)
    total = math.fsum(values[k] for k in sorted(values))
    return values, total


# -- homogeneous components and checks ----------------------------------------

def _window_integral(q: int, w: float, m: int, *, tol: float = 1e-12) -> float:
    """``int over [0,1]^q of (pi^-2 sum sin^2(pi y_i) + w^2)^(-m)``."""
    if q == 0:
        return w ** (-2.0 * m)

    def s1(y):
        return math.sin(math.pi * y) ** 2 / math.pi ** 2

    if q == 1:
        val, _ = integrate.quad(lambda y: (s1(y) + w * w) ** (-float(m)),
                                0.0, 1.0, epsabs=tol, epsrel=tol, limit=300,
                                points=[0.0, 0.5, 1.0])
        return val

    def inner(y1):
        base = s1(y1) + w * w
        val, _ = integrate.quad(lambda y2: (s1(y2) + base) ** (-float(m)),
                                0.0, 1.0, epsabs=tol, epsrel=tol, limit=300,
                                points=[0.0, 0.5, 1.0])
        return val

    val, _ = integrate.quad(inner, 0.0, 1.0, epsabs=tol * 10, epsrel=tol * 10,
                            limit=200, points=[0.0, 0.5, 1.0])
    return val


def scaled_bulk_term(m: int, q: int, z: float, n: float) -> float:
    """The jointly homogeneous block of order ``q - 2m``.

    ``n**(q - 2m)`` times the unit-window integral at argument ``z/n``; this
    is the value of a pattern with q integral axes and the rest endpoint
    averages, per inclusion-exclusion level.
    """
    return n ** (q - 2.0 * m) * _window_integral(q, z / n, m)


def homogeneous_weight(m: int, j: int) -> int:
    """Net inclusion-exclusion multiplicity of the order ``-(m+j)`` block."""
    q = m - j
    return sum((-1) ** k * math.comb(m, k) * math.comb(m - k, q)
               for k in range(0, j + 1))


def homogeneous_components(m: int, z: float, n: float) -> dict:
    """The jointly homogeneous terms ``j -> h_{-(m+j)}(z, n)`` of the trace."""
    out = {}
    for j in range(m + 1):
        w = homogeneous_weight(m, j)
        out[j] = 0.0 if w == 0 else w * scaled_bulk_term(m, m - j, z, n)
    return out


def corner_term_cancellation(m: int):
    """Exact cancellation of the fully endpoint-pinned contributions.

    Returns ``(binomial_sum, numeric_residual)``: the alternating binomial
    sum (always 0) and the largest floating-point residual of the level
    sum of the corner values ``(omega_at_corner + z^2)^(-m)`` across
    z in {0.5, 1, 2}.
    """
    if m < 1:
        raise InputError("dimension must be >= 1")
    binomial_sum = sum((-1) ** k * math.comb(m, k) for k in range(m + 1))
    worst = 0.0
    # omega vanishes exactly at every lattice corner
    corner_omega = float(_axis_eigenvalues(8, np.array([0.0, 8.0])).max())
    for z in (0.5, 1.0, 2.0):
        v = (corner_omega + z * z) ** (-float(m))
        resid = abs(math.fsum((-1) ** k * math.comb(m, k) * v
                              for k in range(m + 1)))
        worst = max(worst, resid)
    return binomial_sum, worst


@dataclass
class BoundScanReport:
    k: int
    ell: int
    branch: str                # "n-power" or "x-power"
    per_n: dict                # n -> max ratio |H| / bound over the x grid
    max_ratio: float
    spread: float              # max over n divided by min over n


def deriv_coefficient_bound_scan(k: int, ell: int, *,
                                 n_grid=(8, 16, 32, 64, 128, 256),
                                 alpha: int = 2) -> BoundScanReport:
    """Empirical constants in the odd-order coefficient bounds.

    For odd k, ``|H_{k,ell}|`` is bounded by a constant times
    ``n**(2(ell+1) - k)`` when ``k >= 2(ell+1)`` and ``x**(2(ell+1) - k)``
    otherwise; the scan reports the observed constant per n and its spread
    across the grid (a bounded spread is the check).
    """
    if k % 2 != 1:
        raise InputError("the bound applies to odd derivative orders")
    if not (0 <= ell <= k - 1):
        raise InputError("need 0 <= ell <= k-1")
    n_branch = k >= 2 * (ell + 1)
    expo = 2 * (ell + 1) - k
    per_n = {}
    for n in n_grid:
        xs = np.unique(np.concatenate([
            np.linspace(0.05, 2.0, 16),
            np.linspace(0.02, 0.5, 16) * n,
        ]))
        xs = xs[(xs > 0) & (xs <= n / 2)]
        jets = _jet_matrix(n, xs, k - 1)
        hv = np.abs(_h_eval(k, ell, alpha, jets))
        bound = float(n) ** expo if n_branch else xs ** expo
        per_n[n] = float(np.max(hv / bound))
    vals = list(per_n.values())
    return BoundScanReport(k=k, ell=ell,
                           branch="n-power" if n_branch else "x-power",
                           per_n=per_n, max_ratio=max(vals),
                           spread=max(vals) / max(min(vals), 1e-300))


@dataclass
class RemainderReport:
    table: dict                 # z -> {n: |H(z,n)| * z^(2m+2)}
    sup_per_z: dict             # z -> sup over n
    anchor_per_z: dict          # z -> value at the smallest n


def remainder_uniformity_scan(m: int, M: int | None = None, *,
                              z_grid=(4.0, 8.0, 16.0),
                              n_grid=(8, 16, 32, 64, 128)) -> RemainderReport:
    """Size of the non-homogeneous remainder across the (z, n) grid.

    ``H(z, n)`` is the trace minus its homogeneous components; the scaled
    values ``|H| z^(2m+2)`` should stay bounded uniformly in n and stop
    growing in z.
    """
    table = {}
    sup_per_z = {}
    anchor = {}
    for z in z_grid:
        row = {}
        for n in n_grid:
            t = DiscreteTorus(m, int(n))
            tr = resolvent_trace(t, z, m)
            h = tr - math.fsum(homogeneous_components(m, z, float(n)).values())
            row[int(n)] = abs(h) * z ** (2 * m + 2)
        table[z] = row
        sup_per_z[z] = max(row.values())
        anchor[z] = row[int(n_grid[0])]
    return RemainderReport(table=table, sup_per_z=sup_per_z,
                           anchor_per_z=anchor)
