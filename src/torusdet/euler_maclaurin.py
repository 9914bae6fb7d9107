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
the lattice endpoints, so every pattern containing the boundary piece is an
exact zero of its evaluated factors (angles are reduced modulo the period)
and builds no grid; a coefficient monomial with an identically zero jet is
skipped before any array arithmetic.  Axis grids are folded to their nodes
below n/2 (the integrands are even under x -> n - x), each axis factor is
evaluated once per decomposition, and derivatives stream one ladder of
powers of 1/f through blocks of rows of the first axis, about
``discrete.LATTICE_BLOCK`` elements each, so the working set stays in cache
and the pattern values do not depend on the block size.
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

from .errors import (InputError, check_dimension, check_integer,
                     check_resolvent_parameter)
from .discrete import (LATTICE_BLOCK, DiscreteTorus, _axis_eigenvalues,
                       _extended_trace_sum, resolvent_trace)
from .finite_part import _quad

BERNOULLI_CAP = 250
GL_ORDER_1D = 24          # Gauss-Legendre nodes per cell, one-axis formula
GL_ORDER_PATTERNS = 32    # the same for the operator-pattern decomposition
EM_QUAD_TOL = 1e-12       # adaptive quadratures, absolute and relative
# Largest truncation order of the decomposition.  At n = 8, z = 1 the error
# grows past it (4e-10 at M = 7 and 1e-7 at M = 8 for m = 2), and the cost
# nearly doubles with each order.
EM_MAX_ORDER = 6
EM_MAX_GRID = 1 << 22     # unfolded nodes (32 n)^m of one pattern grid


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


def _h_eval(k: int, ell: int, alpha: int, jets: np.ndarray,
            dead=frozenset()) -> np.ndarray:
    """``H_{k,ell}`` on the nodes of ``jets``, skipping every monomial with a
    jet order in ``dead``, whose rows are 0.0 at every node: such terms are
    signed zeros and leave the sum, started at +0.0, unchanged."""
    return sum((math.prod((jets[o] for o in mono), start=float(coef))
                for mono, coef in _h_monomials(k, ell, alpha)
                if dead.isdisjoint(mono)),
               np.zeros(jets.shape[1]))


# -- multi-axis operator decomposition ----------------------------------------

def default_truncation(m: int) -> int:
    return math.ceil((3 * m + 1) / 2)


def _axis_factor(memo: dict, n: int, axis, ell: int, a: int):
    """Memoized ``H_{o,l}^{(a)}`` on ``axis = (key, coords, o)``.

    None when the evaluated vector is exactly 0.0 at every node.
    """
    key, xs, o = axis
    if (key, o, ell, a) not in memo:
        if (key, o) not in memo:
            jets = _jet_matrix(n, xs, o - 1)
            dead = np.flatnonzero(~jets.any(axis=1)).tolist()
            memo[key, o] = jets, set(dead)
        h = _h_eval(o, ell, a, *memo[key, o])
        memo[key, o, ell, a] = h if h.any() else None
    return memo[key, o, ell, a]


def _mixed_deriv_grid(n, z, alpha, axes, memo):
    """Mixed derivative of ``(omega + z^2)^(-alpha)`` on a grid of atoms.

    Starting from ``F^(-alpha)``, each active axis ``(key, coords, o)``,
    last first (the operators commute), expands every term ``c F^(-a)``
    into the terms ``c H_{o,l}^{(a)} F^(-a-l-1)``, l < o, dropping those
    whose factor is exactly 0.0 at every node.  Such zeros are all or
    nothing per atom (odd orders vanish at x = 0 and x = n, never at a cell
    node), so kept terms start at the same power; with none kept the zero
    grid returns before F is formed.  The grid is filled in blocks of rows
    of the first axis, about ``LATTICE_BLOCK`` elements each: per block F
    is summed over the broadcast axes in axis order, and the sum walks the
    terms sorted by exponent, raising one power grid by ``R = 1/F`` and
    adding each ``prod(c) F^(-a)`` pointwise.  Every element sees the same
    operations in the same order whatever the block size.
    """
    m, terms = len(axes), [((), alpha)]
    for j, axis in reversed([(j, ax) for j, ax in enumerate(axes) if ax[2]]):
        terms = [(c + (h.reshape((-1,) + (1,) * (m - 1 - j)),), a + ell + 1)
                 for c, a in terms for ell in range(axis[2])
                 if (h := _axis_factor(memo, n, axis, ell, a)) is not None]
    out = np.zeros([len(xs) for _, xs, _ in axes])
    if not terms:
        return out
    grids = [_axis_eigenvalues(n, xs).reshape((-1,) + (1,) * (m - 1 - j))
             for j, (_, xs, _) in enumerate(axes)]
    terms.sort(key=lambda term: term[1])
    step = max(1, LATTICE_BLOCK // math.prod(out.shape[1:]))
    for lo in range(0, len(out), step):
        rows = slice(lo, lo + step)
        # only the first axis's grid and factors have m dimensions
        F = sum(grids[1:], grids[0][rows]) + z * z
        power, R = terms[0][1], 1.0 / F
        P = F ** -float(power)
        for c, a in terms:
            for power in range(power + 1, a + 1):
                P *= R
            out[rows] += math.prod(h[rows] if h.ndim == m else h
                                   for h in c) * P
    return out


def _axis_atoms(n: int, M: int) -> dict:
    """The four summation-formula operators of one axis as evaluable atoms.

    Maps each label to atoms ``((key, coords, derivative order), weights,
    coefficient)``, keyed by label and position: the integral (1) and the
    remainder (3) run over the Gauss-Legendre cell nodes, the remainder
    with the periodic Bernoulli weight; the boundary derivatives (2), one
    atom per order, and the endpoint average (4) run over the two nodes
    x = 0 and x = n, with weights (-1, 1) and (1/2, 1/2).  Grid atoms keep
    the 16 n nodes below n/2, doubly weighted: the integrands are even
    under x -> n - x.
    """
    xs, ws = (v[:len(v) // 2] for v in _gl_nodes(n, GL_ORDER_PATTERNS))
    bw = np.polyval(_bernoulli_poly_coeffs(2 * M + 1), xs % 1.0)
    ends = np.array([0.0, float(n)])
    ops = {1: [(xs, 2 * ws, 0, 1.0)],
           2: [(ends, np.array([-1.0, 1.0]), 2 * k - 1,
                float(bernoulli_number(2 * k)) / math.factorial(2 * k))
               for k in range(1, M + 1)],
           3: [(xs, 2 * ws * bw, 2 * M + 1, 1.0 / math.factorial(2 * M + 1))],
           4: [(ends, np.array([0.5, 0.5]), 0, 1.0)]}
    return {b: [(((b, i), x, o), w, c) for i, (x, w, o, c) in enumerate(atoms)]
            for b, atoms in ops.items()}


def boundary_inclusive_lattice_sum(t: DiscreteTorus, z: float,
                                   alpha: int) -> float:
    """Direct reference sum over the extended grid {0..n}^m."""
    check_resolvent_parameter(z, alpha, t.m * math.log(2.0))  # zero-mode weight
    return _extended_trace_sum(t.n, t.m, z, alpha)


def em_decompose(t: DiscreteTorus, z: float, alpha: int | None = None,
                 M: int | None = None):
    """All 4^m operator-pattern values and their total.

    The total equals ``boundary_inclusive_lattice_sum(t, z, alpha)`` up to
    quadrature tolerance.  Patterns are keyed by their per-axis labels;
    the reduction runs in lexicographic pattern order.  Axis grids are
    folded by x -> n - x; boundary patterns are exact zeros of their
    evaluated factors and build no grid, the others stream one ladder.

    The 32-node cell rule cannot resolve the peak of width z at x = 0, so
    the error grows as z falls, whatever n is: at the default M the total
    meets 1e-8 relative for z >= 0.2 at m = 1 and for z >= 0.4 at m = 2
    (at z = 0.1 the relative error is 1.6e-6 at m = 1 and 2e9 at m = 2).
    A single pattern may be less accurate than the total: the (3, 3)
    remainder cancels about 1e8-fold between its terms, and its relative
    error stays below 5e-8 at z = 0.4 and 5e-9 at z = 0.5.
    """
    if t.m > 2 or (GL_ORDER_PATTERNS * t.n) ** t.m > EM_MAX_GRID:
        raise InputError(
            f"decomposition implemented for m <= 2 and pattern grids of "
            f"(32 n)^m <= {EM_MAX_GRID} nodes, got m = {t.m}, n = {t.n}")
    alpha = t.m if alpha is None else check_integer("alpha", alpha)
    if alpha < 1:
        raise InputError("resolvent power alpha must be >= 1")
    floor = default_truncation(t.m)
    M = floor if M is None else check_integer("M", M)
    if not floor <= M <= EM_MAX_ORDER:
        raise InputError(
            f"truncation order must be in {floor}..{EM_MAX_ORDER} for "
            f"m = {t.m}, got {M}")
    # a derivative of order 2M+1 per axis raises the resolvent power by as much
    check_resolvent_parameter(z, alpha + t.m * (2 * M + 1))
    atoms = _axis_atoms(t.n, M)
    memo, values = {}, {}   # the memo lives for this call only
    for betas in itertools.product(atoms, repeat=t.m):
        pieces = []
        for combo in itertools.product(*(atoms[b] for b in betas)):
            axes, weights, coeffs = zip(*combo)
            val = weights[0] @ _mixed_deriv_grid(t.n, z, alpha, axes, memo)
            for w in weights[1:]:
                val = val @ w
            pieces.append(math.prod(coeffs) * float(val))
        values[betas] = math.fsum(pieces)
    total = math.fsum(values[k] for k in sorted(values))
    return values, total


# -- homogeneous components and checks ----------------------------------------

def _window_integral(q: int, w: float, m: int) -> float:
    """``int over [0,1]^q of (pi^-2 sum sin^2(pi y_i) + w^2)^(-m)``.

    With ``A^(-m) = Gamma(m)^(-1) int t^(m-1) e^(-t A) dt`` the axes
    separate: each averages ``e^(-t sin^2(pi y)/pi^2)`` to the one-axis
    lattice heat trace ``ive(0, t / 2 pi^2)``, leaving one integral in t
    for every q, split at ``t = 1/w^2``; beyond it t is scaled by w^2.
    """
    if q == 0:
        return w ** (-2.0 * m)
    w2 = w * w

    def f(t):
        return (t ** (m - 1) * math.exp(-w2 * t)
                * scipy.special.ive(0, t / (2.0 * math.pi ** 2)) ** q)

    head, _ = _quad(f, 0.0, 1.0 / w2, EM_QUAD_TOL)
    tail, _ = _quad(lambda s: f(s / w2), 1.0, math.inf, EM_QUAD_TOL)
    return (head + tail / w2) / math.gamma(m)


def scaled_bulk_term(m: int, q: int, z: float, n: float) -> float:
    """The jointly homogeneous block of order ``q - 2m``.

    ``n**(q - 2m)`` times the unit-window integral at argument ``z/n``; this
    is the value of a pattern with q integral axes and the rest endpoint
    averages, per inclusion-exclusion level.  The quadratures meet their
    tolerance for ``1/1024 <= z/n <= 1000`` and raise NumericalError from
    about ``z/n = 1/2048`` down.
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
