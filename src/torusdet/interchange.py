"""Interchange of regularized limits and regularized integrals.

For a jointly homogeneous function f(z, n) of degree d with declared
expansions of f(., 1) and f(1, .) at infinity, the limit of the
finite-part integrals equals the finite-part integral of the pointwise
limit plus a correction: the full finite-part integral of f(., 1) over
(0, inf) when d = -1, and zero otherwise.  This module evaluates both
sides numerically on registered test functions and reports agreement.

Homogeneity gives closed relations used throughout:
``f(z, n) = n^d f(z/n, 1) = z^d f(1, n/z)``, so the z-tail exponents of
f(., n) are those of the declared z-expansion for every n, and the
small-z behaviour of f(., 1) follows from the declared n-expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError
from .expansion import (TO_INFINITY, TO_ZERO, BasisSpec, Expansion, ExpTerm,
                        Samples, extract_reglimit)
from .finite_part import finite_part_tail_inf, reg_integral, _quad, _tail_part

DEGREE_TOL = 1e-12
QUAD_TOL = 1e-11        # adaptive quadratures, absolute and relative
HOMOGENEITY_RTOL = 1e-12


@dataclass(frozen=True)
class HomogeneousFn:
    """A jointly homogeneous test function with declared tail data.

    ``expansion_z`` describes f(z, 1) as z -> infinity and ``expansion_n``
    describes f(1, n) as n -> infinity.
    """

    name: str
    evaluator: Callable[[float, float], float]
    degree: float
    expansion_z: Expansion
    expansion_n: Expansion

    def __post_init__(self):
        if self.expansion_z.direction != TO_INFINITY:
            raise InputError("expansion_z must be a to-infinity expansion")
        if self.expansion_n.direction != TO_INFINITY:
            raise InputError("expansion_n must be a to-infinity expansion")


@dataclass
class InterchangeReport:
    name: str
    lhs: float
    rhs: float
    corr: float
    degree: float
    abs_diff: float
    passed: bool


def verify_homogeneity(f: HomogeneousFn) -> float:
    """Largest relative deviation of f(tz, tn) from t^d f(z, n).

    The sample is 40 points from a fixed seed, so reports are reproducible.

    Raises when the declared degree fails; declared expansion data is
    otherwise trusted.
    """
    lo, hi = np.log([0.5, 0.5, 0.25]), np.log([8.0, 8.0, 4.0])
    sample = np.exp(np.random.default_rng(7).uniform(lo, hi, size=(40, 3)))
    worst = 0.0
    for z, n, t in sample.tolist():
        ref = t ** f.degree * f.evaluator(z, n)
        got = f.evaluator(t * z, t * n)
        if ref == 0.0 and got == 0.0:
            continue
        rel = abs(got - ref) / max(abs(ref), 1e-300)
        worst = max(worst, rel)
    if worst > HOMOGENEITY_RTOL:
        raise InputError(
            f"{f.name}: declared degree {f.degree} violated "
            f"(relative deviation {worst:.3g})")
    return worst


def _zero_side_expansion(f: HomogeneousFn) -> Expansion:
    """Expansion of f(z, 1) as z -> 0, derived from the n-expansion.

    ``f(z, 1) = z^d f(1, 1/z)``, so the term ``b n^beta log(n)^k`` becomes
    ``b (-1)^k z^(d - beta) log(z)^k``.
    """
    d = f.degree
    terms = [ExpTerm(d - t.alpha, t.k, t.coeff * (-1.0) ** t.k)
             for t in f.expansion_n.terms]
    return Expansion(direction=TO_ZERO, terms=tuple(terms))


def correction_term(f: HomogeneousFn) -> float:
    """The interchange correction: fp-integral of f(., 1) over (0, inf)
    when the degree is -1 (within tolerance), zero otherwise."""
    if abs(f.degree + 1.0) > DEGREE_TOL:
        return 0.0
    return reg_integral(lambda z: f.evaluator(z, 1.0),
                        basis_zero=_zero_side_expansion(f),
                        basis_inf=f.expansion_z, quad_tol=QUAD_TOL).value


def fp_integral_from_one(f: HomogeneousFn, n: float) -> float:
    """Finite-part integral of f(., n) over [1, inf).

    Quadrature runs to the window end ``W = max(32, 16 n)``, which scales
    with n because the function lives at z of order n by homogeneity.
    Beyond it ``f(z, n) = n^d f(z/n, 1)``: the declared z-expansion of
    f(., 1) is integrated in closed form from ``W/n`` and scaled by
    ``n^(d+1)``.  A term ``c u^-1 log(u)^k`` adds ``c (-log n)^(k+1)/(k+1)``
    before the scaling: the constant that ``log(z/n)^(k+1)`` keeps at the
    moving endpoint.
    """
    window_end = max(32.0, 16.0 * n)
    core, _ = _quad(lambda z: f.evaluator(z, n), 1.0, window_end, QUAD_TOL)
    tail, _ = _tail_part(None, "infinity", window_end / n, f.expansion_z)
    shift = math.fsum(t.coeff * (-math.log(n)) ** (t.k + 1) / (t.k + 1)
                      for t in f.expansion_z.terms if t.alpha == -1.0)
    return core + n ** (f.degree + 1.0) * (tail + shift)


def _default_basis_n(f: HomogeneousFn) -> BasisSpec:
    """Basis for the n-expansion of the per-n integrals.

    The coordinate-change picture gives exponents ``d + 1`` (with a log),
    the declared n-exponents with their log powers filled downward, and the
    constant, ordered by descending exponent, then ascending log power.
    """
    pairs = {(f.degree + 1.0, 0), (f.degree + 1.0, 1), (0.0, 0)}
    for t in f.expansion_n.terms:
        pairs.update((t.alpha, j) for j in range(t.k + 1))
    return BasisSpec(tuple(sorted(pairs, key=lambda p: (-p[0], p[1]))))


def lhs_interchange(f: HomogeneousFn) -> float:
    """Regularized limit over n of the finite-part integrals from 1."""
    grid = [2 ** i for i in range(3, 11)]
    vals = [fp_integral_from_one(f, n) for n in grid]
    samples = Samples(np.array(grid, dtype=float), np.array(vals))
    constant, _ = extract_reglimit(samples, _default_basis_n(f))
    return constant


def check_interchange(f: HomogeneousFn, tol: float = 1e-6) -> InterchangeReport:
    """Evaluate both sides of the interchange identity and compare."""
    verify_homogeneity(f)
    lhs = lhs_interchange(f)
    corr = correction_term(f)
    # the finite-part integral over [1, inf) of the pointwise limit over n,
    # sum_k (-1)^k b_{0k} z^d log(z)^k, term by term, plus the correction
    rhs = math.fsum((-1.0) ** t.k * t.coeff
                    * finite_part_tail_inf(f.degree, t.k, 1.0)
                    for t in f.expansion_n.terms if t.alpha == 0.0) + corr
    diff = abs(lhs - rhs)
    return InterchangeReport(name=f.name, lhs=lhs, rhs=rhs, corr=corr,
                             degree=f.degree, abs_diff=diff,
                             passed=diff <= tol)


# -- built-in closed-form registry --------------------------------------------

def _alt_powers(start: float, count: int) -> tuple:
    terms = []
    for i in range(count):
        terms.append(ExpTerm(start - 2.0 * i, 0, (-1.0) ** i))
    return tuple(terms)


def builtin_registry() -> list[HomogeneousFn]:
    """Closed-form test functions covering both correction branches.

    Degrees -1 (corrections pi/2 and pi/4), 0, and -2 are represented; all
    expansions are geometric-series data of the evaluators.
    """
    lorentz = HomogeneousFn(
        name="n/(z^2+n^2)",
        evaluator=lambda z, n: n / (z * z + n * n),
        degree=-1.0,
        # 1/(z^2+1) = z^-2 - z^-4 + z^-6 - ...
        expansion_z=Expansion(TO_INFINITY, _alt_powers(-2.0, 4)),
        # n/(1+n^2) = n^-1 - n^-3 + n^-5 - ...
        expansion_n=Expansion(TO_INFINITY, _alt_powers(-1.0, 4)),
    )
    lorentz_flat = HomogeneousFn(
        name="n^2/(z^2+n^2)",
        evaluator=lambda z, n: n * n / (z * z + n * n),
        degree=0.0,
        expansion_z=Expansion(TO_INFINITY, _alt_powers(-2.0, 4)),
        # n^2/(1+n^2) = 1 - n^-2 + n^-4 - ...
        expansion_n=Expansion(TO_INFINITY, _alt_powers(0.0, 4)),
    )
    lorentz_sq = HomogeneousFn(
        name="n^3/(z^2+n^2)^2",
        evaluator=lambda z, n: n ** 3 / (z * z + n * n) ** 2,
        degree=-1.0,
        # 1/(z^2+1)^2 = z^-4 - 2 z^-6 + 3 z^-8 - ...
        expansion_z=Expansion(TO_INFINITY, tuple(
            ExpTerm(-4.0 - 2 * i, 0, (-1.0) ** i * (i + 1)) for i in range(4))),
        # n^3/(1+n^2)^2 = n^-1 - 2 n^-3 + 3 n^-5 - ...
        expansion_n=Expansion(TO_INFINITY, tuple(
            ExpTerm(-1.0 - 2 * i, 0, (-1.0) ** i * (i + 1)) for i in range(4))),
    )
    inverse_sq = HomogeneousFn(
        name="z^-2",
        evaluator=lambda z, n: 1.0 / (z * z),
        degree=-2.0,
        expansion_z=Expansion(TO_INFINITY, (ExpTerm(-2.0, 0, 1.0),)),
        expansion_n=Expansion(TO_INFINITY, (ExpTerm(0.0, 0, 1.0),)),
    )
    return [lorentz, lorentz_flat, lorentz_sq, inverse_sq]
