"""Polyhomogeneous asymptotic expansions and regularized limits.

An expansion here is a finite sum of terms ``c * x**alpha * log(x)**k``,
taken either as ``x -> infinity`` or ``x -> 0``.
The regularized limit of a function admitting such an expansion is the
coefficient of the ``x**0 log(x)**0`` term (the finite part of the limit);
it is extracted numerically by least-squares fitting a declared basis of
``(alpha, k)`` pairs to samples on a geometric grid.

Fitting uses a column-normalized design matrix solved by an orthogonal
factorization; power-log bases on geometric grids are ill-conditioned and
the per-column normalization keeps the reported condition number
meaningful.  The extraction uncertainty is the larger of the fit residual
and an even/odd subgrid stability delta, since no error model beyond
internal consistency is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import FitDegenerateError, InputError

TO_INFINITY = "to-infinity"
TO_ZERO = "to-zero"

DEFAULT_COND_CAP = 1e12


@dataclass(frozen=True)
class ExpTerm:
    """One expansion term ``coeff * x**alpha * log(x)**k``."""

    alpha: float
    k: int
    coeff: float

    def __post_init__(self):
        if self.k < 0:
            raise InputError(f"log power must be non-negative, got k={self.k}")


@dataclass(frozen=True)
class Expansion:
    """A finite polyhomogeneous expansion.

    ``direction`` is ``"to-infinity"`` or ``"to-zero"``.  Terms are stored
    leading term first: distinct exponents strictly decreasing (to-infinity)
    or strictly increasing (to-zero).
    """

    direction: str
    terms: tuple[ExpTerm, ...]

    def __post_init__(self):
        if self.direction not in (TO_INFINITY, TO_ZERO):
            raise InputError(f"unknown direction {self.direction!r}")
        object.__setattr__(self, "terms", tuple(
            t if isinstance(t, ExpTerm) else ExpTerm(*t) for t in self.terms))
        seen = set()
        for t in self.terms:
            key = (t.alpha, t.k)
            if key in seen:
                raise InputError(f"duplicate expansion term (alpha, k) = {key}")
            seen.add(key)
        # normalize term order so the leading term comes first (exponents
        # decreasing for to-infinity, increasing for to-zero)
        sign = -1.0 if self.direction == TO_INFINITY else 1.0
        object.__setattr__(self, "terms", tuple(sorted(
            self.terms, key=lambda t: (sign * t.alpha, t.k))))


def eval_expansion(e: Expansion, x: float) -> float:
    """Evaluate the expansion's term sum at ``x > 0``."""
    if x <= 0:
        raise InputError(f"expansion argument must be positive, got {x}")
    lx = math.log(x)
    return math.fsum(t.coeff * x ** t.alpha * lx ** t.k for t in e.terms)


def regularized_limit(e: Expansion) -> float:
    """The constant coefficient of the expansion, 0 when absent."""
    for t in e.terms:
        if t.alpha == 0.0 and t.k == 0:
            return t.coeff
    return 0.0


@dataclass(frozen=True)
class BasisSpec:
    """A declared set of ``(alpha, k)`` basis pairs for fitting."""

    pairs: tuple[tuple[float, int], ...]

    def __post_init__(self):
        pairs = tuple((float(a), int(k)) for a, k in self.pairs)
        if len(set(pairs)) != len(pairs):
            raise InputError("basis pairs must be distinct")
        for _, k in pairs:
            if k < 0:
                raise InputError("log powers in a basis must be non-negative")
        object.__setattr__(self, "pairs", pairs)

    def __len__(self):
        return len(self.pairs)


@dataclass(frozen=True)
class Samples:
    """Sampled values ``y_i = f(x_i)`` on a strictly increasing positive grid."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or y.ndim != 1 or len(x) != len(y):
            raise InputError("samples need matching 1-d x and y arrays")
        if len(x) and x[0] <= 0:
            raise InputError("sample abscissae must be positive")
        if np.any(np.diff(x) <= 0):
            raise InputError("sample abscissae must be strictly increasing")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self):
        return len(self.x)

    def subgrid(self, start: int) -> "Samples":
        return Samples(self.x[start::2], self.y[start::2])


@dataclass
class FitReport:
    rms_residual: float = 0.0
    condition_estimate: float = 1.0
    stability_delta: float = 0.0


def _design_matrix(x: np.ndarray, pairs) -> np.ndarray:
    lx = np.log(x)
    cols = [x ** a * lx ** k for a, k in pairs]
    return np.column_stack(cols)


def _solve_normalized(x, y, pairs, cond_cap):
    with np.errstate(over="ignore", invalid="ignore"):
        a = _design_matrix(x, pairs)
        norms = np.sqrt(np.sum(a * a, axis=0))
    if np.any(norms == 0.0) or not np.all(np.isfinite(norms)):
        raise FitDegenerateError("design matrix has a zero or non-finite column")
    an = a / norms
    coef_n, _, rank, svals = np.linalg.lstsq(an, y, rcond=None)
    if rank < len(pairs):
        raise FitDegenerateError("design matrix is rank deficient")
    cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else math.inf
    if cond > cond_cap:
        raise FitDegenerateError(
            f"condition estimate {cond:.3g} exceeds cap {cond_cap:.3g}")
    coeffs = coef_n / norms
    resid = y - a @ coeffs
    rms = float(np.sqrt(np.mean(resid * resid))) if len(y) else 0.0
    return coeffs, rms, cond


def fit_expansion(s: Samples, b: BasisSpec, *,
                  cond_cap: float = DEFAULT_COND_CAP):
    """Least-squares fit of the basis to the samples.

    Returns ``(coefficients, FitReport)`` where coefficients maps each
    ``(alpha, k)`` pair to its fitted value.  The stability delta is the
    difference of the constant coefficient between refits on the even- and
    odd-index subgrids; it is 0 when a subgrid is too small to refit or when
    the basis has no constant term.
    """
    pairs = b.pairs
    if len(s) < len(pairs) + 2:
        raise InputError(
            f"need at least {len(pairs) + 2} samples for {len(pairs)} basis "
            f"pairs, got {len(s)}")
    coeffs, rms, cond = _solve_normalized(s.x, s.y, pairs, cond_cap)
    coeff_map = {p: float(c) for p, c in zip(pairs, coeffs)}

    delta = 0.0
    if (0.0, 0) in coeff_map:
        even, odd = s.subgrid(0), s.subgrid(1)
        if len(even) >= len(pairs) and len(odd) >= len(pairs):
            ce, _, _ = _solve_normalized(even.x, even.y, pairs, math.inf)
            co, _, _ = _solve_normalized(odd.x, odd.y, pairs, math.inf)
            idx = pairs.index((0.0, 0))
            delta = float(ce[idx] - co[idx])

    report = FitReport(rms_residual=rms, condition_estimate=max(cond, 1.0),
                       stability_delta=delta)
    return coeff_map, report


def extract_reglimit(s: Samples, b: BasisSpec):
    """Fitted constant coefficient and its uncertainty.

    The uncertainty is ``max(rms_residual, |stability_delta|)``.
    """
    if (0.0, 0) not in b.pairs:
        raise InputError("regularized-limit extraction needs (0, 0) in the basis")
    coeffs, report = fit_expansion(s, b)
    return coeffs[(0.0, 0)], max(report.rms_residual, abs(report.stability_delta))

