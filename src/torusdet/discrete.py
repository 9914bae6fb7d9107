"""Exact spectral computations on discrete tori.

The discrete torus with n points per axis in m dimensions carries a
difference Laplacian whose one-axis eigenvalues are
``(n^2/pi^2) sin^2(pi k / n)``, k = 0..n-1; the m-dimensional eigenvalues
are sums over axes.  That axis formula lives in one kernel,
``_axis_eigenvalues``, which every spectral quantity here and in the
Euler-Maclaurin module evaluates.  Spectral sums (log-determinants,
resolvent traces, the extended-grid sums of the inclusion-exclusion
route) are streamed by ``_lattice_sum`` over the half-axis table
``_half_axis`` (distinct eigenvalues k = 0..n//2 with multiplicity
weights), so no ``n^m`` eigenvalue array is ever materialized, and chunk
partials are combined with an exact fsum in a fixed order for
reproducibility.

The unnormalized graph Laplacian of the same torus has integer entries;
its spanning-tree count (any cofactor, by the matrix-tree theorem) gives
an exact integer cross-check of the rescaled log-determinant:
``exp(log_det_rescaled) = n^m * #spanning trees``.  Both exact
determinant routines read the reduced Laplacian from one row generator,
``_reduced_laplacian_rows``.  For n = 2 the circle degenerates to a
doubled edge, which keeps the one-axis eigenvalue 4 and the tree count 2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (InputError, NumericalError, check_dimension,
                     check_resolvent_parameter)
from .expansion import BasisSpec, Samples, extract_reglimit
from .sums import fsum_chunks

MAX_SUM_LATTICE = 1 << 25     # iteration cap for spectral sums
MAX_TREE_VERTICES = 4096      # cap for exact integer determinants
MAX_SORTED = 1 << 22


@dataclass(frozen=True)
class DiscreteTorus:
    """Product of m discrete circles with n points each."""

    m: int
    n: int

    def __post_init__(self):
        check_dimension(self.m)
        if self.n < 2:
            raise InputError(f"need at least 2 points per axis, got {self.n}")

    @property
    def points(self) -> int:
        return self.n ** self.m


def _axis_eigenvalues(n: int, x):
    """One-axis eigenvalue function ``(n^2/pi^2) sin^2(pi x/n)``.

    Evaluated through ``min(x, n-x)`` so the reflection ``x -> n-x`` is an
    exact symmetry in floating point and the value is exactly 0 at both
    x = 0 and x = n.
    """
    return (n * n / math.pi ** 2) * np.sin(math.pi * np.minimum(x, n - x) / n) ** 2


def spectrum_1d(n: int) -> np.ndarray:
    """One-axis eigenvalues ``(n^2/pi^2) sin^2(pi k/n)``, k = 0..n-1."""
    return _axis_eigenvalues(n, np.arange(n))


def _half_axis(n: int):
    """Distinct one-axis eigenvalues over k=0..n-1 with multiplicities."""
    half = n // 2
    w = np.full(half + 1, 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[half] = 1.0
    return _axis_eigenvalues(n, np.arange(half + 1)), w


def _lattice_sum(axes, term_fn, *, skip_zero_mode: bool) -> float:
    """Reduce ``term_fn(omega)`` over the weighted product of axis spectra.

    The innermost axis is vectorized; outer axes are looped in
    lexicographic order and chunk partials are fsum-combined, which fixes
    the reduction order regardless of how work would be chunked.
    """
    *outer, (s_in, w_in) = axes
    chunks = []
    if not outer:
        vals, wts = (s_in[1:], w_in[1:]) if skip_zero_mode else (s_in, w_in)
        chunks.append(wts * term_fn(vals))
    else:
        ranges = [range(len(s)) for s, _ in outer]
        for idx in itertools.product(*ranges):
            base = 0.0
            wt = 1.0
            for (s, w), i in zip(outer, idx):
                base += s[i]
                wt *= w[i]
            vals, wts = s_in, w_in
            if skip_zero_mode and all(i == 0 for i in idx):
                vals, wts = s_in[1:], w_in[1:]
            chunks.append((wt * wts) * term_fn(base + vals))
    return fsum_chunks(chunks)


def _check_sum_size(t: DiscreteTorus):
    if t.points > MAX_SUM_LATTICE:
        raise InputError(
            f"lattice of {t.points} points exceeds the iteration cap "
            f"{MAX_SUM_LATTICE}")


def omega(t: DiscreteTorus, x) -> float:
    """``(n^2/pi^2) sum_i sin^2(pi x_i / n)`` for real coordinates in [0, n].

    The reflection ``x_i -> n - x_i`` is an exact symmetry of the float
    result.
    """
    xs = np.array([float(v) for v in x])
    if len(xs) != t.m:
        raise InputError(f"expected {t.m} coordinates, got {len(xs)}")
    for v in xs:
        if not (0.0 <= v <= t.n):
            raise InputError(f"coordinate {v} outside [0, {t.n}]")
    return float(np.sum(_axis_eigenvalues(t.n, xs)))


def _extended_trace_sum(n: int, dims: int, z: float, alpha: int) -> float:
    """``sum (omega + z^2)^(-alpha)`` over the extended grid {0..n}^dims.

    On the half-axis table the endpoints k = 0 and k = n share eigenvalue 0,
    so the k = 0 weight becomes 2.
    """
    s, w = _half_axis(n)
    w[0] = 2.0
    z2 = z * z
    return _lattice_sum([(s, w)] * dims, lambda v: (v + z2) ** (-float(alpha)),
                        skip_zero_mode=False)


def log_det(t: DiscreteTorus) -> float:
    """Sum of ``log`` over the nonzero spectrum of the rescaled Laplacian."""
    _check_sum_size(t)
    return _lattice_sum([_half_axis(t.n)] * t.m, np.log, skip_zero_mode=True)


def log_det_rescaled(t: DiscreteTorus) -> float:
    """Log-determinant of the unnormalized (graph) Laplacian.

    Exact affine relation: subtract ``(n^m - 1) log(n^2 / 4 pi^2)`` from
    the rescaled-operator log-determinant.
    """
    scale = math.log(t.n * t.n / (4 * math.pi ** 2))
    return log_det(t) - (t.points - 1) * scale


def resolvent_trace(t: DiscreteTorus, z: float, alpha: int = 1) -> float:
    """``sum over the full lattice of (omega + z^2)^(-alpha)``, kernel included."""
    check_resolvent_parameter(z)
    if alpha < 1:
        raise InputError("resolvent power alpha must be >= 1")
    _check_sum_size(t)
    z2 = z * z
    return _lattice_sum([_half_axis(t.n)] * t.m,
                        lambda v: (v + z2) ** (-alpha), skip_zero_mode=False)


def trace_inclusion_exclusion(t: DiscreteTorus, z: float) -> float:
    """Resolvent trace via alternating sums over pinned-coordinate sublattices.

    ``sum_{k=0}^m (-1)^k C(m,k) T_k`` where ``T_k`` sums
    ``(omega + z^2)^(-m)`` over the extended grid ``{0..n}^(m-k)`` with k
    coordinates pinned to 0.  Equals ``resolvent_trace(t, z, m)`` up to
    floating-point accumulation.
    """
    check_resolvent_parameter(z)
    _check_sum_size(t)
    m = t.m
    total = []
    for k in range(m + 1):
        if k == m:
            tk = (z * z) ** (-m)
        else:
            tk = _extended_trace_sum(t.n, m - k, z, m)
        total.append((-1.0) ** k * math.comb(m, k) * tk)
    return math.fsum(total)


def sorted_spectrum(t: DiscreteTorus) -> np.ndarray:
    """All ``n^m`` eigenvalues ascending (materialized; capped)."""
    if t.points > MAX_SORTED:
        raise InputError(f"sorted spectrum capped at {MAX_SORTED} eigenvalues")
    s = spectrum_1d(t.n)
    full = s
    for _ in range(t.m - 1):
        full = np.add.outer(full, s).ravel()
    return np.sort(full)


# -- integer matrix-tree machinery ------------------------------------------

def _reduced_laplacian_rows(t: DiscreteTorus):
    """Rows of the graph Laplacian with vertex 0 deleted, as ``{col: entry}``.

    Vertices are numbered lexicographically and row/column ``v - 1`` belongs
    to vertex v.  For n = 2 both neighbours along an axis coincide, so the
    doubled edge gives the entry -2.
    """
    n, m = t.n, t.m
    strides = [n ** (m - 1 - a) for a in range(m)]
    for v in range(1, t.points):
        row = {v - 1: 2 * m}
        for s in strides:
            c = v // s % n
            for d in (1, -1):
                u = v + ((c + d) % n - c) * s
                if u != 0:
                    row[u - 1] = row.get(u - 1, 0) - 1
        yield row


def spanning_tree_count(t: DiscreteTorus) -> int:
    """Exact number of spanning trees via an integer cofactor determinant.

    The reduced graph Laplacian (vertex 0 deleted) is eliminated with exact
    rational arithmetic on sparse rows; pivots are the ratios of leading
    minors and their product is the integer determinant.  Positive
    definiteness of the reduced Laplacian guarantees nonzero pivots, so no
    pivoting is needed.
    """
    nverts = t.points
    if nverts > MAX_TREE_VERTICES:
        raise InputError(
            f"{nverts} vertices exceed the exact-determinant cap "
            f"{MAX_TREE_VERTICES}")
    size = nverts - 1  # vertex 0 deleted

    if t.m == 1:
        # the reduced circle Laplacian is purely tridiagonal (both wrap
        # edges meet the deleted vertex): diagonal 2, off-diagonal -1 for
        # n >= 3, and the single entry [2] for the doubled-edge 2-circle;
        # fraction-free elimination on a tridiagonal matrix is the integer
        # continuant recurrence on its entries
        d_prev, d = 0, 1
        for i in range(size):
            off2 = 1 if i else 0  # (-1) * (-1)
            d_prev, d = d, 2 * d - off2 * d_prev
        return d

    rows = [{j: Fraction(x) for j, x in row.items()}
            for row in _reduced_laplacian_rows(t)]

    col_rows = [set() for _ in range(size)]
    for i, row in enumerate(rows):
        for j in row:
            col_rows[j].add(i)

    det = Fraction(1)
    for p in range(size):
        piv = rows[p][p]
        det *= piv
        touched = [i for i in col_rows[p] if i > p]
        for i in touched:
            factor = rows[i][p] / piv
            ri = rows[i]
            for j, v in rows[p].items():
                if j < p:
                    continue
                new = ri.get(j, Fraction(0)) - factor * v
                if new == 0:
                    if j in ri:
                        del ri[j]
                        col_rows[j].discard(i)
                else:
                    if j not in ri:
                        col_rows[j].add(i)
                    ri[j] = new
            if p in ri:
                del ri[p]
            col_rows[p].discard(i)

    if det.denominator != 1:
        raise RuntimeError("integer determinant came out non-integral")
    return int(det)


def reduced_laplacian_det_mod(t: DiscreteTorus, p: int) -> int:
    """Cofactor determinant of the graph Laplacian modulo a prime.

    Banded elimination over GF(p) on the dense reduced Laplacian; only the
    active rows and columns (band plus periodic wrap block) are updated at
    each step, so this stays fast at thousands of vertices.  Used to certify
    large tree counts without full big-integer elimination.
    """
    size = t.points - 1
    mat = np.zeros((size, size), dtype=np.int64)
    for i, row in enumerate(_reduced_laplacian_rows(t)):
        for j, x in row.items():
            mat[i, j] = x
    mat %= p

    det = 1
    for k in range(size):
        if mat[k, k] == 0:
            nz = np.nonzero(mat[k + 1:, k])[0]
            if len(nz) == 0:
                return 0
            swap = k + 1 + int(nz[0])
            mat[[k, swap]] = mat[[swap, k]]
            det = (-det) % p
        piv = int(mat[k, k])
        det = det * piv % p
        inv = pow(piv, p - 2, p)
        rows_nz = np.nonzero(mat[k + 1:, k])[0] + k + 1
        if len(rows_nz) == 0:
            continue
        cols_nz = np.nonzero(mat[k, k:])[0] + k
        factors = mat[np.ix_(rows_nz, [k])] * inv % p
        block = mat[np.ix_(rows_nz, cols_nz)]
        block = (block - factors * mat[k, cols_nz]) % p
        mat[np.ix_(rows_nz, cols_nz)] = block
    return det % p


def eigenvalue_product_integer(t: DiscreteTorus) -> int:
    """Product of the nonzero graph-Laplacian eigenvalues as an exact integer.

    The product equals ``n^m`` times the spanning-tree count, so it is an
    integer; it is reconstructed by evaluating the spectral product in
    extended precision (working digits set from the float log-determinant)
    and rounding.  This is the spectral side of the matrix-tree identity.
    """
    import mpmath as mp

    if t.points > MAX_TREE_VERTICES:
        raise InputError(
            f"{t.points} eigenvalues exceed the reconstruction cap "
            f"{MAX_TREE_VERTICES}")
    digits = max(int(log_det_rescaled(t) / math.log(10.0)), 0) + 30
    with mp.workdps(digits):
        s = [4 * mp.sinpi(mp.mpf(k) / t.n) ** 2 for k in range(t.n)]
        prod = mp.mpf(1)
        for idx in itertools.product(range(t.n), repeat=t.m):
            if all(i == 0 for i in idx):
                continue
            prod *= sum(s[i] for i in idx)
        nearest = mp.nint(prod)
        if abs(prod - nearest) > 0.25:
            raise NumericalError("eigenvalue product failed to round cleanly")
        return int(nearest)


# -- oracles and pipelines ---------------------------------------------------

def square_lattice_logdet_density(m: int, *, tol: float = 1e-12) -> float:
    """Bulk log-determinant density of the m-dimensional lattice Laplacian.

    The per-site limit ``(2 pi)^{-m} int log(2m - 2 sum_i cos u_i) d^m u``
    over ``[0, 2 pi]^m``.  For m = 1 the integral is 0 exactly.  For m = 2
    the inner integral has the closed form ``2 pi log((a + sqrt(a^2-4))/2)``
    with ``a = 4 - 2 cos v``, leaving a one-dimensional quadrature.
    """
    if m == 1:
        return 0.0
    if m != 2:
        raise InputError("bulk density implemented for m in {1, 2}")
    from scipy import integrate

    def inner(v):
        a = 4.0 - 2.0 * math.cos(v)
        x = (a + math.sqrt(max(a * a - 4.0, 0.0))) / 2.0
        return math.log(x)

    val, _ = integrate.quad(inner, 0.0, 2.0 * math.pi, epsabs=tol,
                            epsrel=tol, limit=400, points=[0.0, 2 * math.pi])
    return val / (2.0 * math.pi)


def log_det_series(m: int, n_grid, *, rescaled: bool = False) -> Samples:
    """Log-determinants sampled over a grid of discretization parameters."""
    ns = [int(n) for n in n_grid]
    vals = []
    for n in ns:
        t = DiscreteTorus(m, n)
        vals.append(log_det_rescaled(t) if rescaled else log_det(t))
    return Samples(np.array(ns, dtype=float), np.array(vals))


def logdet_limit_pipeline(m: int, n_grid, basis: BasisSpec):
    """Regularized limit of discrete log-determinants vs the continuum value.

    Returns ``(constant, uncertainty, reference)`` where the reference is
    the zeta-regularized log-determinant of the continuum torus.
    """
    samples = log_det_series(m, n_grid)
    constant, uncertainty = extract_reglimit(samples, basis)
    from .smooth import log_det_zeta
    return constant, uncertainty, log_det_zeta(m)
