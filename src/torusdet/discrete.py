"""Exact spectral computations on discrete tori.

The discrete torus with n points per axis in m dimensions carries a
difference Laplacian whose one-axis eigenvalues are
``(n^2/pi^2) sin^2(pi k / n)``, k = 0..n-1; the m-dimensional eigenvalues
are sums over axes.  That axis formula lives in one kernel,
``_axis_eigenvalues``, which every spectral quantity here and in the
Euler-Maclaurin module evaluates.  Spectral sums are reduced by
``_lattice_sum`` over the half-axis table ``_half_axis`` (distinct
eigenvalues k = 0..n//2 with multiplicity weights): the innermost axis is
a row, the outer axes index the rows, and blocks of whole rows are
evaluated at once, so no ``n^m`` eigenvalue array is ever materialized.
The row partials are combined with one exact fsum, so the value does not
depend on the block size and is bit-reproducible.  Log-determinants
multiply the innermost axis out in closed form and reduce only the m - 1
outer axes.

The unnormalized graph Laplacian of the same torus has integer entries;
its spanning-tree count (any cofactor, by the matrix-tree theorem) gives
an exact integer cross-check of the rescaled log-determinant:
``exp(log_det_rescaled) = n^m * #spanning trees``.  One banded GF(p)
elimination, ``_det_mod_primes``, computes every cofactor residue; tree
counts for m >= 2 are their CRT reconstruction (``_crt``), as is the
eigenvalue product from its GF(p) values at an n-th root of unity, p = 1
(mod n).  For n = 2 the circle degenerates to a doubled edge (eigenvalue
4, tree count 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InputError, NumericalError, check_dimension,
                     check_resolvent_parameter)
from .expansion import BasisSpec, Samples, extract_reglimit
from .finite_part import _quad

MAX_SUM_LATTICE = 1 << 25     # iteration cap for spectral sums
MAX_TREE_VERTICES = 4096      # cap for exact integer determinants
MAX_MODULUS = math.isqrt(2 ** 63 - 1)  # p^2 < 2^63: GF(p) updates fit int64
MAX_SORTED = 1 << 22
SPECTRAL_BATCH = 1 << 16      # int64 elements per batch of spectral primes
PRODUCT_MARGIN_BITS = 16      # CRT modulus headroom over exp(log_det_rescaled)
LOGDET_CHECK_RTOL = 1e-12     # exact product against the float log-determinant
LATTICE_BLOCK = 1 << 14       # elements per block of lattice-sum rows
DENSITY_QUAD_TOL = 1e-12      # bulk-density quadrature, absolute and relative


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
    if n > MAX_SORTED:
        raise InputError(f"one-axis spectrum capped at {MAX_SORTED} eigenvalues")
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

    The innermost axis is a row; the outer axes are flattened once, in
    lexicographic order, into per-row offsets ``base = 0.0 + s[i] + s[j]
    ...`` and weights ``wt = 1.0 * w[i] * w[j] ...``, accumulated left to
    right.
    Blocks of whole rows, about ``LATTICE_BLOCK`` elements each, are
    evaluated at once and reduced row by row with numpy's pairwise sum; the
    row partials are combined with one exact ``math.fsum``, so the result
    does not depend on the block size and is bit-reproducible.  With
    ``skip_zero_mode`` the first element of row 0 (the all-zero mode) is
    left out.
    """
    *outer, (s_in, w_in) = axes
    vals, wts = (s_in[1:], w_in[1:]) if skip_zero_mode else (s_in, w_in)
    if not outer:
        return float(np.sum(wts * term_fn(vals)))
    base = np.array([0.0])
    wt = np.array([1.0])
    for s, w in outer:
        base = np.add.outer(base, s).ravel()
        wt = np.multiply.outer(wt, w).ravel()
    partials = [float(np.sum((wt[0] * wts) * term_fn(base[0] + vals)))]
    step = max(1, LATTICE_BLOCK // len(s_in))
    for lo in range(1, len(base), step):
        rows = slice(lo, lo + step)
        chunk = (wt[rows, None] * w_in) * term_fn(base[rows, None] + s_in)
        partials.extend(chunk.sum(axis=1).tolist())
    return math.fsum(partials)


def _check_sum_size(points: int):
    if points > MAX_SUM_LATTICE:
        raise InputError(
            f"lattice of {points} points exceeds the iteration cap "
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
    """Sum of ``log`` over the nonzero spectrum of the rescaled Laplacian:
    ``log_det_rescaled`` plus ``(n^m - 1) log(n^2 / 4 pi^2)``."""
    scale = math.log(t.n * t.n / (4 * math.pi ** 2))
    return log_det_rescaled(t) + (t.points - 1) * scale


def _inner_axis_log_product(n: int, omega):
    """``log prod_k (mu + 4 sin^2(pi k/n)) = log(2 cosh(n theta) - 2)`` for the
    graph eigenvalue ``mu = 4 pi^2 omega / n^2 = 4 sinh^2(theta/2) > 0``."""
    n_theta = 2 * n * np.arcsinh(math.pi * np.sqrt(omega) / n)
    return n_theta + 2 * np.log1p(-np.exp(-n_theta))


def log_det_rescaled(t: DiscreteTorus) -> float:
    """Log-determinant of the unnormalized (graph) Laplacian.

    The inner axis is multiplied out by ``_inner_axis_log_product``, so
    only the ``n^(m-1)`` outer modes are reduced; the outer zero mode gives
    ``log n^2``, the n-cycle's nonzero eigenvalue product (all of it at m = 1).
    The cap is on the ``n^(m-1)`` outer modes and, for the one-axis table,
    on n.
    """
    if t.n > MAX_SORTED:
        raise InputError(f"one-axis spectrum capped at {MAX_SORTED} eigenvalues")
    _check_sum_size(t.n ** (t.m - 1))
    if t.m == 1:
        return 2 * math.log(t.n)
    return 2 * math.log(t.n) + _lattice_sum(
        [_half_axis(t.n)] * (t.m - 1),
        lambda v: _inner_axis_log_product(t.n, v), skip_zero_mode=True)


def resolvent_trace(t: DiscreteTorus, z: float, alpha: int = 1) -> float:
    """``sum over the full lattice of (omega + z^2)^(-alpha)``, kernel included."""
    if alpha < 1:
        raise InputError("resolvent power alpha must be >= 1")
    check_resolvent_parameter(z, alpha)
    _check_sum_size(t.points)
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
    # the terms C(m,k) T_k carry the zero mode with weights summing to 3^m
    check_resolvent_parameter(z, t.m, t.m * math.log(3.0))
    _check_sum_size(t.points)
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

def _is_prime(p: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: exact for p < 3 215 031 751."""
    if p < 31 or math.gcd(p, 6469693230) > 1:   # the primes up to 29
        return p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    s = ((p - 1) & (1 - p)).bit_length() - 1   # p - 1 = d 2^s with d odd
    xs = (pow(a, (p - 1) >> s, p) for a in (2, 3, 5, 7))   # lazy: stop early
    return all(x == 1 or any(pow(x, 1 << r, p) == p - 1 for r in range(s))
               for x in xs)


def _crt(residues_mod, step: int, bound: int) -> int:
    """The integer in [0, modulus) with residues ``residues_mod(primes)``.

    The primes are the descending p = 1 (mod step) below 2^31 up to the
    first whose running product, the modulus, exceeds bound.
    """
    top = 2 ** 31 - 1 - (2 ** 31 - 2) % step   # the largest p = 1 (mod step)
    primes, modulus = [], 1
    for p in filter(_is_prime, range(top, 2, -step)):
        if modulus > bound:
            break
        primes.append(p)
        modulus *= p
    return sum(r * (modulus // p) * pow(modulus // p, -1, p)
               for r, p in zip(residues_mod(primes), primes)) % modulus


def _reduced_laplacian_rows(t: DiscreteTorus):
    """Rows of the graph Laplacian with vertex 0 deleted, as ``{col: entry}``.

    Each axis is numbered zig-zag (positions 0, 1, 2, 3, ... hold the
    coordinates 0, n-1, 1, n-2, ...), which removes the periodic wrap: the
    bandwidth is at most ``2 n^(m-1)``.  Vertex v, numbered lexicographically
    in positions, owns row/column ``v - 1``.  For n = 2 both neighbours
    along an axis coincide, so the doubled edge gives the entry -2.
    """
    n, m = t.n, t.m
    coord = [q // 2 if q % 2 == 0 else n - 1 - q // 2 for q in range(n)]
    pos = [2 * c if 2 * c < n else 2 * (n - 1 - c) + 1 for c in range(n)]
    strides = [n ** (m - 1 - a) for a in range(m)]
    for v in range(1, t.points):
        row = {v - 1: 2 * m}
        for s in strides:
            q = v // s % n
            for d in (1, -1):
                u = v + (pos[(coord[q] + d) % n] - q) * s
                if u != 0:
                    row[u - 1] = row.get(u - 1, 0) - 1
        yield row


def _det_mod_primes(t: DiscreteTorus, primes) -> list:
    """Cofactor determinant of the graph Laplacian modulo each prime.

    GF(p) elimination with partial pivoting (a leading minor can vanish mod
    p) on band storage: row i keeps columns ``i-b .. i+2b``, as a row swap
    widens the upper band to 2b.  A strided view shows the band as a dense
    matrix; each pivot step updates one window of it for a batch of primes.
    An update lies in ``(-p^2, p)`` and is reduced once, as ``x - x // p * p``
    (numpy's libdivide floor division is twice as fast as its ``%``).
    Batches keep the band storage below the dense ``size x size`` matrix.
    """
    rows = list(_reduced_laplacian_rows(t))
    size = len(rows)
    b = max(abs(i - j) for i, row in enumerate(rows) for j in row)
    batch = max(1, size * size // ((size + b) * (3 * b + 1)))
    out = []
    for lo in range(0, len(primes), batch):
        chunk = primes[lo:lo + batch]
        ps = np.array(chunk, dtype=np.int64)[:, None, None]
        band = np.zeros((len(chunk), size + b, 3 * b + 1), dtype=np.int64)
        for i, row in enumerate(rows):
            for j, x in row.items():
                band[:, i, j - i + b] = x
        band %= ps
        s0, s1, s2 = band.strides   # dense[:, i, j] is band[:, i, j - i + b]
        dense = np.lib.stride_tricks.as_strided(
            band[:, :, b:], (len(chunk), size + b, size + 2 * b),
            (s0, s1 - s2, s2))
        det = [1] * len(chunk)
        reach = 0   # last column a swapped-in row can reach
        for k in range(size):
            piv = dense[:, k, k].tolist()
            for q in [q for q, x in enumerate(piv) if x == 0]:
                # swap in the first nonzero below; if none, det mod p is 0
                r = int(np.argmax(dense[q, k:k + b + 1, k] != 0))
                cols = slice(k, k + 2 * b + 1)
                dense[q, [k, k + r], cols] = dense[q, [k + r, k], cols]
                piv[q], det[q] = int(dense[q, k, k]), -det[q]
                reach = max(reach, k + r + b)
            det = [d * x % p for d, x, p in zip(det, piv, chunk)]
            inv = [pow(x, -1, p) if x else 0 for x, p in zip(piv, chunk)]
            hi = max(k + b, reach) + 1
            below = dense[:, k + 1:k + b + 1, k:hi]
            below -= below[:, :, :1] * np.array(inv)[:, None, None] % ps \
                * dense[:, k:k + 1, k:hi]
            below -= below // ps * ps
        out += det
    return out


def reduced_laplacian_det_mod(t: DiscreteTorus, p: int) -> int:
    """Graph-Laplacian cofactor determinant mod a prime int p <= MAX_MODULUS."""
    if not (isinstance(p, int) and p <= MAX_MODULUS and _is_prime(p)):
        raise InputError(
            f"modulus must be a prime int <= {MAX_MODULUS}, got {p}")
    return _det_mod_primes(t, [p])[0]


def spanning_tree_count(t: DiscreteTorus) -> int:
    """Exact number of spanning trees via an integer cofactor determinant.

    m = 1: the lexicographic reduced circle Laplacian is tridiagonal
    (diagonal 2, off-diagonal -1; [2] for the doubled-edge 2-circle), so
    its determinant is a continuant, a 2x2 matrix power in Python ints.
    m >= 2: CRT over residues modulo primes below 2^31 whose product
    exceeds Hadamard's bound ``(2m)^(N-1)`` on the positive-definite cofactor.
    """
    nverts = t.points
    if nverts > MAX_TREE_VERTICES:
        raise InputError(
            f"{nverts} vertices exceed the exact-determinant cap "
            f"{MAX_TREE_VERTICES}")
    size = nverts - 1  # vertex 0 deleted
    if t.m == 1:   # top row (a, b) of the power; (p, q; r, s) the squared base
        (a, b), (p, q, r, s), e = (1, 0), (2, -1, 1, 0), size - 1
        while e:
            a, b = (a * p + b * r, a * q + b * s) if e & 1 else (a, b)
            p, q, r, s, e = p*p + q*r, q*(p + s), r*(p + s), s*s + q*r, e >> 1
        return 2 * a + b
    return _crt(lambda primes: _det_mod_primes(t, primes), 2, (2 * t.m) ** size)


def _roots_of_unity(n: int, primes) -> list:
    """A primitive n-th root of unity modulo each prime p = 1 (mod n).

    The first ``g^((p-1)/n)``, g = 2, 3, ..., whose power n/q is not 1 for
    any prime q dividing n.
    """
    qs = [q for q in range(2, n + 1) if n % q == 0 and _is_prime(q)]
    return [next(z for z in (pow(g, (p - 1) // n, p) for g in range(2, p))
                 if all(pow(z, n // q, p) != 1 for q in qs)) for p in primes]


def _spectral_product_mod(t: DiscreteTorus, primes) -> list:
    """Nonzero-eigenvalue product modulo each prime p = 1 (mod n).

    Per batch of primes: axis values ``2 - zeta^k - zeta^-k`` from powers
    of zeta by doubling, their sums over the axes, then a halving product
    tree (zero mode set to 1, padded with 1s).  Residues are below 2^31, so
    every product fits int64.
    """
    n, size, out = t.n, t.points, []
    roots, batch = _roots_of_unity(n, primes), max(1, SPECTRAL_BATCH // size)
    for lo in range(0, len(primes), batch):
        ps, zeta = np.array([primes[lo:lo + batch], roots[lo:lo + batch]],
                            dtype=np.int64)[:, :, None]
        pw = np.ones((len(ps), n), dtype=np.int64)
        for s in (1 << i for i in range((n - 1).bit_length())):
            pw[:, s:2 * s] = pw[:, :min(s, n - s)] * zeta % ps   # * zeta^s
            zeta = zeta * zeta % ps
        axis = lam = (2 - pw - np.roll(pw[:, ::-1], 1, axis=1)) % ps
        for _ in range(t.m - 1):
            lam = (lam[:, :, None] + axis[:, None, :]).reshape(len(ps), -1) % ps
        prod = np.ones((len(ps), 1 << (size - 1).bit_length()), dtype=np.int64)
        prod[:, 1:size] = lam[:, 1:]
        for _ in range((size - 1).bit_length()):
            prod = prod[:, ::2] * prod[:, 1::2] % ps
        out += prod[:, 0].tolist()
    return out


def eigenvalue_product_integer(t: DiscreteTorus) -> int:
    """Product of the nonzero graph-Laplacian eigenvalues as an exact integer.

    The product is ``n^m`` times the spanning-tree count (the spectral side
    of the matrix-tree identity), rebuilt by CRT from residues modulo primes
    whose product exceeds ``exp(log_det_rescaled) 2^PRODUCT_MARGIN_BITS``.
    ``log_det_rescaled`` errs by far less than a bit at every admissible
    size; a result whose log disagrees with it raises NumericalError.
    """
    if t.points > MAX_TREE_VERTICES:
        raise InputError(
            f"{t.points} eigenvalues exceed the reconstruction cap "
            f"{MAX_TREE_VERTICES}")
    ldr = log_det_rescaled(t)
    product = _crt(lambda primes: _spectral_product_mod(t, primes),
                   t.n * (1 + t.n % 2),   # p odd and p = 1 (mod n)
                   1 << (int(ldr / math.log(2.0)) + PRODUCT_MARGIN_BITS))
    if not product or abs(math.log(product) - ldr) > LOGDET_CHECK_RTOL * ldr:
        raise NumericalError("exact eigenvalue product disagrees with the "
                             f"float log-determinant {ldr!r}")
    return product


# -- oracles and pipelines ---------------------------------------------------

def square_lattice_logdet_density(m: int) -> float:
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

    def inner(v):
        a = 4.0 - 2.0 * math.cos(v)
        x = (a + math.sqrt(max(a * a - 4.0, 0.0))) / 2.0
        return math.log(x)

    val, _ = _quad(inner, 0.0, 2.0 * math.pi, DENSITY_QUAD_TOL,
                   points=[0.0, 2 * math.pi])
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
