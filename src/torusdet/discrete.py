"""Exact spectral computations on discrete tori.

The discrete torus with n points per axis in m dimensions carries a
difference Laplacian whose one-axis eigenvalues are
``(n^2/pi^2) sin^2(pi k / n)``, k = 0..n-1; the m-dimensional eigenvalues
are sums over axes.  That axis formula lives in one kernel,
``_axis_eigenvalues``, which every spectral quantity here and in the
Euler-Maclaurin module evaluates.  Spectral sums are reduced by
``_lattice_sum`` over the half-axis table ``_half_axis`` (distinct
eigenvalues k = 0..n//2 with multiplicity weights, built once per n and
shared read-only): the innermost axis is a row, the outer axes index the
rows, and blocks of whole rows are evaluated at once, so no ``n^m``
eigenvalue array is ever materialized.
The row partials are combined with one exact fsum, so the value does not
depend on the block size and is bit-reproducible.  Log-determinants, and
resolvent traces up to the power ``TRACE_MAX_ALPHA``, multiply the
innermost axis out in closed form and hand ``_lattice_sum`` only the m - 1
outer axes; their cap counts those ``n^(m-1)`` outer modes.

The unnormalized graph Laplacian of the same torus has integer entries;
its spanning-tree count (any cofactor, by the matrix-tree theorem) gives
an exact integer cross-check of the rescaled log-determinant:
``exp(log_det_rescaled) = n^m * #spanning trees``.  One GF(p)
elimination, ``_det_mod_primes``, computes every cofactor residue: a
multifrontal elimination in nested-dissection order, batched over primes,
its pivots in panels.  The torus is vertex-transitive, so the fronts of a
depth whose boxes have one shape are translates that assemble to the same
matrix: one front per box shape is eliminated, its pivots raised to the
shape's count of boxes.  Vertex 0 is eliminated last, and the cofactor is
the product of every pivot but that last one, which is 0.  Tree counts
for m >= 2 are the CRT reconstruction (``_crt``) of these residues, as is
the eigenvalue product from its GF(p) values at an n-th root of unity, p
= 1 (mod n), its inner axis by a Lucas ladder.  For n = 2 the circle
degenerates to a doubled edge (eigenvalue 4, tree count 2).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import special

from .errors import (InputError, NumericalError, check_dimension,
                     check_integer, check_resolvent_parameter)
from .expansion import Samples
from .finite_part import _quad

MAX_SUM_LATTICE = 1 << 25     # iteration cap for spectral sums
MAX_TREE_VERTICES = 4096      # cap for exact integer determinants
MAX_MODULUS = math.isqrt(2 ** 63 - 1)  # p^2 < 2^63: GF(p) updates fit int64
MAX_SORTED = 1 << 22
SPECTRAL_BATCH = 1 << 16      # int64 elements per batch of spectral primes
PRODUCT_MARGIN_BITS = 16      # CRT modulus headroom over exp(log_det_rescaled)
LOGDET_CHECK_RTOL = 1e-12     # exact product against the float log-determinant
LATTICE_BLOCK = 1 << 14       # elements per block of lattice-sum rows
TRACE_MAX_ALPHA = 8           # highest trace power summed in closed form
DENSITY_QUAD_TOL = 1e-12      # bulk-density quadrature, absolute and relative
LEAF = 16                     # most vertices in a nested-dissection leaf
PANEL = 32                    # own slots eliminated before one trailing update


@dataclass(frozen=True)
class DiscreteTorus:
    """Product of m discrete circles with n points each."""

    m: int
    n: int

    def __post_init__(self):
        for name in ("m", "n"):   # numpy integers become ints, which never wrap
            object.__setattr__(self, name, check_integer(name, getattr(self, name)))
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


@functools.lru_cache(maxsize=1)
def _half_axis(n: int):
    """Distinct one-axis eigenvalues over k=0..n-1 with multiplicities,
    shared read-only; one table is kept, as a quadrature sums one torus."""
    half = n // 2
    w = np.full(half + 1, 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[half] = 1.0
    s = _axis_eigenvalues(n, np.arange(half + 1))
    s.flags.writeable = w.flags.writeable = False
    return s, w


def _lattice_sum(axes, term_fn, *, skip_zero_mode: bool) -> float:
    """Reduce ``term_fn(omega)`` over the weighted product of axis spectra.

    The innermost axis is a row; the outer axes index the rows, flattened
    once in lexicographic order into per-row offsets ``s[i] + s[j] ...``
    and weights ``w[i] * w[j] ...``, accumulated left to right.  Blocks of
    whole rows, about ``LATTICE_BLOCK`` elements each, are evaluated at
    once and reduced row by row with numpy's pairwise sum; the row partials
    are combined with one exact ``math.fsum``, so the result does not
    depend on the block size and is bit-reproducible.  With no outer axis
    the one row's pairwise sum is the value, with no tables and no fsum.
    With ``skip_zero_mode`` the first element of row 0 (the all-zero mode)
    is left out.
    """
    *outer, (s_in, w_in) = axes
    vals, wts = (s_in[1:], w_in[1:]) if skip_zero_mode else (s_in, w_in)
    if not outer:
        return float(np.sum(wts * term_fn(vals)))
    base, wt = np.zeros(1), np.ones(1)
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


def _check_sum_size(modes: int):
    if modes > MAX_SUM_LATTICE:
        raise InputError(
            f"{modes} lattice modes exceed the iteration cap {MAX_SUM_LATTICE}")


def _reduced_modes(t: DiscreteTorus, alpha: int = 1) -> int:
    """The modes a spectral sum over t reduces, for the cap.

    The log-determinant and resolvent traces up to ``TRACE_MAX_ALPHA``
    multiply the inner axis out in closed form: they reduce the ``n^(m-1)``
    outer modes of an axis of at most ``MAX_SORTED`` points.  A higher
    power reduces every point.
    """
    if alpha > TRACE_MAX_ALPHA:
        return t.points
    if t.n > MAX_SORTED:
        raise InputError(f"one-axis spectrum capped at {MAX_SORTED} eigenvalues")
    return t.n ** (t.m - 1)


def _extended_trace_sum(n: int, dims: int, z: float, alpha: int) -> float:
    """``sum (omega + z^2)^(-alpha)`` over the extended grid {0..n}^dims.

    On the half-axis table the endpoints k = 0 and k = n share eigenvalue 0,
    so the k = 0 weight becomes 2.
    """
    s, w = _half_axis(n)
    w = w.copy()
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
    """
    _check_sum_size(_reduced_modes(t))
    if t.m == 1:
        return 2 * math.log(t.n)
    return 2 * math.log(t.n) + _lattice_sum(
        [_half_axis(t.n)] * (t.m - 1),
        lambda v: _inner_axis_log_product(t.n, v), skip_zero_mode=True)


@functools.lru_cache(maxsize=None)
def _inner_axis_monomials(alpha: int) -> tuple:
    """``S_alpha`` as monomials in the variables ``(u, v, e, b)`` of
    ``_inner_axis_traces``: the highest power of each variable, and per
    monomial its coefficient and its ``(variable, power)`` factors.

    With ``mu = 4 sinh^2(theta/2)``, ``S_alpha = sum_k (mu + 4 sin^2(pi
    k/n))^(-alpha)`` starts at ``S_1 = (n/2) A B`` and steps by ``S_(alpha+1)
    = -(B / 2 alpha) dS_alpha/dtheta``, where ``A = coth(n theta/2)``, ``E =
    csch^2(n theta/2)``, ``B = csch(theta)``, ``C = coth(theta)`` and ``dA =
    -(n/2) E``, ``dE = -n A E``, ``dB = -C B``, ``dC = -B^2``.  Every
    derivative is negative, so every monomial ``n^(a+2e) A^a E^e B^b C^c``
    has a positive coefficient: nothing cancels.  The coefficients are exact
    fractions, rounded once.
    """
    terms = {(1, 0, 1, 0): Fraction(1, 2)}    # (a, e, b, c) of (n/2) A B
    for j in range(1, alpha):
        steps = {}
        for (a, e, b, c), v in terms.items():
            for key, f in (((a - 1, e + 1, b + 1, c), Fraction(a, 4 * j)),
                           ((a + 1, e, b + 1, c), Fraction(e, 2 * j)),
                           ((a, e, b + 1, c + 1), Fraction(b, 2 * j)),
                           ((a, e, b + 3, c - 1), Fraction(c, 2 * j))):
                if f:
                    steps[key] = steps.get(key, 0) + v * f
        terms = steps
    # (2 pi/n)^(2 alpha) n^(a+2e) A^a E^e B^b C^c = 2^(a+b) 16^e u^a v^c e^e b^b
    scaled = {(a, c, e, b): float(v * 2 ** (a + b) * 16 ** e)
              for (a, e, b, c), v in sorted(terms.items())}
    return (tuple(map(max, zip(*scaled))),
            tuple((coef, tuple((i, k) for i, k in enumerate(p) if k))
                  for p, coef in scaled.items()))


def _inner_axis_traces(n: int, x: np.ndarray, alpha: int) -> np.ndarray:
    """``sum_k (x + (n^2/pi^2) sin^2(pi k/n))^(-alpha)`` for each x > 0.

    ``(2 pi/n)^(2 alpha) S_alpha(mu)`` at ``mu = 4 pi^2 x / n^2 = 4
    sinh^2(theta/2)``.  The monomials of ``_inner_axis_monomials`` are
    evaluated in ``u = pi A``, ``v = r C = 2 b + r tanh(theta/2)``, ``e =
    pi^2 E / 4`` and ``b = r B / 2 = 1 / (2 sqrt(x) cosh(theta/2))`` with
    ``r = 2 pi/n``, each at most about ``x^(-1/2)`` or ``x^(-1)``, so no
    partial product leaves the float range before the trace does.  A and E
    are taken from ``q = exp(-n theta)`` through ``expm1``; b, whose power
    ``b^alpha`` is in every monomial, needs no exponential, whose relative
    error grows with theta.  A variable that no monomial uses is not
    evaluated.  A z whose square overflows gives ``b = 0`` and so the
    trace 0.
    """
    tops, monomials = _inner_axis_monomials(alpha)
    rx = np.sqrt(x)
    s = (math.pi / n) * rx                  # sinh(theta/2)
    half = np.arcsinh(s)                    # theta/2
    b = 0.5 / np.hypot(1.0, s) / rx
    y = (-2.0 * n) * half                   # -n theta
    q = np.exp(y)
    g = -math.pi / np.expm1(y)              # pi / (1 - q)
    powers = [[None, g + g * q],
              [None, 2 * b + (2 * math.pi / n) * np.tanh(half) if tops[1] else None],
              [None, q * g * g if tops[2] else None],
              [None, b]]
    for table, top in zip(powers, tops):
        while len(table) <= top:
            table.append(table[-1] * table[1])
    total = None
    for coef, factors in monomials:
        term = coef
        for i, k in factors:
            term = term * powers[i][k]
        total = term if total is None else total + term
    return total


def resolvent_trace(t: DiscreteTorus, z: float, alpha: int = 1) -> float:
    """``sum over the full lattice of (omega + z^2)^(-alpha)``, kernel included.

    Up to ``TRACE_MAX_ALPHA`` the inner axis is summed in closed form by
    ``_inner_axis_traces``, so ``_lattice_sum`` reduces only the ``n^(m-1)``
    outer modes; a higher power is a lattice sum over every mode.
    """
    if check_integer("alpha", alpha) < 1:
        raise InputError("resolvent power alpha must be >= 1")
    check_resolvent_parameter(z, alpha)
    _check_sum_size(_reduced_modes(t, alpha))
    z2 = z * z
    if alpha > TRACE_MAX_ALPHA:
        return _lattice_sum([_half_axis(t.n)] * t.m,
                            lambda v: (v + z2) ** (-alpha), skip_zero_mode=False)
    if t.m == 1:
        return float(_inner_axis_traces(t.n, np.float64(z2), alpha))
    return _lattice_sum([_half_axis(t.n)] * (t.m - 1),
                        lambda v: _inner_axis_traces(t.n, v + z2, alpha),
                        skip_zero_mode=False)


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


# -- integer matrix-tree machinery ------------------------------------------

def _is_prime(p: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: exact for p < 3 215 031 751."""
    if p < 31 or math.gcd(p, 6469693230) > 1:   # the primes up to 29
        return p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    s = ((p - 1) & (1 - p)).bit_length() - 1   # p - 1 = d 2^s with d odd
    xs = (pow(a, (p - 1) >> s, p) for a in (2, 3, 5, 7))   # lazy: stop early
    return all(x == 1 or any(pow(x, 1 << r, p) == p - 1 for r in range(s))
               for x in xs)


_PRIME_RUNS = {}   # step -> the primes _primes(step) has drawn so far
_ROOTS = {}        # n -> {p: the root _roots_of_unity(n, [p]) gives}


def _primes(step: int):
    """Descending primes p = 1 (mod step) below 2^31, memoized per step."""
    run = _PRIME_RUNS.setdefault(step, [])
    for i in itertools.count():
        if i == len(run):
            top = run[-1] - step if run else 2 ** 31 - 1 - (2 ** 31 - 2) % step
            run.append(next(filter(_is_prime, range(top, 2, -step))))
        yield run[i]


def _crt(residues_mod, step: int, bound: int) -> int:
    """The integer in [0, modulus) with residues ``residues_mod(primes)``.

    The primes are the descending p = 1 (mod step) below 2^31 up to the
    first whose running product, the modulus, exceeds bound.  A prime whose
    residue is None is skipped and more are drawn in its place.
    """
    primes, pairs, modulus = _primes(step), [], 1
    while modulus <= bound:
        batch, reach = [], modulus
        while reach <= bound:
            batch.append(next(primes))
            reach *= batch[-1]
        pairs += [(r, p) for r, p in zip(residues_mod(batch), batch) if r is not None]
        modulus = math.prod(p for _, p in pairs)
    return sum(r * (modulus // p) * pow(modulus // p, -1, p)
               for r, p in pairs) % modulus


@functools.lru_cache(maxsize=16)
def _fronts(t: DiscreteTorus) -> tuple:
    """Multifrontal plan of the torus in nested-dissection order, root first.

    A box keeps each axis as the whole circle (0, n) or an interval [lo, hi)
    with lo >= 1.  Its longest axis is cut, a circle at 0 and n//2, an
    interval at its middle; a box of at most ``LEAF`` vertices is a leaf.
    A front is the cut (or leaf), then the boundary: the box's faces lo - 1
    and hi mod n on each interval axis.  The cut rule sees only a box's
    shape, its axis lengths, so on the vertex-transitive torus the boxes of
    one shape and depth are translates, with translated fronts and
    subtrees: one class.  Breadth first, each depth is ``{shape: [a box,
    its count of fronts]}``, and each class is built once.  The classes of
    a depth share one layout, ``own`` own slots (padding is an identity
    row) then boundary slots; the root's own slots end with vertex 0.  The
    int8 template holds the graph Laplacian, each entry in the front of the
    deeper owner of its two vertices, found through a dense vertex-to-slot
    table per class.  Per depth ``(template, own, mult, src, to)``: one
    template and count per class, and the scatter of each class's children:
    ``src`` is the child's class, ``to`` the flat index of its boundary
    block in the stacked ``(class, f, f)`` fronts.  Boundary padding, whose
    updates stay 0, adds to slot 0.  The plan is built once per torus and is
    read-only.
    """
    n, m, points = t.n, t.m, t.points
    stride = n ** np.arange(m - 1, -1, -1)[:, None]

    def ids(axes):   # lexicographic ids of a product of coordinate lists
        return functools.reduce(lambda v, x: np.add.outer(v * n, x).ravel(), axes, 0)

    def faces(box):
        axes = [np.arange(lo, hi) for lo, hi in box]
        return np.concatenate([ids(axes[:a] + [[lo - 1, hi % n]] + axes[a + 1:])
                               for a, (lo, hi) in enumerate(box) if lo]
                              + [np.zeros(0, np.int64)])
    plan, level = [], {(n,) * m: [[(0, n)] * m, 1]}
    while level:
        owns, links, kids = [], [], {}   # links: (class, child's class, its faces)
        for k, (box, count) in enumerate(level.values()):
            axes = [np.arange(lo, hi) for lo, hi in box]
            a = max(range(m), key=lambda a: box[a][1] - box[a][0])
            lo, hi = box[a]
            if math.prod(map(len, axes)) <= LEAF:
                cut, sides = axes[a], ()
            elif lo == 0:
                cut, sides = [0, n // 2], ((1, n // 2), (n // 2 + 1, n))
            else:
                c = (lo + hi) // 2
                cut, sides = [c], ((lo, c), (c + 1, hi))
            owns.append(ids(axes[:a] + [cut] + axes[a + 1:]))
            for child in (box[:a] + [s] + box[a + 1:] for s in sides if s[0] < s[1]):
                shape = tuple(hi - lo for lo, hi in child)
                kids.setdefault(shape, [child, 0])[1] += count
                links.append((k, list(kids).index(shape), faces(child)))
        if not plan:
            owns[0] = np.roll(owns[0], -1)   # vertex 0 last
        bounds = [faces(box) for box, _ in level.values()]
        own = max(map(len, owns))
        front = np.full((len(owns), own + max(map(len, bounds))), -1)
        for k, (x, y) in enumerate(zip(owns, bounds)):
            front[k, :len(x)], front[k, own:own + len(y)] = x, y
        w = front.shape[1]
        slot = np.full((len(front), points + 1), -1)   # column N: padding, -1
        slot[np.arange(len(front))[:, None], front] = range(w)
        tmpl = np.zeros((len(front), w, w), dtype=np.int8)
        tmpl[:, range(own), range(own)] = np.where(front[:, :own] < 0, 1, 2 * m)
        for k, v in enumerate(owns):
            v = v[:, None, None]
            x = v // stride % n
            s = slot[k, v + ((x + (-1, 1)) % n - x) * stride]   # of the neighbours
            i, s = np.nonzero(s >= 0)[0], s[s >= 0]
            up = s >= own
            np.add.at(tmpl[k], (np.r_[i, s[up]], np.r_[s, i[up]]), -1)
        par, src = (np.array([link[j] for link in links], int) for j in (0, 1))
        s = np.zeros((len(links), max((len(f) for *_, f in links), default=0)), int)
        for j, (k, _, f) in enumerate(links):
            s[j, :len(f)] = slot[k, f]
        to = ((par[:, None, None] * w + s[:, :, None]) * w + s[:, None, :]).ravel()
        plan.append((tmpl, own, np.array([c for _, c in level.values()]), src, to))
        level = kids
    for tmpl, _, *arrays in plan:
        for a in [tmpl] + arrays:
            a.flags.writeable = False
    return tuple(plan)


def _product_mod(x: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Row products of x modulo ps (a column of primes), by a halving tree."""
    while x.shape[1] > 1:
        h = x.shape[1] // 2
        x = np.concatenate([x[:, :h] * x[:, h:2 * h] % ps, x[:, 2 * h:]], axis=1)
    return x[:, 0]


def _matmul_mod(x: np.ndarray, y: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """``x @ y`` modulo ps, exact for residues in [0, p), p < 2^32, and an
    inner length of at most 4096: with ``z = 2^16 x mod p`` and 16-bit limbs
    ``y = y0 + 2^16 y1``, ``x @ y = [x z] @ [y0; y1] (mod p)``.  Its limb
    products sum at most 2^13 terms below 2^32, exactly in float64; their
    int64 combination stays below 2^62."""
    z = x * (1 << 16) % ps
    lo = np.concatenate([x & 0xFFFF, z & 0xFFFF], axis=-1).astype(float)
    hi = np.concatenate([x >> 16, z >> 16], axis=-1).astype(float)
    y = np.concatenate([y & 0xFFFF, y >> 16], axis=-2).astype(float)
    return ((lo @ y).astype(np.int64) + ((hi @ y).astype(np.int64) << 16)) % ps


def _det_mod_primes(t: DiscreteTorus, primes) -> list:
    """Cofactor determinant of the graph Laplacian modulo each prime, or None.

    Multifrontal GF(p) elimination over ``_fronts``, deepest depth first,
    each depth one int64 array ``(primes, classes, f, f)`` holding one
    front per class: the children's Schur complements are
    gathered by class and added in, then the own slots are eliminated with
    symmetric pivots in panels of ``PANEL``: per pivot a rank-1 update of
    the panel's later rows, then one ``_matmul_mod`` subtracts ``(U /
    pivots)^T U`` over the panel's rows U from the trailing block, after
    the last panel the boundary's Schur complement.  Each update is reduced
    once, as ``x - x // p * p`` (numpy's libdivide floor division is twice
    as fast as its ``%``).  The cofactor deleting vertex 0 is the product of
    the pivots, each repeated once per front of its class, all but the
    last: vertex 0 is eliminated last, and its pivot is 0 because the
    Laplacian is singular.  There is no pivoting: a prime at which another
    pivot vanishes gets None.  A batch of primes keeps each
    depth's arrays (its fronts, about four fronts of trailing-update
    temporaries, the gathered children) under a quarter of the dense ``N x
    N`` matrix (at least 2^18 elements).
    """
    plan = _fronts(t)
    size = max(5 * tmpl.size + to.size for tmpl, _, _, _, to in plan)
    batch = max(1, max(t.points ** 2, 1 << 20) // (4 * size))
    out = []
    for lo in range(0, len(primes), batch):
        chunk = primes[lo:lo + batch]
        ps = np.array(chunk, dtype=np.int64)[:, None, None, None]
        pivots, below = [], ()
        for tmpl, own, mult, src, to in reversed(plan):
            front = tmpl % ps
            for f, s in zip(front, below):
                np.add.at(f.reshape(-1), to, s[src].reshape(-1))
            del below   # free the children's depth before eliminating
            front -= front // ps * ps
            inv = np.zeros(front.shape[:2] + (own, 1), dtype=np.int64)
            for k0 in range(0, own, PANEL):
                k1 = min(k0 + PANEL, own)
                for k in range(k0, k1):
                    inv[:, :, k, 0] = [
                        [pow(x, -1, p) if x else 0 for x in row]
                        for row, p in zip(front[:, :, k, k].tolist(), chunk)]
                    col = front[:, :, k, k + 1:k1] * inv[:, :, k] % ps[..., 0]
                    rest = front[:, :, k + 1:k1, k + 1:]
                    rest -= col[..., None] * front[:, :, k, None, k + 1:]
                    rest -= rest // ps * ps
                u = front[:, :, k0:k1, k1:]
                lu = np.swapaxes(u * inv[:, :, k0:k1] % ps, 2, 3)   # (U / pivots)^T
                rest = front[:, :, k1:, k1:]
                rest -= _matmul_mod(lu, u, ps)
                rest -= rest // ps * ps
            pivots.append(np.repeat(front[:, :, range(own), range(own)], mult,
                                    axis=1).reshape(len(chunk), -1))
            below = front[:, :, own:, own:].copy()
        piv = np.concatenate(pivots, axis=1)[:, :-1]   # vertex 0's pivot is 0
        out += [None if z else r for z, r in zip(
            (piv == 0).any(axis=1), _product_mod(piv, ps[:, :, 0, 0]).tolist())]
    return out


def _check_exact_size(t: DiscreteTorus):
    if t.points > MAX_TREE_VERTICES:
        raise InputError(f"{t.points} vertices exceed the exact-integer cap "
                         f"{MAX_TREE_VERTICES}")


def reduced_laplacian_det_mod(t: DiscreteTorus, p: int) -> int:
    """Graph-Laplacian cofactor determinant mod a prime int p <= MAX_MODULUS.

    A prime at which the elimination meets a zero pivot (every p | 2m does)
    is answered from the exact eigenvalue product, ``n^m`` times the
    cofactor.
    """
    _check_exact_size(t)
    if not (isinstance(p, int) and p <= MAX_MODULUS and _is_prime(p)):
        raise InputError(
            f"modulus must be a prime int <= {MAX_MODULUS}, got {p}")
    r = _det_mod_primes(t, [p])[0]
    return eigenvalue_product_integer(t) // t.points % p if r is None else r


def spanning_tree_count(t: DiscreteTorus) -> int:
    """Exact number of spanning trees via an integer cofactor determinant.

    m = 1: the reduced n-cycle Laplacian is tridiag(-1, 2, -1) of size
    n - 1 ([2] for the doubled-edge 2-circle), whose determinant is n.
    m >= 2: CRT over ``_det_mod_primes`` residues modulo primes below 2^31,
    a prime with a zero pivot replaced by the next one, until their product
    exceeds Hadamard's bound ``(2m)^(N-1)`` on the positive-definite cofactor.
    """
    _check_exact_size(t)
    if t.m == 1:
        return t.n
    return _crt(lambda primes: _det_mod_primes(t, primes), 2,
                (2 * t.m) ** (t.points - 1))   # vertex 0 deleted


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
    of zeta (memoized in ``_ROOTS``) by doubling, summed over the m - 1
    outer axes to one a per outer mode.  The inner axis is the GF(p) twin of
    ``_inner_axis_log_product``, ``prod_j (a + 2 - zeta^j - zeta^-j) = V_n(a
    + 2) - 2`` for the Lucas sequence ``V_n(x + 1/x) = x^n + x^-n`` (Q = 1),
    by a ladder on ``(V_k, V_(k+1))`` over the bits of n; the zero outer
    mode, less its zero eigenvalue, gives n^2.  A halving product tree
    multiplies the factors; residues are below 2^31, so products fit int64.
    """
    n, out, batch = t.n, [], max(1, SPECTRAL_BATCH // t.n ** (t.m - 1))
    roots = _ROOTS.setdefault(n, {})
    fresh = [p for p in primes if p not in roots]
    roots.update(zip(fresh, _roots_of_unity(n, fresh)))
    for lo in range(0, len(primes), batch):
        chunk = primes[lo:lo + batch]
        ps, zeta = np.array([chunk, [roots[p] for p in chunk]],
                            dtype=np.int64)[:, :, None]
        pw = np.ones((len(ps), n), dtype=np.int64)
        for s in (1 << i for i in range((n - 1).bit_length())):
            pw[:, s:2 * s] = pw[:, :min(s, n - s)] * zeta % ps   # * zeta^s
            zeta = zeta * zeta % ps
        axis, x = (2 - pw - np.roll(pw[:, ::-1], 1, axis=1)) % ps, np.full_like(ps, 2)
        for _ in range(t.m - 1):   # x = a + 2 per outer mode
            x = (x[:, :, None] + axis[:, None, :]).reshape(len(ps), -1) % ps
        v, w = np.full_like(x, 2), x   # V_0, V_1
        for bit in bin(n)[2:]:
            vw = (v * w - x) % ps
            v, w = (vw, (w * w - 2) % ps) if bit == "1" else ((v * v - 2) % ps, vw)
        v = np.where(np.arange(v.shape[1]) > 0, v - 2, n * n) % ps
        out += _product_mod(v, ps).tolist()
    return out


def eigenvalue_product_integer(t: DiscreteTorus) -> int:
    """Product of the nonzero graph-Laplacian eigenvalues as an exact integer.

    The product is ``n^m`` times the spanning-tree count (the spectral side
    of the matrix-tree identity), rebuilt by CRT from residues modulo primes
    whose product exceeds ``exp(log_det_rescaled) 2^PRODUCT_MARGIN_BITS``.
    ``log_det_rescaled`` errs by far less than a bit at every admissible
    size; a result whose log disagrees with it raises NumericalError.
    """
    _check_exact_size(t)
    ldr = log_det_rescaled(t)
    product = _crt(lambda primes: _spectral_product_mod(t, primes),
                   t.n * (1 + t.n % 2),   # p odd and p = 1 (mod n)
                   1 << (int(ldr / math.log(2.0)) + PRODUCT_MARGIN_BITS))
    if not product or abs(math.log(product) - ldr) > LOGDET_CHECK_RTOL * ldr:
        raise NumericalError("exact eigenvalue product disagrees with the "
                             f"float log-determinant {ldr!r}")
    return product


# -- oracles and series -----------------------------------------------------

def square_lattice_logdet_density(m: int) -> float:
    """Bulk log-determinant density of the m-dimensional lattice Laplacian.

    The per-site limit ``(2 pi)^{-m} int log(2m - 2 sum_i cos u_i) d^m u``
    over ``[0, 2 pi]^m`` (Chinta-Jorgenson-Karlsson 2010).  Frullani's
    ``log A = int (e^(-t) - e^(-tA)) dt/t`` separates the axes into powers
    of the one-axis heat trace ``K = ive(0, 2t)``; less the m = 1 density
    0 this is ``int (K - K^m) dt/t``, split at t = 1.  For m = 1 the
    integrand vanishes, so the value is 0 exactly; for m = 2 it is 4G/pi.
    """
    check_dimension(m)

    def f(t):
        k = special.ive(0, 2.0 * t)
        return (k - k ** m) / t

    return (_quad(f, 0.0, 1.0, DENSITY_QUAD_TOL)[0]
            + _quad(f, 1.0, math.inf, DENSITY_QUAD_TOL)[0])


def log_det_series(m: int, n_grid, *, rescaled: bool = False) -> Samples:
    """Log-determinants sampled over a grid of discretization parameters."""
    tori = [DiscreteTorus(m, n) for n in n_grid]
    return Samples(np.array([t.n for t in tori], dtype=float),
                   np.array([log_det_rescaled(t) if rescaled else log_det(t)
                             for t in tori]))
