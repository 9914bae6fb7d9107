"""Tests for the summation-formula machinery and its lattice decomposition."""

import itertools
import math
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from scipy import integrate

from torusdet import (DiscreteTorus, InputError, bernoulli_number,
                      boundary_inclusive_lattice_sum, corner_term_cancellation,
                      default_truncation, em_decompose, em_direct_sum,
                      em_sum_1d, homogeneous_components, poly_evaluator,
                      remainder_uniformity_scan, resolvent_trace,
                      scaled_bulk_term)
from torusdet.discrete import _axis_eigenvalues
import torusdet.euler_maclaurin as em
from torusdet.euler_maclaurin import (EM_MAX_ORDER, GL_ORDER_PATTERNS,
                                      _axis_atoms, _bernoulli_poly_coeffs,
                                      _gl_nodes, _h_eval, _h_monomials,
                                      _jet_matrix, _mixed_deriv_grid,
                                      _window_integral)

BOUND_SCAN_SIZES = (8, 16, 32, 64, 128, 256)


def periodic_bernoulli(i, x):
    """The i-th Bernoulli polynomial at the fractional part of x, as the
    remainder weights of ``em_sum_1d`` and ``_axis_atoms`` evaluate it."""
    return np.polyval(_bernoulli_poly_coeffs(i), x % 1.0)


def bound_ratios(k, ell, alpha=2):
    """Per n, the largest ``|H_{k,ell}| / bound`` over an x grid in (0, n/2].

    For odd k the bound is ``n**(2(ell+1) - k)`` when ``k >= 2(ell+1)`` and
    ``x**(2(ell+1) - k)`` otherwise; a constant that does not grow with n
    is the lemma.
    """
    expo = 2 * (ell + 1) - k
    ratios = []
    for n in BOUND_SCAN_SIZES:
        xs = np.unique(np.concatenate([np.linspace(0.05, 2.0, 16),
                                       np.linspace(0.02, 0.5, 16) * n]))
        xs = xs[(xs > 0) & (xs <= n / 2)]
        hv = np.abs(_h_eval(k, ell, alpha, _jet_matrix(n, xs, k - 1)))
        bound = float(n) ** expo if k >= 2 * (ell + 1) else xs ** expo
        ratios.append(float(np.max(hv / bound)))
    return ratios


class TestBernoulli:
    def test_first_values(self):
        assert bernoulli_number(0) == Fraction(1)
        assert bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli_number(2) == Fraction(1, 6)
        assert bernoulli_number(4) == Fraction(-1, 30)
        assert bernoulli_number(6) == Fraction(1, 42)

    def test_odd_vanish(self):
        for i in (3, 5, 7, 9, 21):
            assert bernoulli_number(i) == 0

    def test_cap(self):
        with pytest.raises(InputError):
            bernoulli_number(10 ** 6)

    def test_periodic_polynomial_values(self):
        assert periodic_bernoulli(1, 0.25) == pytest.approx(-0.25)
        assert periodic_bernoulli(3, 7.0) == 0.0
        assert periodic_bernoulli(2, 1.5) == pytest.approx(-1.0 / 12.0)


class TestOneAxisFormula:
    def test_constant(self):
        u = poly_evaluator([1.0])
        parts = em_sum_1d(u, 6, 1)
        assert parts.integral == pytest.approx(6.0, abs=1e-13)
        assert parts.derivative_boundary == 0.0
        assert parts.endpoint_average == 1.0
        assert parts.remainder == 0.0
        assert parts.total == pytest.approx(7.0, abs=1e-12)

    def test_faulhaber_square(self):
        u = poly_evaluator([0.0, 0.0, 1.0])
        parts = em_sum_1d(u, 10, 1)
        assert parts.remainder == 0.0
        assert parts.total == pytest.approx(385.0, rel=1e-13)

    def test_linear(self):
        u = poly_evaluator([0.0, 1.0])
        parts = em_sum_1d(u, 7, 1)
        assert parts.remainder == 0.0
        assert parts.total == pytest.approx(28.0, rel=1e-13)

    def test_nonzero_remainder_still_sums(self):
        u = poly_evaluator([0.0, 0.0, 0.0, 0.0, 1.0])  # x^4, degree > 2M
        parts = em_sum_1d(u, 2, 1)
        assert parts.remainder == pytest.approx(-1.0 / 15.0, rel=1e-12)
        assert parts.total == pytest.approx(17.0, rel=1e-13)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_polynomial_exactness(self, seed):
        rng = np.random.default_rng(seed)
        M = 2
        coeffs = rng.uniform(-2, 2, size=2 * M + 1)  # degree 2M
        u = poly_evaluator(coeffs)
        n = int(rng.integers(3, 12))
        parts = em_sum_1d(u, n, M)
        assert parts.remainder == 0.0
        direct = em_direct_sum(u, n)
        assert parts.total == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_smooth_non_polynomial(self):
        u = lambda x, order=0: {
            0: 1.0 / (1.0 + x * x),
            1: -2 * x / (1 + x * x) ** 2,
            2: (6 * x * x - 2) / (1 + x * x) ** 3,
            3: (24 * x - 24 * x ** 3) / (1 + x * x) ** 4,
        }[order]
        parts = em_sum_1d(u, 9, 1)
        assert parts.total == pytest.approx(em_direct_sum(u, 9), abs=1e-10)


class TestDerivativeCoefficients:
    def test_second_order_closed_form(self):
        # the level-1 coefficient of the second derivative is
        # alpha (alpha + 1) (f')^2
        for alpha in (1, 2, 5):
            assert dict(_h_monomials(2, 1, alpha)) == {
                (0, 0): alpha * (alpha + 1)}

    def test_first_order_vanishes_at_lattice(self):
        jets = _jet_matrix(16, np.array([0.0, 16.0]), 0)
        assert _h_eval(1, 0, 2, jets).tolist() == [0.0, 0.0]

    def test_reconstruction_against_finite_differences(self):
        n, z, alpha, x0 = 16, 1.0, 2, 3.7

        def f(x):
            s = (n * n / math.pi ** 2) * math.sin(math.pi * x / n) ** 2
            return (s + z * z) ** (-alpha)

        def central_fd(k, h):
            return sum((-1) ** i * comb(k, i) * f(x0 + (k / 2 - i) * h)
                       for i in range(k + 1)) / h ** k

        for k in range(1, 6):
            h = 0.03
            rich = (4 * central_fd(k, h / 2) - central_fd(k, h)) / 3
            axis = (None, np.array([x0]), k)
            exact = _mixed_deriv_grid(n, z, alpha, [axis], {})[0]
            assert exact == pytest.approx(rich, rel=1e-6)

    def test_bound_scan_n_branch(self):
        ratios = bound_ratios(3, 0)   # k >= 2 (ell + 1): the n-power bound
        assert max(ratios) / min(ratios) <= 1.5  # no growth trend across n
        assert max(ratios) > 0

    def test_bound_scan_x_branch(self):
        ratios = bound_ratios(3, 1)   # k < 2 (ell + 1): the x-power bound
        assert max(ratios) / min(ratios) <= 1.5


class TestDecomposition:
    def test_m1_matches_direct(self):
        t = DiscreteTorus(1, 8)
        vals, total = em_decompose(t, 1.0, alpha=1, M=3)
        direct = boundary_inclusive_lattice_sum(t, 1.0, 1)
        assert total == pytest.approx(direct, abs=1e-8)

    def test_boundary_patterns_exact_zero(self):
        t = DiscreteTorus(2, 4)
        vals, _ = em_decompose(t, 1.0)
        for pattern, v in vals.items():
            if 2 in pattern:
                assert v == 0.0

    def test_all_average_pattern_is_kernel_power(self):
        t1 = DiscreteTorus(1, 8)
        vals1, _ = em_decompose(t1, 0.5, alpha=1, M=2)
        assert vals1[(4,)] == pytest.approx(4.0, rel=1e-15)  # z^-2
        t2 = DiscreteTorus(2, 4)
        vals2, _ = em_decompose(t2, 2.0)
        assert vals2[(4, 4)] == pytest.approx(2.0 ** -4, rel=1e-15)

    def test_all_integral_pattern_scaling(self):
        # the all-integral pattern is the scaled unit-window integral and is
        # jointly homogeneous: h(t z, t n) = t^(m - 2 alpha) h(z, n)
        t = DiscreteTorus(1, 8)
        vals, _ = em_decompose(t, 1.0, alpha=1, M=2)
        bulk = scaled_bulk_term(1, 1, 1.0, 8.0)
        assert vals[(1,)] == pytest.approx(bulk, rel=1e-12)
        bulk2 = scaled_bulk_term(1, 1, 2.0, 16.0)
        assert bulk2 == pytest.approx(0.5 * bulk, rel=1e-10)

    def test_m2_matches_direct(self):
        for (n, z) in [(4, 1.0), (8, 0.5), (8, 2.0)]:
            t = DiscreteTorus(2, n)
            _, total = em_decompose(t, z)
            direct = boundary_inclusive_lattice_sum(t, z, 2)
            assert total == pytest.approx(direct, abs=1e-8)

    def test_operator_commutation(self):
        # the mixed derivatives expand the last axis first, so a mirrored
        # pattern applies the two axes' operators in the opposite order
        t = DiscreteTorus(2, 4)
        vals, _ = em_decompose(t, 1.0)
        for a, b in itertools.product((1, 2, 3, 4), repeat=2):
            assert vals[(a, b)] == pytest.approx(vals[(b, a)], rel=1e-11)
        # and the two-axis integral pattern agrees with nested adaptive
        # quadrature applied in either order
        z2 = 1.0

        def u(x1, x2):
            s = (16 / math.pi ** 2) * (math.sin(math.pi * x1 / 4) ** 2
                                       + math.sin(math.pi * x2 / 4) ** 2)
            return (s + z2) ** -2.0

        inner = lambda x1: integrate.quad(lambda x2: u(x1, x2), 0, 4,
                                          epsabs=1e-12)[0]
        nested, _ = integrate.quad(inner, 0, 4, epsabs=1e-11)
        assert vals[(1, 1)] == pytest.approx(nested, abs=1e-9)

    def test_default_truncation(self):
        assert default_truncation(1) == 2
        assert default_truncation(2) == 4

    def test_truncation_configurable_upward_only(self):
        t = DiscreteTorus(1, 4)
        with pytest.raises(InputError):
            em_decompose(t, 1.0, M=1)
        _, total = em_decompose(t, 1.0, M=4)
        direct = boundary_inclusive_lattice_sum(t, 1.0, 1)
        assert total == pytest.approx(direct, abs=1e-9)

    @pytest.mark.parametrize("m", [1, 2])
    def test_truncation_order_is_capped(self, m):
        # the summation formula is asymptotic: past the cap the error grows
        t = DiscreteTorus(m, 4)
        with pytest.raises(InputError):
            em_decompose(t, 1.0, M=EM_MAX_ORDER + 1)
        _, total = em_decompose(t, 1.0, M=EM_MAX_ORDER)
        direct = boundary_inclusive_lattice_sum(t, 1.0, m)
        assert total == pytest.approx(direct, rel=1e-12)


def per_term_em_total(m, n, z, M):
    # reference: every pattern on the unfolded cell grid, each power
    # F^(-a) taken with a float ** and each derivative term c F^(-a) added
    # pointwise on its own
    xs, ws = _gl_nodes(n, GL_ORDER_PATTERNS)
    bw = np.polyval(_bernoulli_poly_coeffs(2 * M + 1), xs % 1.0)
    one, pt0, ptn = np.ones(1), np.zeros(1), np.full(1, float(n))
    boundary = []
    for k in range(1, M + 1):
        c = float(bernoulli_number(2 * k)) / math.factorial(2 * k)
        boundary += [(ptn, one, 2 * k - 1, c), (pt0, one, 2 * k - 1, -c)]
    atoms = [[(xs, ws, 0, 1.0)], boundary,
             [(xs, ws * bw, 2 * M + 1, 1.0 / math.factorial(2 * M + 1))],
             [(pt0, one, 0, 0.5), (ptn, one, 0, 0.5)]]
    pattern_values = []
    for labels in itertools.product(atoms, repeat=m):
        pieces = []
        for combo in itertools.product(*labels):
            coords, weights, orders, coeffs = zip(*combo)
            axes = [_axis_eigenvalues(n, x).reshape((-1,) + (1,) * (m - 1 - j))
                    for j, x in enumerate(coords)]
            F = sum(axes[1:], axes[0]) + z * z
            terms = [((), m)]
            for j in reversed(range(m)):
                if orders[j]:
                    jets = _jet_matrix(n, coords[j], orders[j] - 1)
                    terms = [(c + (_h_eval(orders[j], ell, a, jets).reshape(
                        axes[j].shape),), a + ell + 1)
                        for c, a in terms for ell in range(orders[j])]
            grid = 0.0
            for a in sorted({a for _, a in terms}):
                power = F ** -float(a)
                for c, b in terms:
                    if b == a:
                        grid = grid + math.prod(c) * power
            val = weights[0] @ grid
            for w in weights[1:]:
                val = val @ w
            pieces.append(math.prod(coeffs) * float(val))
        pattern_values.append(math.fsum(pieces))
    return math.fsum(pattern_values)


class TestFoldedGrids:
    def test_cell_nodes_mirror_about_the_midpoint(self):
        # the fold keeps the first 16 n nodes: it needs them below n/2 and
        # the rest to be their mirror images, also for odd n
        for n in range(2, 66):
            xs, ws = _gl_nodes(n, GL_ORDER_PATTERNS)
            assert xs[:16 * n].max() < n / 2 < xs[16 * n:].min()
            assert np.array_equal(ws, ws[::-1])
            assert np.abs(xs + xs[::-1] - n).max() <= 2e-16 * n
            for M in range(2, 7):
                bw = np.polyval(_bernoulli_poly_coeffs(2 * M + 1), xs % 1.0)
                assert np.abs(bw + bw[::-1]).max() <= 1e-13

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_totals_match_the_per_term_unfolded_sum(self, n):
        t = DiscreteTorus(2, n)
        for z in (0.5, 1.0, 2.0):
            _, total = em_decompose(t, z)
            ref = per_term_em_total(2, n, z, default_truncation(2))
            assert total == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("m,zs", [(2, (0.4, 0.45)), (1, (0.2,))])
    def test_stated_domain(self, m, zs):
        for n in (7, 8, 9, 16, 32):
            t = DiscreteTorus(m, n)
            for z in zs:
                vals, total = em_decompose(t, z)
                direct = boundary_inclusive_lattice_sum(t, z, m)
                assert total == pytest.approx(direct, rel=1e-8)
                assert all(v == 0.0 for k, v in vals.items() if 2 in k)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="long double is no wider than double")
    @pytest.mark.parametrize("n,z,bound", [(7, 0.4, 5e-8), (16, 0.5, 5e-9)])
    def test_remainder_pattern_meets_its_stated_accuracy(self, n, z, bound):
        # the (3, 3) pattern on the same nodes in long double: the float
        # value carries the rounding of its 1e8-fold cancellation
        L, o = np.longdouble, 2 * default_truncation(2) + 1
        pi = np.arccos(L(-1))
        xs, ws = _gl_nodes(n, GL_ORDER_PATTERNS)
        x = xs.astype(L)
        bern = [comb(o, j) * bernoulli_number(j) for j in range(o + 1)]
        w = ws.astype(L) * np.polyval(
            [L(b.numerator) / L(b.denominator) for b in bern], x % 1)
        eig = n * n / pi ** 2 * np.sin(pi * np.minimum(x, n - x) / n) ** 2
        theta = 2 * pi * ((x / n) % 1)
        quarter = (np.sin(theta), np.cos(theta), -np.sin(theta), -np.cos(theta))
        jets = np.vstack([n / pi * (2 * pi / n) ** i * quarter[i % 4]
                          for i in range(o)])

        def h(ell, a):
            return sum(L(c) * math.prod(jets[i] for i in mono)
                       for mono, c in _h_monomials(o, ell, a))

        R = 1 / (eig[:, None] + eig[None, :] + L(z) ** 2)
        P, grid = R ** 4, 0
        for k in range(2 * o - 1):  # the terms of F^-(4 + k), k = l1 + l2
            grid = grid + P * sum(np.outer(h(k - l2, 3 + l2), h(l2, 2))
                                  for l2 in range(o) if 0 <= k - l2 < o)
            P = P * R
        ref = w @ grid @ w / L(math.factorial(o)) ** 2
        vals, _ = em_decompose(DiscreteTorus(2, n), z)
        assert abs(vals[(3, 3)] / ref - 1) < bound


def unpruned_mixed_deriv_grid(n, z, alpha, coords, orders):
    # reference: the evaluator before the per-call memo and the zero-term
    # pruning; every term is expanded and summed, exact zeros included
    m = len(coords)
    axes = [_axis_eigenvalues(n, c).reshape((-1,) + (1,) * (m - 1 - j))
            for j, c in enumerate(coords)]
    F = sum(axes[1:], axes[0]) + z * z
    terms = [((), alpha)]
    for j, o in reversed([(j, o) for j, o in enumerate(orders) if o > 0]):
        jets = _jet_matrix(n, coords[j], o - 1)
        terms = [(c + (_h_eval(o, ell, a, jets).reshape(axes[j].shape),),
                  a + ell + 1) for c, a in terms for ell in range(o)]
    power, R, out = min(a for _, a in terms), 1.0 / F, 0.0
    P = F ** -float(power)
    for c, a in sorted(terms, key=lambda term: term[1]):
        for power in range(power + 1, a + 1):
            P *= R
        out += math.prod(c) * P
    return out


def unpruned_em_decompose(t, z, M):
    atoms = _axis_atoms(t.n, M)
    values = {}
    for betas in itertools.product(atoms, repeat=t.m):
        pieces = []
        for combo in itertools.product(*(atoms[b] for b in betas)):
            axes, weights, coeffs = zip(*combo)
            grid = unpruned_mixed_deriv_grid(
                t.n, z, t.m, [x for _, x, _ in axes], [o for _, _, o in axes])
            val = weights[0] @ grid
            for w in weights[1:]:
                val = val @ w
            pieces.append(math.prod(coeffs) * float(val))
        values[betas] = math.fsum(pieces)
    return values, math.fsum(values[k] for k in sorted(values))


def hexes(decomposition):
    values, total = decomposition
    return {k: v.hex() for k, v in values.items()}, total.hex()


class TestPrunedEvaluation:
    @pytest.mark.parametrize("n", [2, 7, 8, 64])
    def test_odd_orders_vanish_exactly_at_the_endpoints(self, n):
        # the pruning drops a term only where its factor evaluates to 0.0;
        # at x = 0 and x = n every odd-order coefficient does
        jets = _jet_matrix(n, np.array([0.0, float(n)]), 2 * EM_MAX_ORDER)
        for k in range(1, 2 * EM_MAX_ORDER + 2, 2):
            for ell in range(k):
                for a in range(1, 15):
                    assert _h_eval(k, ell, a, jets).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("n", [2, 7, 64])
    def test_skipped_monomials_change_no_bit(self, n):
        # at x = 0 and x = n the even-order jets are 0.0; skipping their
        # monomials keeps every value, the sign of zero included, and
        # leaves no monomial of an odd order
        jets = _jet_matrix(n, np.array([0.0, float(n)]), 2 * EM_MAX_ORDER)
        dead = {o for o in range(len(jets)) if not jets[o].any()}
        assert dead == set(range(0, len(jets), 2))
        for k in range(1, 2 * EM_MAX_ORDER + 2):
            for ell in range(k):
                for a in range(1, 15):
                    assert _h_eval(k, ell, a, jets, dead).tobytes() == \
                        _h_eval(k, ell, a, jets).tobytes()
                    live = [mono for mono, _ in _h_monomials(k, ell, a)
                            if dead.isdisjoint(mono)]
                    assert k % 2 == 0 or not live

    # (2, 12) fills its 192 rows in blocks of 85, the last one ragged; (2, 32)
    # takes 16 blocks of 32 rows
    @pytest.mark.parametrize("m,n", [(1, 8), (2, 4), (2, 7), (2, 8), (2, 12),
                                     (2, 16), (2, 32)])
    def test_patterns_are_bit_identical_to_the_unpruned_loop(self, m, n):
        t = DiscreteTorus(m, n)
        for z in (0.4, 1.0):
            for M in [default_truncation(m)] + ([6] if n <= 8 else []):
                assert hexes(em_decompose(t, z, M=M)) == hexes(
                    unpruned_em_decompose(t, z, M))

    @pytest.mark.parametrize("block", [1, 1 << 30])
    def test_patterns_do_not_depend_on_the_block_size(self, monkeypatch,
                                                       block):
        # one row of the first axis per block, and the whole grid in one
        cases = [(1, 8, 0.4), (2, 7, 0.4), (2, 12, 1.0)]
        blocked = {c: hexes(em_decompose(DiscreteTorus(c[0], c[1]), c[2]))
                   for c in cases}
        monkeypatch.setattr(em, "LATTICE_BLOCK", block)
        for m, n, z in cases:
            assert hexes(em_decompose(DiscreteTorus(m, n), z)) == \
                blocked[m, n, z]

    def test_peak_memory_of_the_bench_size(self):
        # row blocks keep one full grid, the output, plus cache-sized
        # temporaries: about 3.2 MiB traced, against 10.6 MiB for whole grids
        tracemalloc.start()
        try:
            em_decompose(DiscreteTorus(2, 32), 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20

    def test_interleaved_calls_match_separate_calls(self):
        cases = [(2, 4, 4), (1, 8, 6), (2, 8, 6), (2, 4, 6), (1, 8, 2)]
        alone = {c: hexes(em_decompose(DiscreteTorus(c[0], c[1]), 0.5, M=c[2]))
                 for c in cases}
        for c in cases[::-1] + cases:
            assert hexes(em_decompose(DiscreteTorus(c[0], c[1]), 0.5,
                                      M=c[2])) == alone[c]

    def test_no_grid_for_vanishing_combos(self, monkeypatch):
        # 7 atoms per axis at M = 4, 4 of them boundary derivatives: only
        # the 3 x 3 combos without one build a grid, two axes each
        calls = []

        def counted(n, x):
            calls.append(len(x))
            return _axis_eigenvalues(n, x)

        monkeypatch.setattr(em, "_axis_eigenvalues", counted)
        vals, _ = em_decompose(DiscreteTorus(2, 4), 1.0)
        assert len(calls) == 2 * 9
        assert all(v == 0.0 for k, v in vals.items() if 2 in k)


class TestInputChecks:
    @pytest.mark.parametrize("alpha", [0, -1])
    def test_em_decompose_rejects_alpha_below_1(self, alpha):
        with pytest.raises(InputError, match="alpha must be >= 1"):
            em_decompose(DiscreteTorus(1, 8), 1.0, alpha=alpha)

    def test_empty_coefficient_is_a_zero_array(self):
        # alpha = 0 cancels every monomial of H_{3,1}
        assert _h_monomials(3, 1, 0) == ()
        h = _h_eval(3, 1, 0, _jet_matrix(16, np.array([0.0, 16.0]), 2))
        assert isinstance(h, np.ndarray) and h.tolist() == [0.0, 0.0]

    def test_numpy_integer_orders_pass(self):
        t = DiscreteTorus(1, 8)
        assert hexes(em_decompose(t, 1.0, alpha=np.int64(2), M=np.int32(3))) \
            == hexes(em_decompose(t, 1.0, alpha=2, M=3))


class TestHomogeneousStructure:
    def test_cancellation(self):
        for m in (1, 2, 3):
            binom, resid = corner_term_cancellation(m)
            assert binom == 0
            for z in (0.5, 1.0, 2.0):
                assert resid <= 1e-14 * z ** (-2 * m) or resid == 0.0

    def test_weights(self):
        # the order -(m+j) block's inclusion-exclusion multiplicity is
        # [j == 0], which homogeneous_components states
        for m in range(1, 9):
            for j in range(m + 1):
                assert sum((-1) ** k * math.comb(m, k) * math.comb(m - k, m - j)
                           for k in range(j + 1)) == (j == 0)
        comps = homogeneous_components(1, 1.0, 8.0)
        assert comps[1] == 0.0  # the order -2m term cancels
        comps2 = homogeneous_components(2, 1.0, 8.0)
        assert comps2[1] == 0.0
        assert comps2[2] == 0.0
        assert comps2[0] > 0.0

    def test_component_homogeneity(self):
        for (m, j) in [(1, 0), (2, 0)]:
            order = -(m + j)
            v1 = homogeneous_components(m, 1.0, 8.0)[j]
            v2 = homogeneous_components(m, 2.0, 16.0)[j]
            assert v2 == pytest.approx(2.0 ** order * v1, rel=1e-10)

    def test_m1_remainder_is_bernoulli_pattern(self):
        # trace minus homogeneous parts equals the remainder-integral
        # pattern of the decomposition exactly (dual route)
        t = DiscreteTorus(1, 8)
        z = 2.0
        tr = resolvent_trace(t, z, 1)
        h = sum(homogeneous_components(1, z, 8.0).values())
        vals, _ = em_decompose(t, z, alpha=1)
        assert tr - h == pytest.approx(vals[(3,)], abs=1e-10)

    @pytest.mark.parametrize("n", [16, 32])
    def test_m3_components_leave_a_small_remainder(self, n):
        # at z = 4 the remainder is O(z^(-2m-2)) of a trace of order 1e-2
        tr = resolvent_trace(DiscreteTorus(3, n), 4.0, 3)
        h = math.fsum(homogeneous_components(3, 4.0, float(n)).values())
        assert abs(tr - h) <= 1e-7 * tr

    def test_remainder_uniformity(self):
        rep = remainder_uniformity_scan(1, z_grid=(4.0, 8.0),
                                        n_grid=(8, 16, 32, 64))
        for z, sup in rep.sup_per_z.items():
            assert sup <= 2.0 * rep.anchor_per_z[z] + 1e-12
        # doubling z from 4 to 8 drops |H| by at least 2^(2m+1)
        h4 = rep.anchor_per_z[4.0] / 4.0 ** 4
        h8 = rep.anchor_per_z[8.0] / 8.0 ** 4
        assert h8 <= h4 / 2 ** 3


def axis_value(y):
    return math.sin(math.pi * y) ** 2 / math.pi ** 2


def nested_window_integral(q, w, m):
    """``_window_integral`` for q <= 2 as nested adaptive quadratures over
    the unit cell."""
    def row(base):
        return integrate.quad(lambda y: (axis_value(y) + base) ** -float(m),
                              0.0, 1.0, epsabs=0.0, epsrel=1e-13,
                              points=[0.5], limit=200)[0]
    if q == 1:
        return row(w * w)
    return integrate.quad(lambda y: row(axis_value(y) + w * w), 0.0, 1.0,
                          epsabs=0.0, epsrel=1e-13, points=[0.5], limit=200)[0]


def tensor_window_integral(q, w, m, nodes):
    """``_window_integral`` by a tensor Gauss-Legendre rule on [0, 1/2]^q,
    doubled per axis: the integrand is even under y -> 1 - y."""
    x, wts = np.polynomial.legendre.leggauss(nodes)
    ys, ws = (x + 1.0) / 4.0, wts / 2.0   # [0, 1/2], weights doubled
    s = np.sin(np.pi * ys) ** 2 / np.pi ** 2
    total, weight = w * w, 1.0
    for axis in range(q):
        shape = [1] * q
        shape[axis] = nodes
        total = total + s.reshape(shape)
        weight = weight * ws.reshape(shape)
    return float(np.sum(weight * total ** -float(m)))


class TestWindowIntegral:
    """The unit-window integrals behind the homogeneous components, one
    Bessel heat-trace quadrature for every number of axes q."""

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_against_nested_quadrature(self, q, m):
        for w in (2.0, 0.5, 1 / 8, 1 / 32):
            ref = nested_window_integral(q, w, m)
            assert _window_integral(q, w, m) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("q,nodes", [(3, 64), (4, 32)])
    def test_against_tensor_gauss_legendre(self, q, nodes):
        # q = m: the all-integral block of the m-torus
        for w in (1.0, 0.25):
            ref = tensor_window_integral(q, w, q, nodes)
            assert _window_integral(q, w, q) == pytest.approx(ref, rel=1e-12)

    def test_bulk_terms_check_their_input(self):
        for m, z in ((0, 1.0), (5, 1.0), (2, 0.0), (2, -1.0), (2, math.nan)):
            with pytest.raises(InputError):
                scaled_bulk_term(m, 1, z, 8.0)
            with pytest.raises(InputError):
                homogeneous_components(m, z, 8.0)
