"""Tests for continuum-torus references: theta, zeta, traces, products."""

import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest

from torusdet import (BasisSpec, DiscreteTorus, InputError, NumericalError,
                      convergence_check, eigenproduct_reglimit, log_det_zeta,
                      logdet_zeta_via_regint, partial_log_product,
                      resolvent_trace_continuum, theta1, theta_function,
                      zeta_continued)
from torusdet.smooth import _lattice_norms_sq, _lead_radius, _shells

LOG_4PI2 = 2 * math.log(2 * math.pi)


def box_trace(m, z, alpha, box):
    """``sum over |k_i| <= box of (|k|^2 + z^2)^(-alpha)``, in logs."""
    k2 = np.arange(-box, box + 1, dtype=float) ** 2
    r2 = sum(np.meshgrid(*[k2] * m, indexing="ij")).ravel()
    return math.fsum(np.exp(-alpha * np.log(r2 + z * z)))


MELLIN_GRID_Z = (1e-3, 0.05, 0.3, 1.0, 3.0, 10.0, 64.0)
MP_THETA_EPS = mpmath.mpf("1e-35")


def mp_theta1(t):
    """``sum_k exp(-t k^2)`` in mpmath, by the modular identity below pi."""
    if t < mpmath.pi:
        return mpmath.sqrt(mpmath.pi / t) * mp_theta1(mpmath.pi ** 2 / t)
    q = mpmath.exp(-t)
    total, term, step = mpmath.mpf(1), mpmath.mpf(1), q   # term = q^(k^2)
    while term > MP_THETA_EPS:
        term *= step
        step *= q * q
        total += 2 * term
    return total


def mellin_trace(m, z, alpha):
    """``int t^(alpha-1) e^(-z^2 t) theta1(t)^m dt / Gamma(alpha)`` to 30
    digits, split at the peak t = alpha/z^2 of the weight."""
    with mpmath.workdps(30):
        z2 = mpmath.mpf(z) ** 2
        value = mpmath.quad(
            lambda t: t ** (alpha - 1) * mpmath.exp(-z2 * t) * mp_theta1(t) ** m,
            [0, alpha / z2, mpmath.inf]) / mpmath.gamma(alpha)
    return float(value)


class TestTheta:
    def test_large_t_limit(self):
        assert theta1(50.0) == pytest.approx(1.0, abs=1e-15)

    def test_self_dual_point(self):
        ref = math.pi ** 0.25 / math.gamma(0.75)
        assert theta1(math.pi) == pytest.approx(ref, rel=1e-14)

    def test_modular_identity(self):
        for t in np.linspace(0.1, 10.0, 60):
            lhs = theta1(float(t))
            rhs = math.sqrt(math.pi / t) * theta1(math.pi ** 2 / float(t))
            assert abs(lhs - rhs) <= 1e-14 * max(1.0, lhs)

    def test_monotone_decreasing_and_above_one(self):
        ts = np.linspace(0.05, 20.0, 80)
        vals = [theta_function(2, float(t)) for t in ts]
        assert all(v > 1.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))


@pytest.mark.filterwarnings("error")
class TestContinuumTrace:
    def test_m1_closed_form(self):
        # alpha = 2 is -(1/2z) d/dz of the alpha = 1 form pi coth(pi z)/z
        for z in np.geomspace(0.1, 50.0, 25):
            x = math.pi * z
            closed = (math.pi / (2 * math.tanh(x) * z ** 3)
                      + math.pi ** 2 / (2 * math.sinh(x) ** 2 * z ** 2))
            mellin = resolvent_trace_continuum(1, float(z), 2)
            assert mellin == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("alpha,z", [(16, 1.0), (20, 1.0), (30, 1.0),
                                         (30, 0.5), (60, 1.0), (60, 2.0),
                                         (100, 1.0), (200, 1.0), (250, 2.0)])
    def test_large_alpha_against_shell_sum(self, m, alpha, z):
        # Gamma(200) overflows a double; the Gamma ratio goes through lgamma
        assert resolvent_trace_continuum(m, z, alpha) == pytest.approx(
            box_trace(m, z, alpha, 12), rel=1e-12)

    @pytest.mark.parametrize("m,alpha,z", [(2, 8, 5.0), (3, 7, 4.0),
                                           (3, 8, 5.0)])
    def test_mid_alpha_without_roundoff(self, m, alpha, z):
        # a Mellin quadrature with an unnormalized weight raised a roundoff
        # IntegrationWarning here
        assert resolvent_trace_continuum(m, z, alpha) == pytest.approx(
            box_trace(m, z, alpha, 60), rel=1e-12)

    def test_large_z_kernel_dominates(self):
        # z^2 overflows at z = 1e200
        cases = [(1, 1), (2, 2), (3, 2), (4, 3)]
        for (m, alpha), z in itertools.product(cases, [1e5, 1e200]):
            val = resolvent_trace_continuum(m, z, alpha)
            # the whole-space integral dominates; the k=0 mode alone is the
            # z^(-2 alpha) scale
            lead = (math.pi ** (m / 2) * math.gamma(alpha - m / 2)
                    / math.gamma(alpha) * z ** (m - 2 * alpha))
            assert val == pytest.approx(lead, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 4])
    def test_huge_alpha_keeps_the_shell_table(self, m):
        # every shell beyond the k = 0 term weighs below exp(-0.2 |k|^2) of
        # it, whatever alpha, so one table of shells serves every alpha
        assert resolvent_trace_continuum(m, 1.01, 10 ** 4) == pytest.approx(
            box_trace(m, 1.01, 10 ** 4, 2), rel=1e-12)

    @pytest.mark.parametrize("m,alphas", [(1, (1, 2)), (2, (2, 3, 8)),
                                          (3, (2, 3, 7)), (4, (3, 4))],
                             ids=["m1", "m2", "m3", "m4"])
    def test_against_30_digit_mellin(self, m, alphas):
        for alpha, z in itertools.product(alphas, MELLIN_GRID_Z):
            ref = mellin_trace(m, z, alpha)
            assert resolvent_trace_continuum(m, z, alpha) == pytest.approx(
                ref, rel=1e-13, abs=0.0)

    def test_divergent_parameters_rejected(self):
        with pytest.raises(InputError):
            resolvent_trace_continuum(2, 1.0, 1)
        with pytest.raises(InputError):
            resolvent_trace_continuum(4, 1.0, 2)


class TestZeta:
    def test_value_at_one_m1(self):
        # sum over nonzero integers of k^-2 is pi^2/3
        assert zeta_continued(1, 1.0) == pytest.approx(math.pi ** 2 / 3,
                                                       rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_zeta_at_zero_is_minus_one(self, m):
        assert zeta_continued(m, 0.0) == pytest.approx(-1.0, abs=1e-13)
        # nontrivial consistency: Richardson extrapolation through 0
        eps = 0.005
        avg1 = (zeta_continued(m, eps) + zeta_continued(m, -eps)) / 2
        avg2 = (zeta_continued(m, 2 * eps) + zeta_continued(m, -2 * eps)) / 2
        extrapolated = (4 * avg1 - avg2) / 3
        assert extrapolated == pytest.approx(-1.0, abs=1e-6)

    def test_pole_rejected(self):
        with pytest.raises(InputError):
            zeta_continued(2, 1.0)

    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("s", [-2.0, -1.5, -1.0, -0.5, -0.005, 0.01, 2.5,
                                   3.0, 3.7, 4.4])
    def test_against_closed_forms(self, m, s):
        with mpmath.workdps(30):
            s_mp = mpmath.mpf(s)
            if m == 1:
                ref = 2 * mpmath.zeta(2 * s_mp)
            elif m == 2:       # 4 zeta(s) beta(s), beta the Dirichlet beta
                ref = (4 * mpmath.zeta(s_mp)
                       * mpmath.dirichlet(s_mp, [0, 1, 0, -1]))
            else:              # r_4(n) = 8 sigma(n) - 32 sigma(n/4)
                ref = (8 * (1 - mpmath.power(4, 1 - s_mp)) * mpmath.zeta(s_mp)
                       * mpmath.zeta(s_mp - 1))
            ref = float(ref)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = zeta_continued(m, s)
        # the trivial zeros at negative integers come out exactly
        assert val == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("s", [180.0, -180.0, 1e10, math.inf, math.nan])
    def test_beyond_the_float_range(self, s):
        with pytest.raises(NumericalError):
            zeta_continued(2, s)

    def test_logdet_m1(self):
        assert log_det_zeta(1) == pytest.approx(LOG_4PI2, abs=1e-10)

    def test_logdet_m2_gamma_quarter(self):
        ref = float(mpmath.log(mpmath.gamma(0.25) ** 4 / (4 * mpmath.pi)))
        assert log_det_zeta(2) == pytest.approx(ref, abs=1e-10)


class TestShells:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("r2max", [0, 1, 2, 60, 500])
    def test_matches_enumerated_norms(self, m, r2max):
        norms, counts = _shells(m, r2max)
        ref_norms, ref_counts = np.unique(_lattice_norms_sq(m, r2max),
                                          return_counts=True)
        assert norms.tolist() == [0] + ref_norms.tolist()
        assert counts.tolist() == [1] + ref_counts.tolist()

    def test_jacobi_two_and_four_squares(self):
        # r_2(n) = 4 (d_1(n) - d_3(n)), r_4(n) = 8 sum of the divisors of n
        # not divisible by 4
        def divisors(n):
            return [d for d in range(1, n + 1) if n % d == 0]

        r2 = dict(zip(*(v.tolist() for v in _shells(2, 500))))
        r4 = dict(zip(*(v.tolist() for v in _shells(4, 500))))
        for n in range(1, 501):
            ds = divisors(n)
            assert r2.get(n, 0) == 4 * (sum(d % 4 == 1 for d in ds)
                                        - sum(d % 4 == 3 for d in ds))
            assert r4[n] == 8 * sum(d for d in ds if d % 4)


class TestRouteEquality:
    # the AC7 bounds at the default window_end 64, about twice the measured
    # error
    def test_m1(self):
        assert abs(logdet_zeta_via_regint(1) - LOG_4PI2) <= 1e-11

    def test_m2(self):
        assert abs(logdet_zeta_via_regint(2) - log_det_zeta(2)) <= 1e-10

    def test_m3(self):
        assert abs(logdet_zeta_via_regint(3) - log_det_zeta(3)) <= 1e-10

    def test_m4(self):
        assert abs(logdet_zeta_via_regint(4) - log_det_zeta(4)) <= 1e-7

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_window_floor(self, m):
        floor = _lead_radius(m)
        assert 13.9 < floor < 15.7
        logdet_zeta_via_regint(m, window_end=floor)
        for end in (floor * (1 - 1e-9), 1.0, math.nan):
            with pytest.raises(InputError):
                logdet_zeta_via_regint(m, window_end=end)


class TestPartialProducts:
    def test_m1_cutoff_is_log_factorial(self):
        for lam in (1, 4, 33):
            assert partial_log_product(1, "by_cutoff", lam) == pytest.approx(
                4 * math.lgamma(lam + 1), rel=1e-13, abs=1e-12)

    def test_m1_count_small(self):
        # first four nonzero eigenvalues are 1, 1, 4, 4
        assert partial_log_product(1, "by_count", 4) == pytest.approx(
            math.log(16.0), rel=1e-14)

    def test_m2_cutoff_one(self):
        # eigenvalue 1 with multiplicity 4
        assert partial_log_product(2, "by_cutoff", 1) == 0.0

    @pytest.mark.parametrize("m,mode,parameter", [
        (1, "by_count", 10 ** 12), (4, "by_count", 2 ** 25 + 1),
        (1, "by_cutoff", 1e12), (2, "by_cutoff", 1e4), (4, "by_cutoff", 1e300),
        (1, "by_cutoff", math.inf)])
    def test_enumeration_cap(self, m, mode, parameter):
        with pytest.raises(InputError):
            partial_log_product(m, mode, parameter)
        with pytest.raises(InputError):
            eigenproduct_reglimit(m, mode, [16.0, parameter],
                                  BasisSpec(((0.0, 0),)))

    def test_shell_complete_count_matches_cutoff(self):
        for (m, lam) in [(1, 7), (2, 5), (2, 11)]:
            count = len(_lattice_norms_sq(m, lam * lam))
            assert partial_log_product(m, "by_count", count) == pytest.approx(
                partial_log_product(m, "by_cutoff", lam), rel=1e-13)


class TestEigenproductLimits:
    BASIS = BasisSpec(((1.0, 1), (1.0, 0), (0.0, 1), (0.0, 0), (-1.0, 0),
                       (-3.0, 0)))

    def test_m1_by_cutoff(self):
        grid = [16 * 2 ** i for i in range(9)]
        c, unc, ref = eigenproduct_reglimit(1, "by_cutoff", grid, self.BASIS)
        assert ref == pytest.approx(LOG_4PI2, abs=1e-10)
        assert c == pytest.approx(LOG_4PI2, abs=1e-6)

    def test_m1_by_count_differs(self):
        grid = [32 * 2 ** i for i in range(9)]
        c, unc, _ = eigenproduct_reglimit(1, "by_count", grid, self.BASIS)
        assert c == pytest.approx(2 * math.log(math.pi), abs=1e-6)
        # the count parameterization does NOT reproduce the determinant
        assert abs(c - LOG_4PI2) > 0.5

    def test_m2_by_cutoff_with_averaging(self):
        grid = [8.0 * 2 ** (i / 2) for i in range(11)]
        basis = BasisSpec(((2.0, 1), (2.0, 0), (0.0, 1), (0.0, 0)))
        c, unc, ref = eigenproduct_reglimit(2, "by_cutoff", grid, basis)
        assert c == pytest.approx(ref, abs=5e-2)


class TestConvergence:
    def test_m1_dyadic(self):
        rep = convergence_check(1, [2 ** i for i in range(3, 11)], 1.0, 1)
        assert rep.strictly_decreasing
        # the exact asymptotic constant of the difference is
        # pi^3 (coth(pi)/2 - pi csch(pi)^2/6) = 15.4394...
        const = math.pi ** 3 * (1 / math.tanh(math.pi) / 2
                                - math.pi / math.sinh(math.pi) ** 2 / 6)
        assert rep.final_abs_diff == pytest.approx(const / 1024 ** 2, rel=1e-3)
        assert rep.derivative_rel_err_discrete <= 1e-6
        assert rep.derivative_rel_err_continuum <= 1e-6

    @pytest.mark.parametrize("m,z,grid", [(3, 0.5, [8, 16, 32, 64]),
                                          (3, 1.0, [8, 16, 32, 64]),
                                          (2, 0.5, [8, 32, 128, 512])])
    def test_derivative_identity_at_small_z(self, m, z, grid):
        # a step proportional to z keeps the finite-difference error
        # below tolerance where a fixed step does not
        rep = convergence_check(m, grid, z, m)
        assert rep.derivative_rel_err_discrete <= 1e-6
        assert rep.derivative_rel_err_continuum <= 1e-6

    def test_m1_module_contract_at_largest_n(self):
        rep = convergence_check(1, [512, 1024, 2048, 4096], 1.0, 1)
        assert rep.strictly_decreasing
        assert rep.final_abs_diff <= 1e-6

    def test_m2_decreasing_with_sign_record(self):
        rep = convergence_check(2, [2 ** i for i in range(3, 9)], 1.0, 2)
        diffs = [abs(r[3]) for r in rep.rows]
        assert all(b < a for a, b in zip(diffs, diffs[1:]))
        # empirical sign record (not asserted as a law): the continuum trace
        # exceeds the discrete one for m=1 but sits below it for m=2
        assert all(r[3] < 0 for r in rep.rows)
        rep1 = convergence_check(1, [8, 16, 32], 1.0, 1)
        assert all(r[3] > 0 for r in rep1.rows)
