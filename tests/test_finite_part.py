"""Tests for antiderivatives, finite parts, and regularized integrals."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

import torusdet as td
from torusdet import (BasisSpec, Expansion, InputError, NumericalError,
                      TO_INFINITY, TO_ZERO, TailModelError,
                      antiderivative_term, finite_part_tail_inf,
                      finite_part_tail_zero, logdet_via_regint, reg_integral)
from torusdet import DiscreteTorus, log_det, resolvent_trace
from torusdet.finite_part import _logdet_regint

LORENTZ_ZERO = BasisSpec(((0.0, 0), (2.0, 0), (4.0, 0), (6.0, 0)))
LORENTZ_INF = BasisSpec(((-2.0, 0), (-4.0, 0), (-6.0, 0), (-8.0, 0)))
ODD_ZERO = BasisSpec(((1.0, 0), (3.0, 0), (5.0, 0)))
ODD_INF = BasisSpec(((-1.0, 0), (-3.0, 0), (-5.0, 0), (-7.0, 0)))


class TestAntiderivative:
    def test_unit_power(self):
        assert antiderivative_term(0.0, 0, 5.0) == 5.0

    def test_log_branch(self):
        assert antiderivative_term(-1.0, 0, math.e ** 2) == pytest.approx(
            2.0, rel=1e-14)

    def test_power_log(self):
        # integral of z log z is z^2/2 log z - z^2/4
        for x in (0.5, 1.0, 3.7):
            expect = x * x / 2 * math.log(x) - x * x / 4
            assert antiderivative_term(1.0, 1, x) == pytest.approx(
                expect, rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("alpha,k", [(0.5, 0), (-1.0, 2), (2.0, 1),
                                         (-3.0, 1), (-1.0, 0)])
    def test_derivative_matches_integrand(self, alpha, k):
        # d/dx F(x) should equal x^alpha log(x)^k
        x0, h = 2.3, 1e-5
        fd = (antiderivative_term(alpha, k, x0 + h)
              - antiderivative_term(alpha, k, x0 - h)) / (2 * h)
        target = x0 ** alpha * math.log(x0) ** k
        assert fd == pytest.approx(target, rel=1e-8)


class TestFiniteParts:
    def test_convergent_tail(self):
        assert finite_part_tail_inf(-2.0, 0, 2.0) == pytest.approx(0.5)

    def test_growing_tail(self):
        assert finite_part_tail_inf(0.0, 0, 3.0) == pytest.approx(-3.0)

    def test_log_tail(self):
        assert finite_part_tail_inf(-1.0, 0, math.e) == pytest.approx(-1.0)

    def test_zero_side(self):
        assert finite_part_tail_zero(0.0, 0, 1.0) == pytest.approx(1.0)
        assert finite_part_tail_zero(-2.0, 0, 1.0) == pytest.approx(-1.0)
        assert finite_part_tail_zero(-1.0, 0, 1.0) == 0.0

    @pytest.mark.parametrize("alpha,k", [(-2.0, 0), (0.0, 0), (-1.0, 1),
                                         (1.5, 2), (-3.0, 1)])
    def test_telescoping(self, alpha, k):
        # fp(A) + proper integral [a, A] = fp(a), with the integral checked
        # against quadrature
        a, big = 0.7, 9.0
        quad, _ = integrate.quad(
            lambda z: z ** alpha * math.log(z) ** k, a, big,
            epsabs=1e-13, epsrel=1e-13)
        closed = (antiderivative_term(alpha, k, big)
                  - antiderivative_term(alpha, k, a))
        assert closed == pytest.approx(quad, rel=1e-10, abs=1e-12)
        lhs = finite_part_tail_inf(alpha, k, big) + closed
        assert lhs == pytest.approx(finite_part_tail_inf(alpha, k, a),
                                    rel=1e-12, abs=1e-12)


class TestRegIntegral:
    def test_lorentzian(self):
        res = reg_integral(lambda z: 1 / (1 + z * z), window=(1e-3, 50.0),
                           basis_zero=LORENTZ_ZERO, basis_inf=LORENTZ_INF)
        assert res.value == pytest.approx(math.pi / 2, abs=1e-8)

    def test_decomposition_identity_bitwise(self):
        res = reg_integral(lambda z: 1 / (1 + z * z), window=(1e-3, 50.0),
                           basis_zero=LORENTZ_ZERO, basis_inf=LORENTZ_INF)
        assert res.value == res.core_part + res.tail_zero_part + res.tail_inf_part

    @pytest.mark.parametrize("lam", [0.5, 1.0, 4.0])
    def test_log_kernel(self, lam):
        res = reg_integral(lambda z: z / (lam + z * z), window=(1e-3, 64.0),
                           basis_zero=ODD_ZERO, basis_inf=ODD_INF)
        assert -2.0 * res.value == pytest.approx(math.log(lam), abs=1e-8)

    def test_window_invariance(self):
        integrands = [
            (lambda z: 1 / (1 + z * z), LORENTZ_ZERO, LORENTZ_INF),
            (lambda z: z / (4.0 + z * z), ODD_ZERO, ODD_INF),
        ]
        for f, bz, bi in integrands:
            r1 = reg_integral(f, window=(1e-3, 50.0), basis_zero=bz, basis_inf=bi)
            r2 = reg_integral(f, window=(1e-4, 100.0), basis_zero=bz, basis_inf=bi)
            assert abs(r1.value - r2.value) <= (r1.error_estimate
                                                + r2.error_estimate + 1e-12)

    def test_agrees_with_plain_quadrature_when_convergent(self):
        f = lambda z: 1.0 / (1.0 + z * z) ** 2
        quad, _ = integrate.quad(f, 0, np.inf, epsabs=1e-13)
        assert quad == pytest.approx(math.pi / 4, abs=1e-12)
        res = reg_integral(
            f, window=(1e-3, 50.0),
            basis_zero=BasisSpec(((0.0, 0), (2.0, 0), (4.0, 0))),
            basis_inf=BasisSpec(((-4.0, 0), (-6.0, 0), (-8.0, 0), (-10.0, 0))))
        assert res.value == pytest.approx(quad, abs=1e-9)

    def test_exponential_tail_is_model_inadequate(self):
        # power bases cannot represent an exponential tail; the residual
        # check must refuse rather than return a wrong finite part
        with pytest.raises(TailModelError):
            reg_integral(
                lambda z: math.exp(-z) * z, window=(1e-4, 40.0),
                basis_zero=BasisSpec(((1.0, 0), (2.0, 0), (3.0, 0))),
                basis_inf=BasisSpec(((-2.0, 0), (-3.0, 0), (-4.0, 0),
                                     (-5.0, 0))))

    def test_declared_tails_bypass_fitting(self):
        res = reg_integral(
            lambda z: 1 / (1 + z * z), window=(1e-2, 50.0),
            basis_zero=Expansion(TO_ZERO, ((0.0, 0, 1.0), (2.0, 0, -1.0),
                                           (4.0, 0, 1.0))),
            basis_inf=Expansion(TO_INFINITY, ((-2.0, 0, 1.0), (-4.0, 0, -1.0),
                                              (-6.0, 0, 1.0))))
        assert res.value == pytest.approx(math.pi / 2, abs=1e-7)
        assert res.error_estimate == pytest.approx(0.0, abs=1e-9)

    def test_tail_model_inadequate(self):
        with pytest.raises(TailModelError):
            reg_integral(lambda z: 1 / z, window=(1e-2, 8.0),
                         basis_zero=BasisSpec(((-1.0, 0), (0.0, 0))),
                         basis_inf=BasisSpec(((0.0, 0),)))

    def test_requires_tail_treatment(self):
        with pytest.raises(InputError):
            reg_integral(lambda z: 1 / (1 + z * z), window=(1e-3, 50.0),
                         basis_zero=None, basis_inf=LORENTZ_INF)

    def test_bad_window(self):
        with pytest.raises(InputError):
            reg_integral(lambda z: z, window=(2.0, 1.0),
                         basis_zero=LORENTZ_ZERO, basis_inf=LORENTZ_INF)

    @pytest.mark.parametrize("window", [(0.0, 1.0), (1.0, math.inf),
                                        (math.nan, 1.0), (1e-3, math.nan)])
    def test_window_must_be_finite_and_positive(self, window):
        with pytest.raises(InputError):
            reg_integral(lambda z: 1 / (1 + z * z), window=window,
                         basis_zero=LORENTZ_ZERO, basis_inf=LORENTZ_INF)


class TestDeclaredTail:
    def test_direction_must_match_side(self):
        f = lambda z: 1 / (1 + z * z)
        inf_exp = Expansion(TO_INFINITY, ((-2.0, 0, 1.0),))
        zero_exp = Expansion(TO_ZERO, ((0.0, 0, 1.0),))
        with pytest.raises(InputError):
            reg_integral(f, basis_zero=inf_exp, basis_inf=inf_exp)
        with pytest.raises(InputError):
            reg_integral(f, basis_zero=zero_exp, basis_inf=zero_exp)

    def test_finite_part_sums_terms(self):
        # fp of 3/z^2: 3/2 beyond z = 2, -3 below z = 1, 0 over (0, inf)
        res = reg_integral(lambda z: 3.0 / (z * z), window=(1.0, 2.0),
                           basis_zero=Expansion(TO_ZERO, ((-2.0, 0, 3.0),)),
                           basis_inf=Expansion(TO_INFINITY, ((-2.0, 0, 3.0),)))
        assert res.tail_inf_part == pytest.approx(1.5)
        assert res.tail_zero_part == pytest.approx(-3.0)
        assert res.value == pytest.approx(0.0, abs=1e-12)


class TestLogdetRoute:
    def test_single_eigenvalue_one(self):
        v = logdet_via_regint(lambda z, a: (1.0 + z * z) ** (-a), 1, 0)
        assert v == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("lam", [1e-4, 0.5, 4.0, 1e6])
    def test_single_eigenvalue(self, lam):
        v = logdet_via_regint(lambda z, a: (lam + z * z) ** (-a), 1, 0)
        assert v == pytest.approx(math.log(lam), abs=1e-10)

    @pytest.mark.parametrize("window_end", [16.0, 64.0])
    @pytest.mark.parametrize("lam", [0.5, 4.0])
    def test_declared_tail_anchored_at_window_end(self, lam, window_end):
        # the tail of z/(lam + z^2) beyond any window is folded onto (0, 1]
        # by z = 1/x: the core takes no tail and no window, and the value
        # at every window_end is the default window's float
        v = _logdet_regint(lambda z: z / (lam + z * z), 1, 0)
        assert v == pytest.approx(math.log(lam), abs=1e-10)

        def trace(z, a):
            return (lam + z * z) ** (-a)

        assert (logdet_via_regint(trace, 1, 0, window_end=window_end)
                == logdet_via_regint(trace, 1, 0))

    def test_single_eigenvalue_m2_counts_its_mode(self):
        # the measured mode count gives the harmonic correction H_1 = 1
        v = logdet_via_regint(lambda z, a: (4.0 + z * z) ** (-a), 2, 0)
        assert v == pytest.approx(math.log(4.0), abs=1e-10)

    def test_kernel_only(self):
        v = logdet_via_regint(lambda z, a: (z * z) ** (-a), 1, 1)
        assert v == pytest.approx(0.0, abs=1e-10)

    def test_discrete_circle_n3(self):
        t = DiscreteTorus(1, 3)
        v = logdet_via_regint(lambda z, a: resolvent_trace(t, z, int(a)), 1, 1)
        assert v == pytest.approx(math.log(729 / (16 * math.pi ** 4)), abs=1e-6)

    def test_discrete_m2_with_mode_count(self):
        # the m >= 2 route needs the boundary terms of the iterated
        # integration by parts: harmonic number times the nonzero-mode count
        t = DiscreteTorus(2, 4)
        v = logdet_via_regint(lambda z, a: resolvent_trace(t, z, int(a)),
                              2, 1, nonzero_modes=t.points - 1)
        assert v == pytest.approx(log_det(t), abs=1e-8)

    def test_value_ignores_window_end_and_mode_count(self):
        t = DiscreteTorus(2, 16)

        def trace(z, a):
            return resolvent_trace(t, z, int(a))

        values = {logdet_via_regint(trace, 2, 1, **kw) for kw in (
            {}, {"nonzero_modes": t.points - 1}, {"window_end": 1.0},
            {"window_end": 16.0}, {"window_end": 128.0, "nonzero_modes": 0})}
        assert len(values) == 1

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_trace_without_mode_count_is_numerical_error(self, m):
        # the continuum trace grows like z^(-m) at infinity: no finite N
        with pytest.raises(NumericalError):
            logdet_via_regint(
                lambda z, a: td.resolvent_trace_continuum(m, z, a), m, 1)


class TestQuadratureChecks:
    @pytest.mark.parametrize("call", [
        lambda: td.logdet_zeta_via_regint(1),
        lambda: td.em_sum_1d(td.poly_evaluator([1.0, 2.0]), 4, 2),
        lambda: td.scaled_bulk_term(2, 2, 1.0, 8.0),
        lambda: td.square_lattice_logdet_density(2),
    ], ids=["zeta route", "em_sum_1d", "bulk term", "bulk density"])
    def test_integration_warning_is_numerical_error(self, call, monkeypatch):
        # every quadrature goes through one checked call
        def troubled_quad(*args, **kwargs):
            warnings.warn("roundoff", integrate.IntegrationWarning)
            return 1.0, 0.0

        monkeypatch.setattr(integrate, "quad", troubled_quad)
        with pytest.raises(NumericalError):
            call()
