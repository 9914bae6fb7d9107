"""Tests for expansion evaluation, fitting, and regularized-limit extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusdet import (BasisSpec, Expansion, ExpTerm, FitDegenerateError,
                      InputError, NumericalError, Samples, TailModelError,
                      TO_INFINITY, eval_expansion, extract_reglimit,
                      fit_expansion, regularized_limit)


def geometric_grid(start, count, ratio=2.0):
    return start * ratio ** np.arange(count)


class TestEvaluation:
    def test_constant(self):
        e = Expansion(TO_INFINITY, ((0.0, 0, 3.5),))
        assert eval_expansion(e, 10.0) == 3.5

    def test_linear_plus_constant(self):
        e = Expansion(TO_INFINITY, ((1.0, 0, 2.0), (0.0, 0, 3.0)))
        assert eval_expansion(e, 2.0) == pytest.approx(7.0, abs=1e-14)

    def test_log_term_at_e(self):
        # 4 * x^-1 * log x at x = e is 4/e
        e = Expansion(TO_INFINITY, ((-1.0, 1, 4.0),))
        assert eval_expansion(e, math.e) == pytest.approx(4.0 / math.e, rel=1e-15)

    def test_rejects_nonpositive_argument(self):
        e = Expansion(TO_INFINITY, ((0.0, 0, 1.0),))
        with pytest.raises(InputError):
            eval_expansion(e, 0.0)


class TestRegularizedLimit:
    def test_constant_coefficient(self):
        e = Expansion(TO_INFINITY, ((1.0, 0, 2.0), (0.0, 1, 7.0),
                                    (0.0, 0, 3.5), (-1.0, 0, 4.0)))
        assert regularized_limit(e) == 3.5

    def test_missing_constant_gives_zero(self):
        e = Expansion(TO_INFINITY, ((2.0, 0, 1.0),))
        assert regularized_limit(e) == 0.0

    def test_arctan_expansion(self):
        # pi/2 - arctan(1/n) = pi/2 - 1/n + 1/(3n^3) - ...
        e = Expansion(TO_INFINITY, ((0.0, 0, math.pi / 2), (-1.0, 0, -1.0),
                                    (-3.0, 0, 1.0 / 3.0)))
        assert regularized_limit(e) == math.pi / 2


class TestExpansionInvariants:
    def test_duplicate_term_rejected(self):
        with pytest.raises(InputError):
            Expansion(TO_INFINITY, ((1.0, 0, 2.0), (1.0, 0, 3.0)))

    def test_negative_log_power_rejected(self):
        with pytest.raises(InputError):
            ExpTerm(1.0, -1, 2.0)


class TestFit:
    def test_exact_rational_model(self):
        x = geometric_grid(1.0, 9)
        y = 2.0 * x + 3.0 + 5.0 / x
        basis = BasisSpec(((1.0, 0), (0.0, 0), (-1.0, 0)))
        coeffs, report = fit_expansion(Samples(x, y), basis)
        assert coeffs[(1.0, 0)] == pytest.approx(2.0, abs=1e-10)
        assert coeffs[(0.0, 0)] == pytest.approx(3.0, abs=1e-10)
        assert coeffs[(-1.0, 0)] == pytest.approx(5.0, abs=1e-10)
        assert report.rms_residual <= 1e-10
        assert report.condition_estimate >= 1.0

    def test_exact_log_model(self):
        x = geometric_grid(2.0, 10)
        y = 2.0 * x * np.log(x) - x
        basis = BasisSpec(((1.0, 1), (1.0, 0), (0.0, 0)))
        coeffs, report = fit_expansion(Samples(x, y), basis)
        assert coeffs[(1.0, 1)] == pytest.approx(2.0, abs=1e-9)
        assert coeffs[(1.0, 0)] == pytest.approx(-1.0, abs=1e-9)
        assert coeffs[(0.0, 0)] == pytest.approx(0.0, abs=1e-9)
        assert report.rms_residual <= 1e-9 * float(np.max(np.abs(y)))

    def test_discrete_logdet_closed_form(self):
        # matrix-tree closed form: log det = 2 n log n - (n-1) log(4 pi^2)
        # equivalently coefficients (2, -log 4pi^2, 0, log 4pi^2)
        n = geometric_grid(16.0, 9)
        y = 2 * n * np.log(n) - (n - 1) * math.log(4 * math.pi ** 2)
        basis = BasisSpec(((1.0, 1), (1.0, 0), (0.0, 1), (0.0, 0)))
        coeffs, _ = fit_expansion(Samples(n, y), basis)
        l4p = math.log(4 * math.pi ** 2)
        assert coeffs[(1.0, 1)] == pytest.approx(2.0, abs=1e-8)
        assert coeffs[(1.0, 0)] == pytest.approx(-l4p, abs=1e-8)
        assert coeffs[(0.0, 1)] == pytest.approx(0.0, abs=1e-8)
        assert coeffs[(0.0, 0)] == pytest.approx(l4p, abs=1e-8)

    def test_too_few_samples(self):
        basis = BasisSpec(((1.0, 0), (0.0, 0), (-1.0, 0)))
        x = geometric_grid(1.0, 4)
        with pytest.raises(InputError):
            fit_expansion(Samples(x, np.ones_like(x)), basis)

    def test_condition_cap(self):
        x = geometric_grid(1.0, 8)
        basis = BasisSpec(((1.0, 0), (0.0, 0)))
        with pytest.raises(FitDegenerateError):
            fit_expansion(Samples(x, x + 1.0), basis, cond_cap=1.0)

    def test_near_collinear_columns_degenerate(self):
        x = geometric_grid(1.0, 10)
        basis = BasisSpec(((50.0, 0), (50.0000001, 0)))
        with pytest.raises(FitDegenerateError):
            fit_expansion(Samples(x, x ** 50.0), basis)

    def test_fit_and_tail_failures_are_numerical_errors(self):
        # the CLI maps NumericalError, subclasses included, to exit 3
        assert issubclass(FitDegenerateError, NumericalError)
        assert issubclass(TailModelError, NumericalError)

    def test_constant_data_is_allowed(self):
        x = geometric_grid(1.0, 8)
        basis = BasisSpec(((0.0, 0), (-1.0, 0)))
        coeffs, report = fit_expansion(Samples(x, np.full_like(x, 7.25)), basis)
        assert coeffs[(0.0, 0)] == pytest.approx(7.25, abs=1e-12)
        assert report.rms_residual <= 1e-12


class TestExtract:
    def test_simple_decay(self):
        n = geometric_grid(8.0, 8)
        y = 5.0 + 1.0 / n
        a00, unc = extract_reglimit(Samples(n, y),
                                    BasisSpec(((0.0, 0), (-1.0, 0))))
        assert a00 == pytest.approx(5.0, abs=1e-12)
        assert unc <= 1e-11

    def test_exact_model_with_log(self):
        n = geometric_grid(8.0, 8)
        y = n + np.log(n) + 2.0
        a00, _ = extract_reglimit(
            Samples(n, y), BasisSpec(((1.0, 0), (0.0, 1), (0.0, 0))))
        assert a00 == pytest.approx(2.0, abs=1e-10)

    def test_arctan_limit(self):
        n = geometric_grid(8.0, 9)
        y = math.pi / 2 - np.arctan(1.0 / n)
        a00, _ = extract_reglimit(
            Samples(n, y),
            BasisSpec(((0.0, 0), (-1.0, 0), (-3.0, 0), (-5.0, 0), (-7.0, 0))))
        assert a00 == pytest.approx(math.pi / 2, abs=1e-10)

    def test_requires_constant_pair(self):
        n = geometric_grid(8.0, 8)
        with pytest.raises(InputError):
            extract_reglimit(Samples(n, 1.0 / n), BasisSpec(((-1.0, 0),)))

    def test_augmenting_with_zero_terms(self):
        # adding basis pairs whose true coefficient is 0 moves the constant
        # by less than the reported uncertainty
        n = geometric_grid(8.0, 10)
        y = math.pi / 2 - np.arctan(1.0 / n)
        base = BasisSpec(((0.0, 0), (-1.0, 0), (-3.0, 0), (-5.0, 0), (-7.0, 0)))
        wide = BasisSpec(base.pairs + ((-2.0, 0),))
        a0, u0 = extract_reglimit(Samples(n, y), base)
        a1, u1 = extract_reglimit(Samples(n, y), wide)
        assert abs(a1 - a0) <= max(u0, u1) + 1e-15


coeff_st = st.floats(min_value=-10, max_value=10).filter(lambda c: abs(c) > 1e-3)


class TestProperties:
    @given(st.lists(coeff_st, min_size=1, max_size=4), st.integers(0, 3))
    @settings(deadline=None, max_examples=40)
    def test_fit_roundtrip(self, coeffs, seed):
        alphas = [1.0, 0.0, -1.0, -2.0]
        pairs = tuple((alphas[i], 0) for i in range(len(coeffs)))
        basis = BasisSpec(pairs)
        x = geometric_grid(1.0 + 0.25 * seed, len(pairs) + 4)
        y = sum(c * x ** a for c, (a, _) in zip(coeffs, pairs))
        fitted, _ = fit_expansion(Samples(x, np.asarray(y)), basis)
        for c, p in zip(coeffs, pairs):
            assert abs(fitted[p] - c) <= 1e-9 * (1.0 + abs(c))

    @given(st.lists(coeff_st, min_size=1, max_size=3),
           st.lists(coeff_st, min_size=1, max_size=3),
           coeff_st, coeff_st)
    @settings(deadline=None, max_examples=40)
    def test_limit_linearity(self, c1, c2, a, b):
        alphas = [0.0, -1.0, 1.0]
        e1 = Expansion(TO_INFINITY, tuple(
            (alphas[i], 0, c) for i, c in enumerate(c1)))
        e2 = Expansion(TO_INFINITY, tuple(
            (alphas[i], 0, c) for i, c in enumerate(c2)))
        combo = {}
        for t in e1.terms:
            combo[(t.alpha, t.k)] = combo.get((t.alpha, t.k), 0.0) + a * t.coeff
        for t in e2.terms:
            combo[(t.alpha, t.k)] = combo.get((t.alpha, t.k), 0.0) + b * t.coeff
        e3 = Expansion(TO_INFINITY, tuple(
            (al, k, c) for (al, k), c in combo.items()))
        lhs = regularized_limit(e3)
        rhs = a * regularized_limit(e1) + b * regularized_limit(e2)
        assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(rhs)))

