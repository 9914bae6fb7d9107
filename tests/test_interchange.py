"""Tests for the limit/integral interchange checker."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusdet import (Expansion, ExpTerm, HomogeneousFn, InputError,
                      TO_INFINITY, builtin_registry, check_interchange,
                      correction_term, lhs_interchange, reg_integral,
                      verify_homogeneity)
from torusdet import interchange
from torusdet.interchange import fp_integral_from_one


def by_name(name):
    for f in builtin_registry():
        if f.name == name:
            return f
    raise KeyError(name)


class TestHomogeneity:
    def test_registry_degrees_hold(self):
        for f in builtin_registry():
            worst = verify_homogeneity(f)
            assert worst <= 1e-12

    def test_wrong_degree_detected(self):
        f = by_name("n/(z^2+n^2)")
        bad = HomogeneousFn(name="bad", evaluator=f.evaluator, degree=0.0,
                            expansion_z=f.expansion_z,
                            expansion_n=f.expansion_n)
        with pytest.raises(InputError):
            verify_homogeneity(bad)


class TestCorrection:
    def test_lorentz_gives_half_pi(self):
        assert correction_term(by_name("n/(z^2+n^2)")) == pytest.approx(
            math.pi / 2, abs=1e-8)

    def test_degree_zero_gives_zero(self):
        assert correction_term(by_name("n^2/(z^2+n^2)")) == 0.0

    def test_squared_lorentz_gives_quarter_pi(self):
        assert correction_term(by_name("n^3/(z^2+n^2)^2")) == pytest.approx(
            math.pi / 4, abs=1e-8)

    def test_log_balanced_function_gives_zero(self):
        # z^-1 * n/(z+n) has degree -1 and fp-integral of 1/(z(1+z)) is 0
        f = HomogeneousFn(
            name="z^-1 n/(z+n)",
            evaluator=lambda z, n: n / (z * (z + n)),
            degree=-1.0,
            # 1/(z(z+1)) = z^-2 - z^-3 + z^-4 - ...
            expansion_z=Expansion(TO_INFINITY, tuple(
                ExpTerm(-2.0 - i, 0, (-1.0) ** i) for i in range(4))),
            # n/(1+n) = 1 - n^-1 + n^-2 - ...
            expansion_n=Expansion(TO_INFINITY, tuple(
                ExpTerm(-float(i), 0, (-1.0) ** i) for i in range(4))),
        )
        verify_homogeneity(f)
        assert correction_term(f) == pytest.approx(0.0, abs=1e-8)


class TestSides:
    def test_lhs_values(self):
        assert lhs_interchange(by_name("n/(z^2+n^2)")) == pytest.approx(
            math.pi / 2, abs=1e-7)
        assert lhs_interchange(by_name("n^2/(z^2+n^2)")) == pytest.approx(
            -1.0, abs=1e-7)
        assert lhs_interchange(by_name("z^-2")) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [8.0, 64.0, 1024.0])
    def test_from_one_keeps_the_log_of_a_z_inverse_tail(self, n):
        # fp-integral of 1/(z+n) over [1, inf) is -log(1+n); its tail from
        # the window end on is n^0 times that of 1/(u+1), whose z^-1 term
        # contributes -log n through z/n
        series = Expansion(TO_INFINITY, tuple(
            ExpTerm(-1.0 - i, 0, (-1.0) ** i) for i in range(12)))
        f = HomogeneousFn(name="1/(z+n)", evaluator=lambda z, n: 1.0 / (z + n),
                          degree=-1.0, expansion_z=series, expansion_n=series)
        verify_homogeneity(f)
        assert fp_integral_from_one(f, n) == pytest.approx(-math.log1p(n),
                                                           abs=1e-10)

    def test_rhs_values(self):
        def rhs(name):
            return check_interchange(by_name(name)).rhs

        assert rhs("n/(z^2+n^2)") == pytest.approx(math.pi / 2, abs=1e-8)
        assert rhs("n^2/(z^2+n^2)") == pytest.approx(-1.0, abs=1e-12)
        assert rhs("z^-2") == pytest.approx(1.0, abs=1e-12)
        assert rhs("n^3/(z^2+n^2)^2") == pytest.approx(math.pi / 4, abs=1e-8)


class TestCheck:
    @pytest.mark.parametrize("name", ["n/(z^2+n^2)", "n^2/(z^2+n^2)",
                                      "n^3/(z^2+n^2)^2", "z^-2"])
    def test_registry_passes(self, name):
        rep = check_interchange(by_name(name), tol=1e-6)
        assert rep.passed
        assert rep.abs_diff == abs(rep.lhs - rep.rhs)

    def test_correction_integral_computed_once(self, monkeypatch):
        # one finite-part integral per degree -1 function, shared by the
        # correction and the right-hand side
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return reg_integral(*args, **kwargs)

        monkeypatch.setattr(interchange, "reg_integral", counted)
        for f in builtin_registry():
            check_interchange(f)
        assert len(calls) == sum(f.degree == -1.0 for f in builtin_registry())

    def test_both_branches_covered(self):
        degrees = [f.degree for f in builtin_registry()]
        assert any(abs(d + 1) < 1e-12 for d in degrees)
        assert any(abs(d + 1) > 1e-6 for d in degrees)
        corrs = [correction_term(f) for f in builtin_registry()]
        nonzero = sorted(c for c in corrs if c != 0.0)
        assert nonzero == pytest.approx([math.pi / 4, math.pi / 2], abs=1e-7)

    @given(st.floats(min_value=0.25, max_value=4.0))
    @settings(deadline=None, max_examples=8)
    def test_scaling_covariance(self, c):
        # replacing f by c f scales lhs, rhs, and corr by c
        base = by_name("n/(z^2+n^2)")
        scaled = HomogeneousFn(
            name="scaled", degree=base.degree,
            evaluator=lambda z, n: c * base.evaluator(z, n),
            expansion_z=Expansion(TO_INFINITY, tuple(
                ExpTerm(t.alpha, t.k, c * t.coeff)
                for t in base.expansion_z.terms)),
            expansion_n=Expansion(TO_INFINITY, tuple(
                ExpTerm(t.alpha, t.k, c * t.coeff)
                for t in base.expansion_n.terms)),
        )
        rep, ref = check_interchange(scaled), check_interchange(base)
        assert rep.rhs == pytest.approx(c * ref.rhs, rel=1e-9)
        assert rep.corr == pytest.approx(c * ref.corr, rel=1e-9)
        assert rep.lhs == pytest.approx(c * ref.lhs, rel=1e-6)
