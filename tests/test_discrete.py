"""Tests for discrete torus spectra, determinants, traces, and tree counts."""

import math

import mpmath
import numpy as np
import pytest

from torusdet import (DiscreteTorus, InputError, eigenvalue_product_integer,
                      log_det, log_det_rescaled, omega,
                      reduced_laplacian_det_mod, resolvent_trace,
                      sorted_spectrum, spanning_tree_count, spectrum_1d,
                      square_lattice_logdet_density, trace_inclusion_exclusion)


def closed_form_logdet_1d(n):
    # n-cycle has n spanning trees, so det = n^2 (n^2 / 4 pi^2)^(n-1)
    return 2 * math.log(n) + (n - 1) * math.log(n * n / (4 * math.pi ** 2))


class TestTorusType:
    def test_validation(self):
        with pytest.raises(InputError):
            DiscreteTorus(0, 4)
        with pytest.raises(InputError):
            DiscreteTorus(5, 4)
        with pytest.raises(InputError):
            DiscreteTorus(1, 1)

    def test_points(self):
        assert DiscreteTorus(3, 4).points == 64


class TestSpectrum:
    def test_zero_mode_and_symmetry(self):
        for n in (2, 3, 8, 17):
            s = spectrum_1d(n)
            assert s[0] == 0.0
            assert np.all(s[1:] > 0)
            for k in range(1, n):
                assert s[k] == s[n - k]  # exact, not approximate

    def test_values(self):
        s = spectrum_1d(2)
        assert s[1] == pytest.approx(4 / math.pi ** 2, rel=1e-15)
        s4 = spectrum_1d(4)
        assert s4[1] == pytest.approx(8 / math.pi ** 2, rel=1e-15)
        assert s4[2] == pytest.approx(16 / math.pi ** 2, rel=1e-15)

    def test_monotone_in_n_and_bounded_by_k_squared(self):
        for k in (1, 2, 5):
            prev = 0.0
            for n in (2 * k, 4 * k, 8 * k, 64 * k):
                val = spectrum_1d(n)[k]
                assert prev <= val <= k * k + 1e-12
                prev = val

    def test_sorted_spectrum_kernel(self):
        t = DiscreteTorus(2, 6)
        vals = sorted_spectrum(t)
        assert len(vals) == 36
        assert vals[0] == 0.0
        assert vals[1] > 0.0

    @pytest.mark.parametrize("m,n", [(1, 9), (2, 6), (2, 7), (2, 9), (3, 5),
                                     (4, 3)])
    def test_streamed_sums_match_materialized_spectrum(self, m, n):
        # the streaming reduction must agree with brute force over the
        # materialized eigenvalue array
        t = DiscreteTorus(m, n)
        vals = sorted_spectrum(t)
        assert log_det(t) == pytest.approx(
            float(np.sum(np.log(vals[1:]))), rel=1e-13)
        z = 0.8
        assert resolvent_trace(t, z, 2) == pytest.approx(
            float(np.sum((vals + z * z) ** -2.0)), rel=1e-13)


class TestOmega:
    def test_zero(self):
        assert omega(DiscreteTorus(3, 5), (0.0, 0.0, 0.0)) == 0.0

    def test_values(self):
        assert omega(DiscreteTorus(1, 2), (1.0,)) == pytest.approx(
            4 / math.pi ** 2, rel=1e-15)
        assert omega(DiscreteTorus(2, 4), (1.0, 2.0)) == pytest.approx(
            24 / math.pi ** 2, rel=1e-15)

    def test_reflection_symmetry_exact(self):
        t = DiscreteTorus(2, 7)
        for x in [(0.3, 2.2), (1.0, 6.9), (3.5, 0.0)]:
            reflected = tuple(7 - v for v in x)
            assert omega(t, x) == omega(t, reflected)

    def test_domain_checks(self):
        with pytest.raises(InputError):
            omega(DiscreteTorus(1, 4), (5.0,))
        with pytest.raises(InputError):
            omega(DiscreteTorus(2, 4), (1.0,))


class TestLogDet:
    def test_small_circles(self):
        assert log_det(DiscreteTorus(1, 2)) == pytest.approx(
            math.log(4 / math.pi ** 2), rel=1e-14)
        assert log_det(DiscreteTorus(1, 3)) == pytest.approx(
            math.log(729 / (16 * math.pi ** 4)), rel=1e-13)

    def test_closed_form_sweep(self):
        for n in (2, 5, 17, 100, 1000):
            assert log_det(DiscreteTorus(1, n)) == pytest.approx(
                closed_form_logdet_1d(n), rel=1e-12)

    def test_rescaled_values(self):
        assert log_det_rescaled(DiscreteTorus(1, 3)) == pytest.approx(
            math.log(9), rel=1e-13)
        assert log_det_rescaled(DiscreteTorus(1, 2)) == pytest.approx(
            math.log(4), rel=1e-13)
        # both independent routes give 128 here: eigenvalue product
        # {4, 4, 8} and 4 * (32 spanning trees)
        assert log_det_rescaled(DiscreteTorus(2, 2)) == pytest.approx(
            math.log(128), rel=1e-13)


class TestResolventTrace:
    def test_two_point_hand_sum(self):
        val = resolvent_trace(DiscreteTorus(1, 2), 1.0, 1)
        assert val == pytest.approx(1 + math.pi ** 2 / (math.pi ** 2 + 4),
                                    rel=1e-14)

    def test_four_point_hand_sum(self):
        expect = (1.0 + 2.0 / (1 + 8 / math.pi ** 2)
                  + 1.0 / (1 + 16 / math.pi ** 2))
        assert resolvent_trace(DiscreteTorus(1, 4), 1.0, 1) == pytest.approx(
            expect, rel=1e-14)

    def test_large_z_counts_modes(self):
        for (m, n) in [(1, 7), (2, 5)]:
            t = DiscreteTorus(m, n)
            z = 1e7
            assert resolvent_trace(t, z, 1) * z * z == pytest.approx(
                t.points, rel=1e-9)

    @pytest.mark.parametrize("z", [0.0, -1.0, math.nan, math.inf])
    def test_z_must_be_finite_and_positive(self, z):
        from torusdet import (boundary_inclusive_lattice_sum, em_decompose,
                              resolvent_trace_continuum)
        t = DiscreteTorus(2, 4)
        for call in (lambda: resolvent_trace(t, z, 2),
                     lambda: trace_inclusion_exclusion(t, z),
                     lambda: boundary_inclusive_lattice_sum(t, z, 2),
                     lambda: em_decompose(t, z),
                     lambda: resolvent_trace_continuum(2, z, 2)):
            with pytest.raises(InputError):
                call()

    def test_z_derivative_identity(self):
        # d/dz Tr(.+z^2)^(-a) = -2 a z Tr(.+z^2)^(-a-1)
        t = DiscreteTorus(1, 12)
        z, h = 1.0, 0.01
        for alpha in (1, 2):
            fd = (-resolvent_trace(t, z + 2 * h, alpha)
                  + 8 * resolvent_trace(t, z + h, alpha)
                  - 8 * resolvent_trace(t, z - h, alpha)
                  + resolvent_trace(t, z - 2 * h, alpha)) / (12 * h)
            ident = -2 * alpha * z * resolvent_trace(t, z, alpha + 1)
            assert fd == pytest.approx(ident, rel=1e-6)


class TestInclusionExclusion:
    def test_two_point_hand_sum(self):
        # extended-grid sum minus the pinned term
        val = trace_inclusion_exclusion(DiscreteTorus(1, 2), 1.0)
        expect = (1 + math.pi ** 2 / (math.pi ** 2 + 4) + 1) - 1
        assert val == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("m,n", [(1, 2), (1, 9), (1, 32), (2, 4),
                                     (2, 7), (2, 32)])
    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0])
    def test_matches_resolvent_trace(self, m, n, z):
        t = DiscreteTorus(m, n)
        a = trace_inclusion_exclusion(t, z)
        b = resolvent_trace(t, z, m)
        assert abs(a - b) <= 1e-12 * abs(b)

    def test_higher_dimensions(self):
        for (m, n) in [(3, 4), (4, 3)]:
            t = DiscreteTorus(m, n)
            a = trace_inclusion_exclusion(t, 1.0)
            b = resolvent_trace(t, 1.0, m)
            assert abs(a - b) <= 1e-12 * abs(b)
            # kernel contributes exactly one zero mode
            assert sorted_spectrum(t)[0] == 0.0
            assert sorted_spectrum(t)[1] > 0.0


class TestSpanningTrees:
    def test_cycles(self):
        assert spanning_tree_count(DiscreteTorus(1, 2)) == 2
        assert spanning_tree_count(DiscreteTorus(1, 3)) == 3
        assert spanning_tree_count(DiscreteTorus(1, 4)) == 4
        assert spanning_tree_count(DiscreteTorus(1, 250)) == 250

    def test_two_by_two_multigraph(self):
        assert spanning_tree_count(DiscreteTorus(2, 2)) == 32

    def test_cap(self):
        with pytest.raises(InputError):
            spanning_tree_count(DiscreteTorus(2, 65))

    def test_m1_fast_path_matches_generic_elimination(self):
        # the tridiagonal recurrence must agree with the generic sparse
        # elimination run on the same reduced Laplacian
        from fractions import Fraction
        from torusdet.discrete import _reduced_laplacian_rows

        for n in (2, 3, 4, 9, 16):
            t = DiscreteTorus(1, n)
            size = t.points - 1
            rows = [{j: Fraction(x) for j, x in row.items()}
                    for row in _reduced_laplacian_rows(t)]
            det = Fraction(1)
            for p in range(size):
                piv = rows[p][p]
                det *= piv
                for i in range(p + 1, size):
                    if p not in rows[i]:
                        continue
                    factor = rows[i][p] / piv
                    for j, v in list(rows[p].items()):
                        if j < p:
                            continue
                        rows[i][j] = rows[i].get(j, Fraction(0)) - factor * v
                    del rows[i][p]
            assert int(det) == spanning_tree_count(t) == n

    @pytest.mark.parametrize("m,n", [(1, 6), (1, 31), (2, 2), (2, 3),
                                     (2, 5), (2, 8)])
    def test_product_identity(self, m, n):
        # exp(rescaled log det) equals n^m * tree count: integer comparison
        # after extended-precision rounding, float agreement to 1e-9
        t = DiscreteTorus(m, n)
        target = t.points * spanning_tree_count(t)
        assert eigenvalue_product_integer(t) == target
        assert log_det_rescaled(t) == pytest.approx(math.log(target),
                                                    rel=1e-9)

    def test_modular_certification(self):
        t = DiscreteTorus(2, 6)
        count = spanning_tree_count(t)
        for p in (2 ** 31 - 1, 2 ** 31 - 19):
            assert reduced_laplacian_det_mod(t, p) == count % p


class TestRescaledBookkeeping:
    """The rescaled operator's limit shifts by twice the kernel count times
    log 2pi: LIM log det' = log det_zeta + 2 zeta(0) log 2pi, zeta(0) = -1."""

    def test_m1_rescaled_limit_is_zero(self):
        from torusdet import log_det_series, log_det_zeta
        from torusdet.expansion import BasisSpec, extract_reglimit

        # log det' for the circle is exactly 2 log n, so the constant is 0
        grid = [16 * 2 ** i for i in range(8)]
        samples = log_det_series(1, grid, rescaled=True)
        basis = BasisSpec(((1.0, 1), (1.0, 0), (0.0, 1), (0.0, 0)))
        constant, _ = extract_reglimit(samples, basis)
        target = log_det_zeta(1) + 2 * (-1) * math.log(2 * math.pi)
        assert target == pytest.approx(0.0, abs=1e-10)
        assert constant == pytest.approx(target, abs=1e-8)

    def test_m2_rescaled_limit(self):
        from torusdet import log_det_series, log_det_zeta
        from torusdet.expansion import BasisSpec, extract_reglimit

        grid = []
        v = 64.0
        while v <= 1024.5:
            grid.append(int(round(v)))
            v *= 2 ** (1 / 3)
        samples = log_det_series(2, grid, rescaled=True)
        basis = BasisSpec(((2.0, 0), (1.0, 0), (0.0, 1), (0.0, 0),
                           (-1.0, 0), (-2.0, 0)))
        constant, _ = extract_reglimit(samples, basis)
        target = log_det_zeta(2) - 2 * math.log(2 * math.pi)
        assert constant == pytest.approx(target, abs=1e-2)


class TestBulkDensity:
    def test_m1_is_zero(self):
        assert square_lattice_logdet_density(1) == 0.0

    def test_m2_catalan_value(self):
        ref = float(4 * mpmath.catalan / mpmath.pi)
        assert square_lattice_logdet_density(2) == pytest.approx(ref, abs=1e-10)

    def test_m2_matches_raw_double_integral(self):
        from scipy import integrate

        def f(u, v):
            return math.log(4 - 2 * math.cos(u) - 2 * math.cos(v))

        val, _ = integrate.dblquad(f, 0, 2 * math.pi, 0, 2 * math.pi,
                                   epsabs=1e-9)
        assert square_lattice_logdet_density(2) == pytest.approx(
            val / (4 * math.pi ** 2), abs=1e-7)
