"""Tests for discrete torus spectra, determinants, traces, and tree counts."""

import functools
import hashlib
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import isprime

from torusdet import (DiscreteTorus, InputError, NumericalError,
                      boundary_inclusive_lattice_sum,
                      eigenvalue_product_integer, log_det, log_det_rescaled,
                      logdet_via_regint, reduced_laplacian_det_mod,
                      resolvent_trace,
                      spanning_tree_count, spectrum_1d,
                      square_lattice_logdet_density, trace_inclusion_exclusion)
from torusdet.discrete import (LEAF, MAX_MODULUS, MAX_SORTED, MAX_SUM_LATTICE,
                               TRACE_MAX_ALPHA, _axis_eigenvalues, _crt,
                               _det_mod_primes, _fronts, _half_axis,
                               _inner_axis_log_product, _inner_axis_monomials,
                               _inner_axis_traces,
                               _is_prime, _lattice_sum, _matmul_mod, _primes,
                               _product_mod, _roots_of_unity,
                               _spectral_product_mod)


def closed_form_logdet_1d(n):
    # n-cycle has n spanning trees, so det = n^2 (n^2 / 4 pi^2)^(n-1)
    return 2 * math.log(n) + (n - 1) * math.log(n * n / (4 * math.pi ** 2))


def sorted_spectrum(t):
    # brute-force reference: all n^m eigenvalues, materialized and sorted
    full = s = spectrum_1d(t.n)
    for _ in range(t.m - 1):
        full = np.add.outer(full, s).ravel()
    return np.sort(full)


class TestTorusType:
    def test_validation(self):
        with pytest.raises(InputError):
            DiscreteTorus(0, 4)
        with pytest.raises(InputError):
            DiscreteTorus(5, 4)
        with pytest.raises(InputError):
            DiscreteTorus(1, 1)

    def test_numpy_integer_sizes_become_ints(self):
        # numpy integer arithmetic wraps (kept as np.int32, n = 8 gives 0
        # spanning trees), so the sizes are stored as ints
        t = DiscreteTorus(np.int64(2), np.int32(8))
        assert (type(t.m), type(t.n)) == (int, int)
        assert t == DiscreteTorus(2, 8)
        assert log_det(t) == log_det(DiscreteTorus(2, 8))
        assert spanning_tree_count(t) == spanning_tree_count(DiscreteTorus(2, 8))

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

    def test_one_axis_spectrum_cap(self):
        from torusdet.discrete import MAX_SORTED
        assert len(spectrum_1d(MAX_SORTED)) == MAX_SORTED
        with pytest.raises(InputError):
            spectrum_1d(MAX_SORTED + 1)

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


def per_row_lattice_sum(axes, term_fn, *, skip_zero_mode):
    # reference: one numpy pairwise sum per outer index tuple, in
    # lexicographic order, partials combined by fsum
    *outer, (s_in, w_in) = axes
    partials = []
    for idx in itertools.product(*[range(len(s)) for s, _ in outer]):
        base = 0.0
        wt = 1.0
        for (s, w), i in zip(outer, idx):
            base += s[i]
            wt *= w[i]
        vals, wts = s_in, w_in
        if skip_zero_mode and not any(idx):
            vals, wts = s_in[1:], w_in[1:]
        partials.append(float(np.sum((wt * wts) * term_fn(base + vals))))
    return math.fsum(partials)


class TestBlockedLatticeSum:
    # with LATTICE_BLOCK = 2^14 the (n//2 + 1)^(m-1) - 1 rows after the zero
    # row fill several blocks and a partial one at (2, 600), (2, 601),
    # (3, 64), (3, 65), (4, 40) and (4, 41)
    @pytest.mark.parametrize("m,n", [(1, 9), (1, 10), (2, 2), (2, 3),
                                     (2, 600), (2, 601), (3, 4), (3, 7),
                                     (3, 64), (3, 65), (4, 5), (4, 40),
                                     (4, 41)])
    def test_bit_identical_to_per_row_loop(self, m, n):
        axes = [_half_axis(n)] * m
        cases = [(np.log, True),
                 (lambda v: (v + 0.49) ** -float(m), True),
                 (lambda v: (v + 0.49) ** -float(m), False),
                 (lambda v: (v + 2.25) ** -1, False)]
        for term_fn, skip in cases:
            assert _lattice_sum(axes, term_fn, skip_zero_mode=skip) == \
                per_row_lattice_sum(axes, term_fn, skip_zero_mode=skip)
        # log_det_rescaled and resolvent_trace: the inner axis is a closed form
        if m > 1:
            outer = [(lambda v: _inner_axis_log_product(n, v), True)] + [
                (lambda v, a=a: _inner_axis_traces(n, v + 0.49, a), False)
                for a in (m, TRACE_MAX_ALPHA)]
            for term_fn, skip in outer:
                assert _lattice_sum(axes[1:], term_fn, skip_zero_mode=skip) == \
                    per_row_lattice_sum(axes[1:], term_fn, skip_zero_mode=skip)


def omega(n, x):
    """``(n^2/pi^2) sum_i sin^2(pi x_i / n)`` at real coordinates in [0, n]."""
    return float(np.sum(_axis_eigenvalues(n, np.array(x, dtype=float))))


class TestOmega:
    def test_zero(self):
        assert omega(5, (0.0, 0.0, 0.0)) == 0.0

    def test_values(self):
        assert omega(2, (1.0,)) == pytest.approx(4 / math.pi ** 2, rel=1e-15)
        assert omega(4, (1.0, 2.0)) == pytest.approx(24 / math.pi ** 2,
                                                     rel=1e-15)

    def test_reflection_symmetry_exact(self):
        for x in [(0.3, 2.2), (1.0, 6.9), (3.5, 0.0)]:
            reflected = tuple(7 - v for v in x)
            assert omega(7, x) == omega(7, reflected)


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


def mp_log_det_rescaled(m, n, bits=120):
    """Reference: the graph-Laplacian eigenvalue product multiplied out mode
    by mode, on eigenvalues in fixed point with ``bits`` fraction bits (the
    running product kept to 3 * bits bits); sines and logs by mpmath at 30
    digits.  The outer axes run over k = 0..n//2 with weight 2 for k and
    n - k distinct."""
    with mpmath.workdps(40):
        axis = [int(mpmath.nint(4 * mpmath.sin(mpmath.pi * k / n) ** 2
                                * 2 ** bits)) for k in range(n)]
    total = mpmath.mpf(0)
    with mpmath.workdps(30):
        for outer in itertools.product(range(n // 2 + 1), repeat=m - 1):
            mu = sum(axis[k] for k in outer)
            man, exp = 1, 0
            for x in (mu + a for a in axis if mu + a):
                man *= x
                cut = max(0, man.bit_length() - 3 * bits)
                man, exp = man >> cut, exp + cut - bits
            wt = math.prod(1 + (2 * k % n > 0) for k in outer)
            total += wt * (mpmath.log(man) + exp * mpmath.ln2)
    return total


class TestInnerAxisProduct:
    """log_det_rescaled multiplies the inner axis out as 2 cosh(n theta) - 2;
    each test here checks it against a route that does not."""

    @pytest.mark.parametrize("m,n", [(1, 2), (1, 3), (1, 10), (1, 601),
                                     (2, 2), (2, 3), (2, 8), (2, 9),
                                     (2, 600), (2, 601), (3, 2), (3, 3),
                                     (3, 64), (3, 65), (4, 2), (4, 3),
                                     (4, 40), (4, 41)])
    def test_matches_per_mode_log_sum(self, m, n):
        # np.log over every nonzero mode of the rescaled spectrum, the
        # reduction log_det made before the inner axis was multiplied out
        per_mode = _lattice_sum([_half_axis(n)] * m, np.log, skip_zero_mode=True)
        assert log_det(DiscreteTorus(m, n)) == pytest.approx(per_mode, rel=1e-13)

    def test_beyond_the_full_lattice_cap(self):
        # n^m = 2^26 exceeds MAX_SUM_LATTICE, which now caps the n^(m-1)
        # outer modes only
        from torusdet.discrete import MAX_SUM_LATTICE
        t = DiscreteTorus(2, 8192)
        assert t.points > MAX_SUM_LATTICE
        per_mode = _lattice_sum([_half_axis(8192)] * 2, np.log,
                                skip_zero_mode=True)
        assert log_det(t) == pytest.approx(per_mode, rel=1e-13)

    def test_size_cap(self):
        from torusdet.discrete import MAX_SORTED
        log_det(DiscreteTorus(4, 322))
        for m, n in [(1, MAX_SORTED + 1), (2, MAX_SORTED + 1), (3, 5793),
                     (4, 323)]:
            with pytest.raises(InputError):
                log_det_rescaled(DiscreteTorus(m, n))

    def test_circle_matches_sorted_spectrum(self):
        for n in range(2, 513):
            t = DiscreteTorus(1, n)
            expect = math.fsum(np.log(sorted_spectrum(t)[1:]))
            assert log_det(t) == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (2, 64), (2, 1024),
                                     (3, 5), (3, 128), (4, 3), (4, 24)])
    def test_matches_30_digit_product(self, m, n):
        ref = mp_log_det_rescaled(m, n)
        got = log_det_rescaled(DiscreteTorus(m, n))
        assert abs(got - ref) <= 1e-14 * abs(ref)


def mp_resolvent_trace(m, n, z, alpha):
    """``sum (omega + z^2)^(-alpha)`` over all n^m modes, to 40 digits."""
    with mpmath.workdps(40):
        axis = [(n / mpmath.pi) ** 2 * mpmath.sin(mpmath.pi * k / n) ** 2
                for k in range(n)]
        z2 = mpmath.mpf(z) ** 2
        return float(mpmath.fsum((mpmath.fsum(ks) + z2) ** -alpha
                                 for ks in itertools.product(axis, repeat=m)))


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

    @pytest.mark.parametrize("m,alpha", [(1, 1), (2, 1), (2, 2), (3, 3),
                                         (4, 1), (4, 4)])
    def test_tiny_z_is_finite_or_numerical_error(self, m, alpha):
        # scan z across the float-range threshold of the largest term of each
        # entry point; no term may be evaluated past it (an overflow would
        # raise FloatingPointError here) and no answer may be inf or nan
        from torusdet import boundary_inclusive_lattice_sum, em_decompose
        t = DiscreteTorus(m, 3)
        calls = [lambda z: resolvent_trace(t, z, alpha),
                 lambda z: boundary_inclusive_lattice_sum(t, z, alpha)]
        if alpha == m:
            calls.append(lambda z: trace_inclusion_exclusion(t, z))
        if m <= 2:
            calls.append(lambda z: em_decompose(t, z, alpha)[1])
        outcomes = set()
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for call in calls:
                for z in np.geomspace(1e-200, 1e-10, 1500):
                    try:
                        outcomes.add(math.isfinite(call(float(z))))
                    except NumericalError:
                        outcomes.add("numerical error")
        assert outcomes == {True, "numerical error"}

    @pytest.mark.parametrize("m,n", [(1, 9), (2, 6), (3, 5), (4, 3)])
    @pytest.mark.parametrize("alpha", range(1, TRACE_MAX_ALPHA + 2))
    def test_matches_40_digit_sum(self, m, n, alpha):
        # the closed-form inner axis up to TRACE_MAX_ALPHA, the lattice sum
        # above it, at small, unit and large z
        for z in (1e-3, 1.0, 1e3):
            ref = mp_resolvent_trace(m, n, z, alpha)
            got = resolvent_trace(DiscreteTorus(m, n), z, alpha)
            assert abs(got - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("m,n,alpha", [(1, 4096, 1), (2, 1024, 2),
                                           (2, 1024, 3), (3, 128, 3),
                                           (3, 128, 4), (4, 24, 4)])
    def test_matches_lattice_sum(self, m, n, alpha):
        z = 1.5
        ref = _lattice_sum([_half_axis(n)] * m,
                           lambda v: (v + z * z) ** -float(alpha),
                           skip_zero_mode=False)
        got = resolvent_trace(DiscreteTorus(m, n), z, alpha)
        assert abs(got - ref) <= 1e-14 * ref

    def test_repeated_calls_are_bit_identical(self):
        # (4, 64) has 33^3 outer modes: three blocks
        for (m, n), alpha in itertools.product([(1, 8), (3, 12), (4, 64)],
                                               (1, 4, TRACE_MAX_ALPHA)):
            t = DiscreteTorus(m, n)
            first = resolvent_trace(t, 0.7, alpha)
            _inner_axis_monomials.cache_clear()
            assert resolvent_trace(t, 0.7, alpha) == first
            assert resolvent_trace(t, 0.7, alpha) == first

    @pytest.mark.parametrize("z", [1e150, 1e160, 1e300])
    def test_huge_z_is_the_lattice_value_without_warnings(self, z):
        # every numpy floating-point error raises but underflow, which numpy
        # ignores by default and which the lattice terms meet too; from
        # z = 1.4e154 on z^2 overflows and every term is 0
        with np.errstate(all="raise", under="ignore"):
            for m, n in [(1, 2), (1, 8), (2, 3), (2, 8), (3, 5), (4, 3)]:
                t = DiscreteTorus(m, n)
                vals = sorted_spectrum(t)
                for alpha in range(1, TRACE_MAX_ALPHA + 2):
                    expect = float(np.sum((vals + z * z) ** -float(alpha)))
                    assert resolvent_trace(t, z, alpha) == pytest.approx(
                        expect, rel=1e-14, abs=0)

    def test_size_cap_counts_outer_modes(self):
        # n^(m-1) outer modes of an axis of at most MAX_SORTED points up to
        # TRACE_MAX_ALPHA, every point above it
        t = DiscreteTorus(2, 8192)
        assert t.points > MAX_SUM_LATTICE
        assert math.isfinite(resolvent_trace(t, 1.0, TRACE_MAX_ALPHA))
        with pytest.raises(InputError, match="iteration cap"):
            resolvent_trace(t, 1.0, TRACE_MAX_ALPHA + 1)
        with pytest.raises(InputError, match="iteration cap"):
            resolvent_trace(DiscreteTorus(3, 5793), 1.0, 1)
        with pytest.raises(InputError, match="capped"):
            resolvent_trace(DiscreteTorus(1, MAX_SORTED + 1), 1.0, 1)

    def test_large_power_at_unit_z(self):
        # the zero mode contributes exactly 1, every other term underflows
        assert resolvent_trace(DiscreteTorus(1, 4), 1.0, 1000) == 1.0

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


# float.hex of resolvent traces at GOLDEN_TRACE_Z: the closed-form inner
# axis (alpha = 1, 2, 8) alone at m = 1 and under 1 to 3 outer axes, and the
# lattice sum over every axis (alpha = 9), on even and odd n
GOLDEN_TRACE_Z = (1e-3, 0.37, 1.0, 1e16)
GOLDEN_TRACES = [
    (1, 2, 1, ("0x1.e8484ef4e6626p+19", "0x1.24c48a4337214p+3",
                "0x1.b62b6389bbaa5p+0", "0x1.9f623d5a8a732p-106")),
    (1, 2, 2, ("0x1.d1a94a200c2cep+39", "0x1.c6126582e1973p+5",
                "0x1.81a1b8e26dcf2p+0", "0x1.50ffd44f4a73dp-212")),
    (1, 2, 8, ("0x1.5e531a0a1c868p+159", "0x1.eeb85f9255449p+22",
                "0x1.10d4e39276b73p+0", "0x1.8062864ac6f40p-850")),
    (1, 2, 9, ("0x1.4e1878814c9d0p+179", "0x1.c3b610c033a24p+25",
                "0x1.0bfa3417bc461p+0", "0x1.37d99cc506d56p-956")),
    (1, 9, 1, ("0x1.e84867f9db3d6p+19", "0x1.484f17d9b6cbcp+3",
                "0x1.7d4324b620dfcp+1", "0x1.d34e8505dbc19p-104")),
    (1, 9, 2, ("0x1.d1a94a2004db3p+39", "0x1.ba16a96687c70p+5",
                "0x1.b034eb56a48c9p+0", "0x1.7b1fced933c26p-210")),
    (1, 9, 8, ("0x1.5e531a0a1c873p+159", "0x1.eeb64bbcc79bep+22",
                "0x1.025ab05ea036ep+0", "0x1.b06ed7141fd2ep-848")),
    (1, 9, 9, ("0x1.4e1878814c9d0p+179", "0x1.c3b595b12bd26p+25",
                "0x1.0133364b18438p+0", "0x1.5ed4d05da7b02p-954")),
    (2, 2, 1, ("0x1.e848c56443273p+19", "0x1.818ff866447fep+3",
                "0x1.7cdd8fe63f505p+1", "0x1.9f623d5a8a732p-105")),
    (2, 2, 2, ("0x1.d1a94a201b654p+39", "0x1.ea329e7abd5e8p+5",
                "0x1.28ad916b0e7aap+1", "0x1.50ffd44f4a73dp-211")),
    (2, 2, 8, ("0x1.5e531a0a1c868p+159", "0x1.eeba7d61ba22ep+22",
                "0x1.23e144a4969b6p+0", "0x1.8062864ac6f40p-849")),
    (2, 2, 9, ("0x1.4e1878814c9d0p+179", "0x1.c3b68d0e972e4p+25",
                "0x1.192dd6c07be5fp+0", "0x1.37d99cc506d56p-955")),
    (2, 9, 1, ("0x1.e849f6f3fc322p+19", "0x1.629308a0f69b3p+4",
                "0x1.933ac92daea64p+3", "0x1.06dc2ad34b9cep-100")),
    (2, 9, 2, ("0x1.d1a94a200de23p+39", "0x1.d889f4494094cp+5",
                "0x1.cb818d60dd089p+1", "0x1.aa83c8b45a3aap-207")),
    (2, 9, 8, ("0x1.5e531a0a1c873p+159", "0x1.eeb64f9aa581dp+22",
                "0x1.04e7ce05797f2p+0", "0x1.e67cb1f6a3cd4p-845")),
    (2, 9, 9, ("0x1.4e1878814c9d0p+179", "0x1.c3b59621476cbp+25",
                "0x1.02778f18ccd3cp+0", "0x1.8aaf6a695ca62p-951")),
    (3, 5, 1, ("0x1.e84d227421017p+19", "0x1.6f8ae54936de0p+5",
                "0x1.dff01dbc422bap+4", "0x1.95a5efea6b348p-100")),
    (3, 5, 2, ("0x1.d1a94a2026ee1p+39", "0x1.16c64c390f79cp+6",
                "0x1.1be82a97202fep+3", "0x1.4919d5556eb54p-206")),
    (3, 5, 8, ("0x1.5e531a0a1c874p+159", "0x1.eeb65e10b8885p+22",
                "0x1.0b4164a40b0cbp+0", "0x1.77603725064b1p-844")),
    (3, 5, 9, ("0x1.4e1878814c9d0p+179", "0x1.c3b597f8ebfecp+25",
                "0x1.05c5eeda90b48p+0", "0x1.308a831868ac6p-950")),
    (4, 4, 1, ("0x1.e8539cc53ba48p+19", "0x1.7abd91a050651p+6",
                "0x1.0871064cb5568p+6", "0x1.9f623d5a8a732p-99")),
    (4, 4, 2, ("0x1.d1a94a2057a61p+39", "0x1.6a106a4efe425p+6",
                "0x1.35daa7bc77ef1p+4", "0x1.50ffd44f4a73dp-205")),
    (4, 4, 8, ("0x1.5e531a0a1c870p+159", "0x1.eeb67a8f91c9bp+22",
                "0x1.15e825fc85e6fp+0", "0x1.8062864ac6f40p-843")),
    (4, 4, 9, ("0x1.4e1878814c9d0p+179", "0x1.c3b59bda0f58dp+25",
                "0x1.0b49887ef7e3dp+0", "0x1.37d99cc506d56p-949")),
]


class TestGoldenSpectralValues:
    @pytest.mark.parametrize("m,n,alpha,expected", GOLDEN_TRACES)
    def test_resolvent_trace(self, m, n, alpha, expected):
        t = DiscreteTorus(m, n)
        assert tuple(resolvent_trace(t, z, alpha).hex()
                     for z in GOLDEN_TRACE_Z) == expected

    @pytest.mark.parametrize("m,n,expected", [(1, 512, "0x1.19dbbeaf95e18p+12"),
                                              (2, 64, "0x1.73c4f1c079be2p+14")])
    def test_logdet_via_regint(self, m, n, expected):
        t = DiscreteTorus(m, n)
        via = logdet_via_regint(lambda z, a: resolvent_trace(t, z, a), m, 1)
        assert via.hex() == expected

    @pytest.mark.parametrize("m,n,expected", [(3, 16, "0x1.aca49ba4f3f7cp+12"),
                                              (4, 9, "0x1.9a15dc3fca366p+13")])
    def test_log_det_rescaled(self, m, n, expected):
        assert log_det_rescaled(DiscreteTorus(m, n)).hex() == expected


class TestHalfAxisCache:
    def test_repeat_call_returns_the_same_read_only_arrays(self):
        s, w = _half_axis(12)
        again = _half_axis(12)
        assert again[0] is s and again[1] is w
        assert not s.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 2.0

    @pytest.mark.parametrize("m,n", [(1, 8), (2, 9), (3, 6)])
    def test_extended_grid_sums_leave_the_weights_alone(self, m, n):
        # the extended grid doubles the k = 0 weight on its own copy
        t = DiscreteTorus(m, n)
        powers = (m, TRACE_MAX_ALPHA + 1)
        before = [resolvent_trace(t, 0.7, a) for a in powers]
        trace_inclusion_exclusion(t, 0.7)
        boundary_inclusive_lattice_sum(t, 0.7, m)
        assert _half_axis(n)[1].tolist() == \
            [1.0] + [2.0] * ((n - 1) // 2) + [1.0] * (n % 2 == 0)
        assert [resolvent_trace(t, 0.7, a) for a in powers] == before


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

    def test_modular_cap(self):
        with pytest.raises(InputError):
            reduced_laplacian_det_mod(DiscreteTorus(2, 65), 2 ** 31 - 1)

    def test_m1_fast_path_matches_generic_elimination(self):
        # the closed form n must agree with the generic sparse
        # elimination run on the same reduced Laplacian: vertices 1..n-1 of
        # the circle, whose wrap edges end at the deleted vertex 0
        from fractions import Fraction

        for n in (2, 3, 4, 9, 16):
            t = DiscreteTorus(1, n)
            size = t.points - 1
            rows = [{j: Fraction(x) for j, x in ((i - 1, -1), (i, 2), (i + 1, -1))
                     if 0 <= j < size} for i in range(size)]
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
        # exp(rescaled log det) equals n^m * tree count: the exact GF(p)
        # spectral product as an integer, float agreement to 1e-9
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


def mpmath_eigenvalue_product(t):
    """Reference: walk all n^m eigenvalues in extended precision and round."""
    digits = max(int(log_det_rescaled(t) / math.log(10.0)), 0) + 30
    with mpmath.workdps(digits):
        s = [4 * mpmath.sinpi(mpmath.mpf(k) / t.n) ** 2 for k in range(t.n)]
        prod = mpmath.fprod(sum(s[i] for i in idx) for idx in
                            itertools.product(range(t.n), repeat=t.m)
                            if any(idx))
        nearest = mpmath.nint(prod)
        assert abs(prod - nearest) <= 0.25
        return int(nearest)


def full_spectral_product_mod(t, primes):
    """Reference: the residue product over every nonzero mode of the n^m,
    each eigenvalue the axis sum of ``2 - zeta^k - zeta^-k`` mod p."""
    out = []
    for p, zeta in zip(primes, _roots_of_unity(t.n, primes)):
        ps = np.array([[p]], dtype=np.int64)
        powers = np.array([[pow(zeta, k, p) for k in range(t.n)]], dtype=np.int64)
        axis = lam = (2 - powers - np.roll(powers[:, ::-1], 1, axis=1)) % ps
        for _ in range(t.m - 1):
            lam = (lam[:, :, None] + axis[:, None, :]).reshape(1, -1) % ps
        out += _product_mod(lam[:, 1:], ps).tolist()
    return out


def assert_primitive_root(zeta, n, p):
    assert pow(zeta, n, p) == 1
    assert all(pow(zeta, d, p) != 1 for d in range(1, n) if n % d == 0)


class TestSpectralProduct:
    @pytest.mark.parametrize("m,n", [(1, 2), (1, 17), (1, 4093), (1, 4096),
                                     (2, 2), (2, 3), (2, 12), (2, 37),
                                     (2, 64), (3, 8), (4, 3)])
    def test_matches_extended_precision_walk(self, m, n):
        t = DiscreteTorus(m, n)
        assert eigenvalue_product_integer(t) == mpmath_eigenvalue_product(t)

    @pytest.mark.parametrize("m,n", [(1, 4093), (1, 4096), (2, 37), (2, 64),
                                     (3, 8), (4, 4)])
    def test_float_log_det_agrees_with_the_exact_product(self, m, n):
        # a hundredth of LOGDET_CHECK_RTOL
        t = DiscreteTorus(m, n)
        ldr = log_det_rescaled(t)
        assert abs(math.log(eigenvalue_product_integer(t)) - ldr) <= 1e-14 * ldr

    @given(st.sampled_from([(m, n) for m in range(1, 5) for n in range(2, 257)
                            if n ** m <= 256]))
    @settings(deadline=None, max_examples=30)
    def test_matrix_tree_identity(self, torus):
        t = DiscreteTorus(*torus)
        assert eigenvalue_product_integer(t) == t.points * spanning_tree_count(t)

    @pytest.mark.parametrize("n", [2, 3, 4, 12, 17, 64, 97, 4093, 4096])
    def test_roots_are_primitive(self, n):
        primes = list(itertools.islice(
            (p for p in range(2 ** 31 - 1, 0, -2) if p % n == 1 and isprime(p)),
            20))
        for p, zeta in zip(primes, _roots_of_unity(n, primes), strict=True):
            assert_primitive_root(zeta, n, p)

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5)
                                     for n in (2, 3, 4, 5, 6, 12, 17, 64)
                                     if n ** m <= 1 << 18])
    def test_lucas_ladder_matches_the_full_residue_product(self, m, n):
        # the inner axis in closed form against every one of the n^m modes,
        # at the top primes of the CRT stream and at primes near 2^30; m = 1
        # is the zero outer mode alone, n^2, and n = 2 the doubled edge
        t, step = DiscreteTorus(m, n), n * (1 + n % 2)
        low = range(2 ** 30 - 2 ** 30 % step + 1, 2 ** 31, step)   # p = 1 (mod step)
        primes = list(itertools.islice(_primes(step), 3)) + list(
            itertools.islice(filter(isprime, low), 2))
        residues = _spectral_product_mod(t, primes)
        assert residues == full_spectral_product_mod(t, primes)
        if m == 1:
            assert residues == [n * n % p for p in primes]

    def test_roots_are_memoized_per_n_not_per_step(self, monkeypatch):
        # n = 3 and 6 draw primes of step 6, n = 5 and 10 of step 10: calls
        # interleaved on shared primes must each keep their own n-th roots
        import torusdet.discrete as discrete

        monkeypatch.setattr(discrete, "_ROOTS", {})
        for count in (2, 5, 3):
            for n in (3, 6, 5, 10):
                t = DiscreteTorus(2, n)
                primes = list(itertools.islice(_primes(n * (1 + n % 2)), count))
                assert (_spectral_product_mod(t, primes)
                        == full_spectral_product_mod(t, primes))
        assert sorted(discrete._ROOTS) == [3, 5, 6, 10]
        for n, roots in discrete._ROOTS.items():
            assert len(roots) == 5
            for p, zeta in roots.items():
                assert [zeta] == _roots_of_unity(n, [p])
                assert_primitive_root(zeta, n, p)

    @pytest.mark.parametrize("m,n,digest", [
        (2, 32, "c5b46aea9f34f546976b4b9e05130f4638c6c9f680fed6e4050dffd7318df005"),
        (2, 64, "5f8cfecb58b4d31115c1fd86364c546fa4aeca6418234f91e1daabb4c4b8abc3"),
        (3, 8, "be063ca654e468d0c626379d1d7305987c3c622002111ece8fcc19de75b3174b")])
    def test_golden_products(self, m, n, digest):
        # sha256 of the decimal product, recorded before the Lucas ladder
        product = eigenvalue_product_integer(DiscreteTorus(m, n))
        assert hashlib.sha256(str(product).encode()).hexdigest() == digest

    @pytest.mark.parametrize("step,bound", [(2, 4 ** 15), (2, 6 ** 63),
                                            (64, 2 ** 400), (34, 10 ** 50)])
    def test_crt_takes_the_shortest_prime_prefix(self, step, bound):
        # every prime = 1 (mod step) from 2^31 down, stopping as soon as the
        # product exceeds the bound; residues of x come back as x
        seen = []
        x = bound // 3

        def residues(primes):
            seen.extend(primes)
            return [x % p for p in primes]

        assert _crt(residues, step, bound) == x
        assert math.prod(seen) > bound >= math.prod(seen[:-1])
        top = 2 ** 31 - 1 - (2 ** 31 - 2) % step
        assert seen == [q for q in range(top, seen[-1] - 1, -step)
                        if isprime(q)]

    def test_crt_replaces_a_failed_prime(self):
        # a None residue drops its prime, and exactly one more is drawn
        calls, bound = [], 6 ** 63
        x = bound // 3

        def residues(primes):
            calls.append(primes)
            return [None if p == 2 ** 31 - 19 else x % p for p in primes]

        assert _crt(residues, 2, bound) == x
        prefix = list(itertools.islice(
            (q for q in range(2 ** 31 - 1, 0, -2) if isprime(q)),
            len(calls[0]) + 1))
        assert calls[0] == prefix[:-1]
        assert 2 ** 31 - 19 in calls[0]
        assert calls[1:] == [prefix[-1:]]

    def test_prime_stream_is_memoized_per_step(self, monkeypatch):
        # streams of one step share a list that each extends on demand;
        # drawn alternately with another step, every stream is still the
        # filtered range, prime by prime
        import torusdet.discrete as discrete

        monkeypatch.setattr(discrete, "_PRIME_RUNS", {})
        streams = [(step, _primes(step)) for step in (2, 34, 2, 34, 2)]
        drawn = [[] for _ in streams]
        for count in (5, 1, 40, 3, 60):
            for k, (_, it) in enumerate(streams):
                drawn[k].extend(itertools.islice(it, count + k))
        for (step, _), seen in zip(streams, drawn):
            top = 2 ** 31 - 1 - (2 ** 31 - 2) % step
            assert seen == list(itertools.islice(
                filter(_is_prime, range(top, 2, -step)), len(seen)))
        assert list(discrete._PRIME_RUNS) == [2, 34]

    @pytest.mark.parametrize("m,n", [(2, 12), (2, 64), (3, 4), (4, 3)])
    def test_short_prime_list_fails_the_logdet_check(self, m, n, monkeypatch):
        # primes up to the square root of the bound only: the CRT returns a
        # wrong representative, which the float log-determinant must refuse
        import torusdet.discrete as discrete

        full = discrete._crt
        monkeypatch.setattr(discrete, "_crt", lambda residues_mod, step, bound:
                            full(residues_mod, step, math.isqrt(bound)))
        with pytest.raises(NumericalError):
            eigenvalue_product_integer(DiscreteTorus(m, n))


SMALL_PRIMES = [p for p in range(2, 60) if isprime(p)]
# tree counts of (2, 33) and (3, 8) take about a second: one per torus
tree_count = functools.cache(lambda m, n: spanning_tree_count(DiscreteTorus(m, n)))
ZERO_PIVOT_TORI = [(2, n) for n in range(2, 9)] + [(3, 3), (3, 4), (4, 2),
                                                    (4, 3)]


class TestModularDeterminant:
    @pytest.mark.parametrize("m,n", ZERO_PIVOT_TORI)
    def test_small_primes_force_pivoting(self, m, n):
        # a prime at which a leading minor in nested-dissection order
        # vanishes takes the fallback, the exact eigenvalue product over n^m:
        # always p | 2m (a leaf's first pivot is 2m), and from (2, 3) up 4
        # to 15 more of the primes below 60.  The tree count is a CRT of
        # eliminations modulo 31-bit primes, independent of the fallback
        t = DiscreteTorus(m, n)
        count = spanning_tree_count(t)
        for p in SMALL_PRIMES:
            assert reduced_laplacian_det_mod(t, p) == count % p

    @given(st.sampled_from([(1, 7), (1, 30), (2, 2), (2, 5), (2, 9), (2, 17),
                            (2, 33), (3, 3), (3, 5), (3, 8), (4, 2), (4, 4)]),
           st.integers(2 ** 30, 2 ** 31 - 1))
    @settings(deadline=None, max_examples=25)
    def test_random_31_bit_primes(self, torus, start):
        p = start | 1
        while not isprime(p):
            p += 2
        t = DiscreteTorus(*torus)
        assert reduced_laplacian_det_mod(t, p) == tree_count(*torus) % p

    @pytest.mark.parametrize("p", [4294967291, 2 ** 61 - 1, 0, -7, 1, 15,
                                   2 ** 31, 2.0 ** 31 - 1])
    def test_modulus_must_be_an_int64_safe_prime(self, p):
        # 4294967291 and 2^61 - 1 are primes whose squares overflow int64
        with pytest.raises(InputError):
            reduced_laplacian_det_mod(DiscreteTorus(2, 6), p)

    def test_largest_modulus(self):
        # the largest admissible prime: updates reach -p^2, just above -2^63,
        # and boundary blocks on several depths take the limb product
        p = max(q for q in range(MAX_MODULUS - 200, MAX_MODULUS + 1)
                if isprime(q))
        for m, n in [(2, 6), (2, 17), (3, 5)]:
            t = DiscreteTorus(m, n)
            assert reduced_laplacian_det_mod(t, p) == tree_count(m, n) % p

    @pytest.mark.parametrize("p", [2 ** 31 - 1, max(
        q for q in range(MAX_MODULUS - 200, MAX_MODULUS + 1) if isprime(q))])
    def test_limb_product_is_exact(self, p):
        # inner length 4096, the most own slots a front can have; random
        # residues and the all-(p - 1) extreme against Python integers
        rng = np.random.default_rng(p % 1000)
        for x, y in [(rng.integers(0, p, (3, 4096)), rng.integers(0, p, (4096, 4))),
                     (np.full((2, 4096), p - 1), np.full((4096, 2), p - 1))]:
            ref = [[sum(a * b for a, b in zip(row, col)) % p for col in y.T.tolist()]
                   for row in x.tolist()]
            assert _matmul_mod(x, y, p).tolist() == ref

    def test_plan_cache_is_read_only_and_shared(self):
        t, ps = DiscreteTorus(2, 17), [2 ** 31 - 1, 2 ** 31 - 19]
        first = [reduced_laplacian_det_mod(t, p) for p in ps]
        assert first == [tree_count(2, 17) % p for p in ps]
        for tmpl, _, mult, src, to in _fronts(t):
            for a in (tmpl, mult, src, to):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[...] = 0
        for m, n, p in [(3, 5, 2 ** 31 - 61), (2, 16, ps[0]), (4, 3, 2 ** 31 - 1)]:
            reduced_laplacian_det_mod(DiscreteTorus(m, n), p)
        before = _fronts.cache_info()
        assert [reduced_laplacian_det_mod(t, p) for p in ps] == first
        after = _fronts.cache_info()
        assert (after.hits, after.misses) == (before.hits + 2, before.misses)


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

    # int (e^(-t) - (e^(-2t) I_0(2t))^m) dt/t in mpmath at 30 and at 45
    # digits, which agree to 1e-31; the same integral at m = 2 is 4G/pi to
    # 28 digits
    @pytest.mark.parametrize("m,ref", [(3, "1.673389302970196732283430622"),
                                       (4, "1.999707644517312559687899304")])
    def test_m3_m4_against_mpmath(self, m, ref):
        assert abs(square_lattice_logdet_density(m) - float(ref)) <= 1e-13

    @pytest.mark.parametrize("m", [0, 5])
    def test_dimension_outside_1_to_4_refused(self, m):
        with pytest.raises(InputError):
            square_lattice_logdet_density(m)


class TestPanels:
    LARGEST = max(q for q in range(MAX_MODULUS - 200, MAX_MODULUS + 1) if isprime(q))

    @pytest.mark.parametrize("m,n", [(2, 17), (2, 33), (3, 5), (4, 3)])
    def test_panel_width_leaves_every_residue(self, m, n, monkeypatch):
        # PANEL = 1 is one trailing update per pivot, 5 leaves a partial last
        # panel wherever the own slots are no multiple of 5 (34 at the root
        # of (2, 17)), 4096 is one panel per depth
        # (the limb product's inner length is the panel width); small primes
        # meet zero pivots at the same slot whatever the width
        import torusdet.discrete as discrete

        t, primes = DiscreteTorus(m, n), SMALL_PRIMES + [2 ** 31 - 1, self.LARGEST]
        default = discrete._det_mod_primes(t, primes)
        assert None in default
        for panel in (1, 5, 4096):
            monkeypatch.setattr(discrete, "PANEL", panel)
            assert discrete._det_mod_primes(t, primes) == default
            assert ([reduced_laplacian_det_mod(t, p) for p in primes]
                    == [tree_count(m, n) % p for p in primes])

    @pytest.mark.parametrize("m,n,residues", [
        (2, 64, [2123219229, 116446031]), (3, 8, [947824, 1277932507])])
    def test_golden_residues(self, m, n, residues):
        # recorded before the panels
        t = DiscreteTorus(m, n)
        assert [reduced_laplacian_det_mod(t, p)
                for p in (2 ** 31 - 1, 2 ** 31 - 19)] == residues


def boxes_per_depth(m, n):
    # every box of the nested dissection, depth by depth, by the cut rule:
    # the longest axis, a circle (0, n) at 0 and n//2, an interval [lo, hi)
    # at its middle, down to leaves of at most LEAF vertices
    level, depths = [[(0, n)] * m], []
    while level:
        depths.append(level)
        deeper = []
        for box in level:
            lens = [hi - lo for lo, hi in box]
            a = lens.index(max(lens))
            lo, hi = box[a]
            c = n // 2 if lo == 0 else (lo + hi) // 2
            if math.prod(lens) > LEAF:
                deeper += [box[:a] + [s] + box[a + 1:]
                           for s in [(max(lo, 1), c), (c + 1, hi)] if s[0] < s[1]]
        level = deeper
    return depths


class TestFrontClasses:
    # the plan keeps one front per box shape and depth
    @pytest.mark.parametrize("m,n", [(2, 32), (2, 48), (2, 64), (3, 8),
                                     (3, 16), (4, 8)])
    def test_one_class_below_the_root_children(self, m, n):
        # translates of one box at every depth below the root, its two
        # children included: vertex 0 is an ordinary vertex below the root
        plan = _fronts(DiscreteTorus(m, n))
        assert [len(mult) for _, _, mult, _, _ in plan[1:]] == [1] * (len(plan) - 1)

    @pytest.mark.parametrize("m,n,classes", [
        (2, 22, [1, 1, 1, 2, 4, 3]), (2, 33, [1, 2, 4, 6, 4, 6, 4]),
        (2, 63, [1, 2, 4, 4, 4, 4, 4, 4, 3])])
    def test_classes_are_the_box_shapes_of_a_depth(self, m, n, classes):
        depths = boxes_per_depth(m, n)
        plan = _fronts(DiscreteTorus(m, n))
        assert [len(mult) for _, _, mult, _, _ in plan] == classes
        assert classes == [len({tuple(hi - lo for lo, hi in box) for box in level})
                           for level in depths]
        assert [int(mult.sum()) for _, _, mult, _, _ in plan] == list(map(len, depths))

    @pytest.mark.parametrize("m,n", [(2, 32), (2, 48), (2, 64), (3, 8), (3, 16),
                                     (4, 8), (2, 17), (2, 63), (3, 7), (4, 5)])
    def test_multiplicities_cover_every_front_and_vertex(self, m, n):
        # one root; each depth's fronts are the children of the fronts above,
        # counted per class from the scatter (its flat index names the
        # parent's class); own slots with diagonal 2m are the vertices,
        # vertex 0 the root's last, so each is eliminated once
        plan = _fronts(DiscreteTorus(m, n))
        assert plan[0][2].tolist() == [1]
        for (tmpl, _, mult, src, to), (_, _, kids, _, _) in zip(plan, plan[1:]):
            assert sorted(set(src.tolist())) == list(range(len(kids)))
            rep = to.reshape(len(src), -1)[:, 0] // tmpl[0].size
            assert mult @ np.bincount(rep, minlength=len(mult)) == kids.sum()
        assert sum(int(mult @ (tmpl[:, range(own), range(own)] == 2 * m).sum(1))
                   for tmpl, own, mult, _, _ in plan) == n ** m

    # recorded before front classes existed, on tori whose depths keep
    # several classes (today at most 6 in a depth of (2, 33), 4 of (2, 63)
    # and 8 of (3, 7)); of the primes below 400 only those listed, with
    # their residues, meet no zero pivot
    @pytest.mark.parametrize("m,n,residues,small", [
        (2, 33, [1800011367, 1195888243],
         {131: 48, 149: 17, 211: 80, 233: 232, 281: 202, 349: 239, 353: 65}),
        (2, 63, [142292787, 2040020479], {263: 148, 293: 267, 347: 73}),
        (3, 7, [1498641025, 1758840149],
         {61: 29, 149: 45, 157: 32, 191: 111, 223: 68, 269: 3, 277: 83, 307: 146,
          317: 266, 331: 12, 347: 179, 373: 27, 383: 301, 389: 221}),
    ])
    def test_golden_residues_with_several_classes(self, m, n, residues, small):
        t = DiscreteTorus(m, n)
        assert [reduced_laplacian_det_mod(t, p)
                for p in (2 ** 31 - 1, 2 ** 31 - 19)] == residues
        primes = SMALL_PRIMES + list(small)
        assert _det_mod_primes(t, primes) == [small.get(p) for p in primes]
