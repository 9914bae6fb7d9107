"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are fixed here, not tuned at runtime.  Criteria identifiers
AC1..AC13 are referenced by the CLI reports and the README.
"""

import math

import mpmath
import numpy as np
import pytest

import torusdet as td
from torusdet import BasisSpec, DiscreteTorus, Samples
from torusdet.expansion import fit_expansion
from torusdet.smooth import _lead_radius

LOG_4PI2 = math.log(4 * math.pi ** 2)          # = 2 log 2 pi
LOGDET_ZETA_2 = float(mpmath.log(mpmath.gamma(0.25) ** 4 / (4 * mpmath.pi)))


def report(name, passed, detail):
    print(f"{name}: {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"{name} failed: {detail}"


def geom_int_grid(start, stop, ratio):
    out, v = [], float(start)
    while v <= stop * 1.0000001:
        n = int(round(v))
        if not out or n > out[-1]:
            out.append(n)
        v *= ratio
    return out


def test_ac1_exact_determinant_chain():
    # log det for m=1 matches 2 log n + (n-1) log(n^2/4pi^2) to 1e-10
    # relative for every n in 2..10^4, in under a second
    import time
    t0 = time.time()
    worst = 0.0
    for n in range(2, 10001):
        ld = td.log_det(DiscreteTorus(1, n))
        cf = 2 * math.log(n) + (n - 1) * math.log(n * n / (4 * math.pi ** 2))
        worst = max(worst, abs(ld - cf) / abs(cf))
    elapsed = time.time() - t0
    report("AC1", worst <= 1e-10 and elapsed < 1.0,
           f"worst rel {worst:.2e}, {elapsed:.2f}s")


def test_ac2_logdet_limit_m1():
    grid = [16 * 2 ** i for i in range(9)]
    constant, unc, reference = td.logdet_limit_pipeline(1, grid)
    ok = (abs(constant - LOG_4PI2) <= 1e-6
          and abs(reference - LOG_4PI2) <= 1e-8)
    report("AC2", ok,
           f"constant {constant:.9f} (err {constant - LOG_4PI2:.2e}), "
           f"reference err {reference - LOG_4PI2:.2e}")


def test_ac3_logdet_limit_m2():
    # the basis derived from m errs by 1.4e-9, inside its own uncertainty
    grid = geom_int_grid(64, 1024, 2 ** (1 / 3))
    import time
    t0 = time.time()
    constant, unc, reference = td.logdet_limit_pipeline(2, grid)
    elapsed = time.time() - t0
    err = constant - LOGDET_ZETA_2
    ok = abs(err) <= 2e-8 and abs(err) <= unc and elapsed < 60.0
    report("AC3", ok,
           f"constant {constant:.10f} vs {LOGDET_ZETA_2:.10f} "
           f"(err {err:.2e}, uncertainty {unc:.1e}), {elapsed:.1f}s")


@pytest.mark.parametrize("m,stop,tol", [(3, 128, 1e-6), (4, 64, 1e-4)])
def test_ac3_logdet_limit_m3_m4(m, stop, tol):
    # errors 4.5e-8 (m = 3) and 4.6e-8 (m = 4) on the grids 8:stop:x1.2; the
    # reference log_det_zeta(m) meets the finite-part route in AC7
    grid = geom_int_grid(8, stop, 1.2)
    constant, unc, reference = td.logdet_limit_pipeline(m, grid)
    err = constant - reference
    report(f"AC3 (m={m})", abs(err) <= tol,
           f"constant {constant:.10f} vs {reference:.10f} "
           f"(err {err:.2e}, uncertainty {unc:.1e})")


def test_ac4_bulk_coefficient_m2():
    grid = geom_int_grid(64, 1024, 2 ** (1 / 3))
    samples = td.log_det_series(2, grid, rescaled=True)
    basis = BasisSpec(((2.0, 0), (1.0, 0), (0.0, 1), (0.0, 0), (-1.0, 0),
                       (-2.0, 0)))
    coeffs, _ = fit_expansion(samples, basis)
    fitted = coeffs[(2.0, 0)]
    oracle = td.square_lattice_logdet_density(2)
    catalan_ref = float(4 * mpmath.catalan / mpmath.pi)
    ok = (abs(fitted - oracle) <= 1e-4
          and abs(oracle - catalan_ref) <= 1e-10)
    report("AC4", ok,
           f"fitted {fitted:.10f}, integral oracle {oracle:.10f}, "
           f"4G/pi {catalan_ref:.10f}")


def test_ac5_regularized_integral_identity():
    odd_zero = BasisSpec(((1.0, 0), (3.0, 0), (5.0, 0)))
    odd_inf = BasisSpec(((-1.0, 0), (-3.0, 0), (-5.0, 0), (-7.0, 0)))
    worst = 0.0
    for lam in (0.5, 1.0, 4.0):
        res = td.reg_integral(lambda z: z / (lam + z * z),
                              window=(1e-3, 64.0), basis_zero=odd_zero,
                              basis_inf=odd_inf)
        worst = max(worst, abs(-2 * res.value - math.log(lam)))
    kernel = td.logdet_via_regint(lambda z, a: (z * z) ** (-a), 1, 1)
    ok = worst <= 1e-8 and abs(kernel) <= 1e-8
    report("AC5", ok, f"worst |err| {worst:.2e}, kernel case {kernel:.2e}")


def test_ac6_discrete_logdet_via_regint():
    t = DiscreteTorus(1, 8)
    via = td.logdet_via_regint(lambda z, a: td.resolvent_trace(t, z, int(a)),
                               1, 1)
    direct = td.log_det(t)
    report("AC6", abs(via - direct) <= 1e-6,
           f"regint {via:.10f} vs direct {direct:.10f} "
           f"(err {via - direct:.2e})")


def test_ac7_continuum_route_equality():
    # one bound for every m, at the default window_end 64, at 128, and at
    # the window floor and 1.5 times it (windows from twice the floor on
    # repeat one core quadrature); the largest measured error is 3.3e-12,
    # at m = 1
    refs = {1: LOG_4PI2, 2: td.log_det_zeta(2), 3: td.log_det_zeta(3),
            4: td.log_det_zeta(4)}
    windows = {m: (_lead_radius(m), 1.5 * _lead_radius(m), 64.0, 128.0)
               for m in refs}
    errs = {(m, w): abs(td.logdet_zeta_via_regint(m, window_end=w) - refs[m])
            for m in refs for w in windows[m]}
    report("AC7", max(errs.values()) <= 1e-11,
           ", ".join(f"m={m} window {w:g} err {e:.2e}"
                     for (m, w), e in errs.items()) + " (<=1e-11)")


def test_ac8_interchange_registry():
    reports = [td.check_interchange(f, tol=1e-6)
               for f in td.builtin_registry()]
    corrs = sorted(r.corr for r in reports if r.corr != 0.0)
    branch_cover = (len(corrs) == 2
                    and abs(corrs[0] - math.pi / 4) <= 1e-6
                    and abs(corrs[1] - math.pi / 2) <= 1e-6
                    and any(r.corr == 0.0 for r in reports))
    ok = all(r.passed for r in reports) and branch_cover
    detail = ", ".join(f"{r.name}: |diff| {r.abs_diff:.1e}" for r in reports)
    report("AC8", ok, detail)


def test_ac9_euler_maclaurin_exactness():
    rng = np.random.default_rng(11)
    poly_ok = True
    for M in (1, 2, 3):
        coeffs = rng.uniform(-3, 3, size=2 * M + 1)
        u = td.poly_evaluator(coeffs)
        parts = td.em_sum_1d(u, 9, M)
        direct = td.em_direct_sum(u, 9)
        poly_ok = poly_ok and parts.remainder == 0.0 and (
            abs(parts.total - direct) <= 1e-12 * max(1.0, abs(direct)))
    worst = 0.0
    cases = [(1, 8), (1, 32), (2, 8), (2, 32)]
    for (m, n) in cases:
        for z in (0.5, 1.0, 2.0):
            t = DiscreteTorus(m, n)
            _, total = td.em_decompose(t, z)
            direct = td.boundary_inclusive_lattice_sum(t, z, m)
            worst = max(worst, abs(total - direct))
    ok = poly_ok and worst <= 1e-8
    report("AC9", ok, f"polynomials exact: {poly_ok}, "
                      f"worst decomposition |err| {worst:.2e}")


def test_ac10_cancellations_and_bounds():
    cancel_ok = True
    for m in (1, 2, 3):
        binom, resid = td.corner_term_cancellation(m)
        for z in (0.5, 1.0, 2.0):
            cancel_ok = cancel_ok and binom == 0 and resid <= 1e-14 * z ** (-2 * m)
    t = DiscreteTorus(2, 6)
    vals, _ = td.em_decompose(t, 1.0)
    beta2_ok = all(v == 0.0 for k, v in vals.items() if 2 in k)
    scan = td.remainder_uniformity_scan(1, z_grid=(4.0, 8.0, 16.0),
                                        n_grid=(8, 16, 32, 64, 128))
    # the scaled remainder |H| z^(2m+2) sinks below the quadrature noise of
    # the homogeneous-term integrals at large z; allow that floor
    unif_ok = all(
        scan.sup_per_z[z] <= 2.0 * scan.anchor_per_z[z] + 1e-13 * z ** 4
        for z in scan.sup_per_z)
    ok = cancel_ok and beta2_ok and unif_ok
    report("AC10", ok,
           f"cancellation {cancel_ok}, boundary patterns zero {beta2_ok}, "
           f"uniformity {unif_ok} (sup/anchor per z: "
           + ", ".join(f"{z:g}: {scan.sup_per_z[z]:.1e}/"
                       f"{scan.anchor_per_z[z]:.1e}"
                       for z in scan.sup_per_z) + ")")


def test_ac11_trace_limit():
    # The absolute difference at (m, alpha, z) = (1, 1, 1), n = 1024 has the
    # closed-form constant pi^3 (coth(pi)/2 - pi csch(pi)^2 / 6) = 15.4394...,
    # so |diff| at n=1024 is 1.4724e-5: the stated 1e-5 is unattainable as an
    # absolute bound (see the decisions ledger).  The relative reading passes
    # with margin, and the module contract (<= 1e-6 at the largest n) holds
    # on the dyadic grid extended to 4096.
    rep = td.convergence_check(1, [2 ** i for i in range(3, 11)], 1.0, 1)
    rel_at_1024 = rep.final_abs_diff / (math.pi / math.tanh(math.pi))
    rep_ext = td.convergence_check(1, [512, 1024, 2048, 4096], 1.0, 1)
    deriv_ok = (rep.derivative_rel_err_discrete <= 1e-6
                and rep.derivative_rel_err_continuum <= 1e-6)
    ok = (rep.strictly_decreasing and rel_at_1024 <= 1e-5
          and rep_ext.strictly_decreasing and rep_ext.final_abs_diff <= 1e-6
          and deriv_ok)
    report("AC11", ok,
           f"decreasing {rep.strictly_decreasing}, |diff|(1024) "
           f"{rep.final_abs_diff:.3e} (rel {rel_at_1024:.2e} <= 1e-5), "
           f"|diff|(4096) {rep_ext.final_abs_diff:.2e} <= 1e-6, "
           f"derivative identity ok {deriv_ok}")


def test_ac12_eigenvalue_products():
    grid = [16 * 2 ** i for i in range(9)]
    c_cut, _, ref = td.eigenproduct_reglimit(1, "by_cutoff", grid)
    err_cut = abs(c_cut - LOG_4PI2)
    grid_n = [32 * 2 ** i for i in range(9)]
    c_cnt, _, _ = td.eigenproduct_reglimit(1, "by_count", grid_n)
    err_cnt = abs(c_cnt - 2 * math.log(math.pi))
    grid2 = [8.0 * 2 ** (i / 2) for i in range(11)]
    c2, _, ref2 = td.eigenproduct_reglimit(2, "by_cutoff", grid2)
    err2 = abs(c2 - td.log_det_zeta(2))
    ok = err_cut <= 1e-6 and err_cnt <= 1e-6 and err2 <= 5e-2
    report("AC12", ok,
           f"m=1 cutoff err {err_cut:.2e} (-> 2 log 2pi), "
           f"m=1 count err {err_cnt:.2e} (-> 2 log pi, documented "
           f"discrepancy), m=2 err {err2:.2e} (<=5e-2)")


def test_ac13_matrix_tree_oracle():
    import time
    t0 = time.time()
    # m=1, every n <= 4096: the rescaled determinant exponentiates to
    # n * (tree count) exactly; products stay below 2^53, so float rounding
    # already gives the exact integer
    m1_ok = True
    for n in range(2, 4097):
        t = DiscreteTorus(1, n)
        trees = td.spanning_tree_count(t)
        if round(math.exp(td.log_det_rescaled(t))) != n * trees:
            m1_ok = False
            break
    # exact GF(p) spectral products (CRT over primes p = 1 mod n) on
    # sampled m=1 sizes
    for n in (2, 17, 100, 1024, 4096):
        t = DiscreteTorus(1, n)
        m1_ok = m1_ok and (td.eigenvalue_product_integer(t)
                           == n * td.spanning_tree_count(t))
    # m=2, n <= 16: exact integer elimination against the exact spectral
    # product
    exact_ok = True
    for n in range(2, 17):
        t = DiscreteTorus(2, n)
        if td.eigenvalue_product_integer(t) != t.points * td.spanning_tree_count(t):
            exact_ok = False
            break
    # m=2, 17 <= n <= 64: an exact CRT tree count needs about n^2/15
    # eliminations modulo 31-bit primes (at n = 64: 12-15 ms each once the
    # torus's plan is cached, 33-56 ms with the plan build, 3-5 s in all,
    # measured on a 2-vCPU VM), so the exact spectral product is certified
    # against the reduced-Laplacian determinant modulo two such primes
    # (three at n = 64)
    mod_ok = True
    for n in range(17, 65):
        t = DiscreteTorus(2, n)
        total = td.eigenvalue_product_integer(t)
        if total % t.points != 0:
            mod_ok = False
            break
        count = total // t.points
        primes = (2 ** 31 - 1, 2 ** 31 - 19, 2 ** 31 - 61)[:3 if n == 64 else 2]
        for p in primes:
            if td.reduced_laplacian_det_mod(t, p) != count % p:
                mod_ok = False
                break
    # higher dimensions at desk scale
    hi_ok = True
    for (m, n) in [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3)]:
        t = DiscreteTorus(m, n)
        hi_ok = hi_ok and (td.eigenvalue_product_integer(t)
                           == t.points * td.spanning_tree_count(t))
    elapsed = time.time() - t0
    ok = m1_ok and exact_ok and mod_ok and hi_ok
    report("AC13", ok,
           f"m=1 all n<=4096: {m1_ok}, m=2 exact n<=16: {exact_ok}, "
           f"m=2 modular 17<=n<=64: {mod_ok}, m=3/m=4 small: {hi_ok}, "
           f"{elapsed:.0f}s")
