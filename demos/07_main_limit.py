"""The headline identity at desk scale.

The regularized limit of the discrete log-determinants, extracted by
fitting the power-log basis that the theorem fixes for each m over a
geometric grid of lattice sizes, reproduces the zeta-regularized
determinant of the continuum torus; the eigenvalue-product route shows
how the answer depends on the truncation parameterization.
"""

from torusdet import BasisSpec, eigenproduct_reglimit, log_det_series, \
    logdet_limit_pipeline
from torusdet.expansion import fit_expansion


def geom_int_grid(start, stop, ratio):
    out, v = [], float(start)
    while v <= stop * 1.0000001:
        n = int(round(v))
        if not out or n > out[-1]:
            out.append(n)
        v *= ratio
    return out


# The basis is derived from m: n^m log n, n^m, 1 and n^-2 .. n^-2J, with
# J = min(4, len(grid) - 5).
print("m = 1: grid 16..4096")
c, unc, ref = logdet_limit_pipeline(1, [16 * 2 ** i for i in range(9)])
print(f"  extracted constant {c:.10f} +- {unc:.1e}")
print(f"  zeta determinant   {ref:.10f}  (= 2 log 2pi)")

print()
print("m = 2: grid 64..1024")
grid2 = geom_int_grid(64, 1024, 2 ** (1 / 3))
c2, unc2, ref2 = logdet_limit_pipeline(2, grid2)
print(f"  extracted constant {c2:.10f} +- {unc2:.1e}")
print(f"  zeta determinant   {ref2:.10f}  (= log(Gamma(1/4)^4 / 4pi))")

for m, stop in ((3, 128), (4, 64)):
    print()
    print(f"m = {m}: grid 8..{stop}, ratio 1.2")
    cm, uncm, refm = logdet_limit_pipeline(m, geom_int_grid(8, stop, 1.2))
    print(f"  extracted constant {cm:.10f} +- {uncm:.1e}")
    print(f"  zeta determinant   {refm:.10f}")

print()
print("The fitted n^2 coefficient of the rescaled determinant (m=2):")
coeffs, _ = fit_expansion(
    log_det_series(2, grid2, rescaled=True),
    BasisSpec(((2.0, 0), (1.0, 0), (0.0, 1), (0.0, 0), (-1.0, 0), (-2.0, 0))))
print(f"  fitted {coeffs[(2.0, 0)]:.10f}   (4G/pi = 1.1662436161)")

print()
print("Eigenvalue products are parameterization sensitive (m=1):")
# The basis is derived from m and the mode: x log x, x, log x, 1 and
# Stirling's x^-1, x^-3 in the cutoff (or the count) x.
c_cut, _, _ = eigenproduct_reglimit(1, "by_cutoff",
                                    [16 * 2 ** i for i in range(9)])
c_cnt, _, _ = eigenproduct_reglimit(1, "by_count",
                                    [32 * 2 ** i for i in range(9)])
print(f"  radius-cutoff products -> {c_cut:.10f}  (= 2 log 2pi: the determinant)")
print(f"  count-cutoff products  -> {c_cnt:.10f}  (= 2 log pi: NOT the determinant)")
