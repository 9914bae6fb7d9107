"""Hadamard finite-part integrals over (0, inf).

Divergent power-law tails are assigned their finite part: the constant
coefficient of the partial integrals' expansion in the moving endpoint.
The numerical route is adaptive quadrature on a window plus closed-form
finite parts of fitted tail expansions.  The determinant route needs no
window: its integrand goes as a constant over z at both ends, so z = 1/x
folds (0, inf) into one quadrature over (0, 1].
"""

import math

from torusdet import BasisSpec, finite_part_tail_inf, finite_part_tail_zero, \
    logdet_via_regint, reg_integral

print("Closed-form finite parts of single terms:")
print("  fp of z^0 over [3, inf):   ", finite_part_tail_inf(0.0, 0, 3.0),
      " (the R-term has no constant)")
print("  fp of z^-1 over [e, inf):  ", finite_part_tail_inf(-1.0, 0, math.e))
print("  fp of z^-2 over (0, 1]:    ", finite_part_tail_zero(-2.0, 0, 1.0))

print()
print("A convergent integral is just its value:")
res = reg_integral(lambda z: 1 / (1 + z * z), window=(1e-3, 50.0),
                   basis_zero=BasisSpec(((0.0, 0), (2.0, 0), (4.0, 0), (6.0, 0))),
                   basis_inf=BasisSpec(((-2.0, 0), (-4.0, 0), (-6.0, 0), (-8.0, 0))))
print(f"  integral of 1/(1+z^2): {res.value:.12f}  (pi/2 = {math.pi/2:.12f})")
print(f"  core {res.core_part:.6f} + tails {res.tail_zero_part:.2e}"
      f" / {res.tail_inf_part:.6f}, error estimate {res.error_estimate:.1e}")

print()
print("The log-determinant identity: -2 fp-int of z/(lam + z^2) = log lam")
for lam in (0.5, 1.0, 4.0):
    res = reg_integral(lambda z: z / (lam + z * z), window=(1e-3, 64.0),
                       basis_zero=BasisSpec(((1.0, 0), (3.0, 0), (5.0, 0))),
                       basis_inf=BasisSpec(((-1.0, 0), (-3.0, 0), (-5.0, 0),
                                            (-7.0, 0))))
    print(f"  lam={lam}: -2 fp = {-2 * res.value:+.12f}, "
          f"log lam = {math.log(lam):+.12f}")

print()
print("Packaged as a determinant route (single eigenvalue 4, no kernel):")
print("  ", logdet_via_regint(lambda z, a: (4.0 + z * z) ** (-a), 1, 0))
