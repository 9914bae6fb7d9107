"""Euler-Maclaurin decomposition of lattice resolvent sums.

The one-axis summation formula has four pieces (integral, boundary
derivatives, endpoint average, periodic-Bernoulli remainder); applied
per axis it writes the boundary-inclusive lattice sum as 4^m operator
patterns, each one t-integral of closed-form axis factors.
Boundary-derivative patterns vanish exactly by the periodicity of the
eigenvalue function, endpoint-average patterns pin coordinates and
reduce dimension, and the fully pinned contributions cancel across
inclusion-exclusion levels.
"""

from torusdet import DiscreteTorus, boundary_inclusive_lattice_sum, \
    corner_term_cancellation, em_decompose, em_sum_1d, poly_evaluator, \
    remainder_uniformity_scan

print("The one-axis formula is exact on polynomials (x^2, n=10, M=1):")
parts = em_sum_1d(poly_evaluator([0, 0, 1]), 10, 1)
print(f"  integral {parts.integral:.6f} + boundary {parts.derivative_boundary:.6f}"
      f" + average {parts.endpoint_average:.6f} + remainder {parts.remainder}")
print(f"  total {parts.total:.6f} (Faulhaber: 385)")

print()
print("Full m=2 decomposition at n=8, z=1:")
t = DiscreteTorus(2, 8)
vals, total = em_decompose(t, 1.0)
direct = boundary_inclusive_lattice_sum(t, 1.0, 2)
for pattern in sorted(vals):
    tag = "".join(map(str, pattern))
    note = "  <- vanishes exactly" if 2 in pattern and vals[pattern] == 0 else ""
    print(f"  pattern {tag}: {vals[pattern]:+.10f}{note}")
print(f"  total {total:.12f} vs direct lattice sum {direct:.12f}")

print()
print("m=3 at n=8, z=0.1, summed by operator class:")
t = DiscreteTorus(3, 8)
vals, total = em_decompose(t, 0.1)
direct = boundary_inclusive_lattice_sum(t, 0.1, 3)
bulk = vals[(1, 1, 1)]
remainder = sum(v for k, v in vals.items() if 3 in k)
print(f"  bulk (all integral) {bulk:.10e}, remainder (any axis 3) "
      f"{remainder:.10e}")
print(f"  total {total:.12e} vs direct lattice sum {direct:.12e}")

print()
print("Fully pinned contributions cancel across levels:")
for m in (1, 2, 3):
    binom, resid = corner_term_cancellation(m)
    print(f"  m={m}: alternating binomial sum {binom}, float residual {resid:.1e}")

print()
print("Remainder uniformity: |H(z, n)| z^4 across n (m=1):")
scan = remainder_uniformity_scan(1, z_grid=(4.0, 8.0), n_grid=(8, 16, 32, 64))
for z, row in scan.table.items():
    cells = ", ".join(f"n={n}: {v:.2e}" for n, v in row.items())
    print(f"  z={z:g}: {cells}")
