"""Zeta-regularized determinants of the continuum torus, two ways.

The reference route continues the spectral zeta function through the
heat-trace Mellin transform with the theta modular identity; the second
route evaluates the finite-part resolvent-trace integral with the same
machinery used for discrete tori.  They must agree.
"""

import math

import mpmath

from torusdet import log_det_zeta, logdet_zeta_via_regint, \
    resolvent_trace_continuum, theta1, zeta_continued

print("Theta function and its modular identity:")
for t in (0.3, 1.0, math.pi):
    lhs = theta1(t)
    rhs = math.sqrt(math.pi / t) * theta1(math.pi ** 2 / t)
    print(f"  theta1({t:.4f}) = {lhs:.12f}   modular form {rhs:.12f}")
print(f"  self-dual value theta1(pi) vs pi^(1/4)/Gamma(3/4): "
      f"{theta1(math.pi):.12f} vs {math.pi ** 0.25 / math.gamma(0.75):.12f}")


def mellin_trace(m, z, alpha):
    """The trace as a 30-digit theta-Mellin integral, the route the library's
    shell series replaces."""
    with mpmath.workdps(30):
        z2 = mpmath.mpf(z) ** 2

        def theta(t):   # the modular identity keeps q = e^(-t) away from 1
            if t < mpmath.pi:
                return mpmath.sqrt(mpmath.pi / t) * theta(mpmath.pi ** 2 / t)
            return mpmath.jtheta(3, 0, mpmath.exp(-t))

        value = mpmath.quad(
            lambda t: t ** (alpha - 1) * mpmath.exp(-z2 * t) * theta(t) ** m,
            [0, 1, alpha / z2, mpmath.inf]) / mpmath.gamma(alpha)
    return float(value)


print()
print("Continuum resolvent trace (m=1 closed form, m=2 theta-Mellin integral):")
print(f"  m=1, z=1: {resolvent_trace_continuum(1, 1.0, 1):.15f}"
      f"  (pi coth pi = {math.pi / math.tanh(math.pi):.15f})")
print(f"  m=2, z=1, alpha=2: {resolvent_trace_continuum(2, 1.0, 2):.15f}"
      f"  (Mellin integral {mellin_trace(2, 1.0, 2):.15f})")

print()
print("zeta(0) = -1 in every dimension (kernel bookkeeping):")
print(" ", [round(zeta_continued(m, 0.0), 12) for m in (1, 2, 3, 4)])

print()
print("Determinants, both routes:")
ref1 = 2 * math.log(2 * math.pi)
ref2 = float(mpmath.log(mpmath.gamma(0.25) ** 4 / (4 * mpmath.pi)))
print(f"  m=1: zeta route {log_det_zeta(1):.12f}, fp-integral route "
      f"{logdet_zeta_via_regint(1):.12f}, closed form 2 log 2pi = {ref1:.12f}")
print(f"  m=2: zeta route {log_det_zeta(2):.12f}, fp-integral route "
      f"{logdet_zeta_via_regint(2):.12f}, closed form "
      f"log(Gamma(1/4)^4/4pi) = {ref2:.12f}")
for m in (3, 4):
    print(f"  m={m}: zeta route {log_det_zeta(m):.12f}, fp-integral route "
          f"{logdet_zeta_via_regint(m):.12f}")
