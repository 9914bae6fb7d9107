"""Regularized limits, finite-part integrals, and torus Laplacian determinants.

Numerical realization of Hadamard-regularized limits and integrals, exact
spectral computations on discrete tori, Euler-Maclaurin decompositions of
lattice resolvent sums, and zeta-regularized determinants of the continuum
torus, with the headline cross-check that the regularized limit of the
discrete log-determinants reproduces the zeta-regularized determinant.
"""

from .errors import (FitDegenerateError, InputError, NumericalError,
                     TailModelError, TorusdetError)
from .expansion import (BasisSpec, Expansion, ExpTerm, FitReport, Samples,
                        TO_INFINITY, TO_ZERO, eval_expansion, extract_reglimit,
                        fit_expansion, regularized_limit)
from .finite_part import (RegIntResult, antiderivative_term,
                          finite_part_tail_inf, finite_part_tail_zero,
                          logdet_via_regint, reg_integral)
from .discrete import (DiscreteTorus, eigenvalue_product_integer, log_det,
                       log_det_rescaled, log_det_series, reduced_laplacian_det_mod,
                       resolvent_trace, spanning_tree_count, spectrum_1d,
                       square_lattice_logdet_density, trace_inclusion_exclusion)
from .euler_maclaurin import (EMParts, bernoulli_number, em_decompose,
                              boundary_inclusive_lattice_sum, em_sum_1d,
                              corner_term_cancellation, em_direct_sum,
                              homogeneous_components, poly_evaluator,
                              remainder_uniformity_scan, scaled_bulk_term)
from .smooth import (ConvergenceReport, convergence_check, eigenproduct_reglimit,
                     log_det_zeta, logdet_limit_pipeline, logdet_zeta_via_regint,
                     resolvent_trace_continuum, zeta_continued)
from .interchange import (HomogeneousFn, InterchangeReport, builtin_registry,
                          check_interchange, correction_term, lhs_interchange,
                          verify_homogeneity)

__version__ = "0.1.0"
