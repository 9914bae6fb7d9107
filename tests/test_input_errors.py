"""Every public input check raises InputError, whichever module it guards."""

import math

import pytest

from torusdet import (TO_INFINITY, TO_ZERO, BasisSpec, DiscreteTorus,
                      Expansion, ExpTerm, HomogeneousFn, InputError, Samples,
                      antiderivative_term, bernoulli_number, convergence_check,
                      corner_term_cancellation, eigenvalue_product_integer,
                      em_decompose, em_sum_1d, log_det, log_det_series,
                      log_det_zeta, logdet_via_regint, poly_evaluator,
                      remainder_uniformity_scan, resolvent_trace,
                      scaled_bulk_term, spanning_tree_count)


def _trace(z, alpha):
    return z ** -2.0


def _homogeneous(z_side, n_side):
    terms = (ExpTerm(-2.0, 0, 1.0),)
    return HomogeneousFn(name="z^-2", evaluator=lambda z, n: z ** -2.0,
                         degree=-2.0, expansion_z=Expansion(z_side, terms),
                         expansion_n=Expansion(n_side, terms))


BAD_CALLS = {
    "trace_alpha_0": lambda: resolvent_trace(DiscreteTorus(2, 8), 1.0, 0),
    "trace_alpha_2.5": lambda: resolvent_trace(DiscreteTorus(2, 8), 1.0, 2.5),
    "torus_n_4.5": lambda: spanning_tree_count(DiscreteTorus(2, 4.5)),
    "torus_n_nan": lambda: spanning_tree_count(DiscreteTorus(2, math.nan)),
    "torus_n_8.5": lambda: log_det(DiscreteTorus(2, 8.5)),
    "torus_n_8.0": lambda: DiscreteTorus(2, 8.0),
    "torus_n_string": lambda: DiscreteTorus(2, "8"),
    "torus_m_2.5": lambda: DiscreteTorus(2.5, 8),
    "zeta_m_2.5": lambda: log_det_zeta(2.5),
    "em_alpha_1.5": lambda: em_decompose(DiscreteTorus(1, 8), 1.0, alpha=1.5),
    "em_M_6.9": lambda: em_decompose(DiscreteTorus(1, 8), 1.0, M=6.9),
    "converge_empty_grid": lambda: convergence_check(1, [], 1.0, 1),
    "converge_n_8.5": lambda: convergence_check(1, [8.5, 16.2, 32.9], 1.0, 1),
    "log_det_series_n_8.5": lambda: log_det_series(1, [8.5, 16.9]),
    "remainder_scan_empty_grid": lambda: remainder_uniformity_scan(
        1, n_grid=()),
    "remainder_scan_n_8.5": lambda: remainder_uniformity_scan(
        1, n_grid=(8.5, 16)),
    "eigenvalue_product_cap": lambda: eigenvalue_product_integer(
        DiscreteTorus(2, 65)),
    "bernoulli_negative": lambda: bernoulli_number(-1),
    "bernoulli_2.5": lambda: bernoulli_number(2.5),
    "bulk_term_q_1.5": lambda: scaled_bulk_term(2, 1.5, 1.0, 8.0),
    "em_sum_1d_n_0": lambda: em_sum_1d(poly_evaluator([1.0]), 0, 1),
    "corner_cancellation_m_0": lambda: corner_term_cancellation(0),
    "corner_cancellation_m_2.5": lambda: corner_term_cancellation(2.5),
    "expansion_direction": lambda: Expansion("sideways", ()),
    "basis_negative_log": lambda: BasisSpec(((0.0, -1),)),
    "samples_lengths": lambda: Samples([1.0, 2.0], [1.0]),
    "samples_nonpositive": lambda: Samples([0.0, 1.0], [1.0, 1.0]),
    "samples_not_increasing": lambda: Samples([2.0, 1.0], [1.0, 1.0]),
    "antiderivative_x_0": lambda: antiderivative_term(1.0, 0, 0.0),
    "antiderivative_k_negative": lambda: antiderivative_term(1.0, -1, 1.0),
    "regint_m_0": lambda: logdet_via_regint(_trace, 0, 1),
    "regint_kernel_negative": lambda: logdet_via_regint(_trace, 1, -1),
    "homogeneous_z_to_zero": lambda: _homogeneous(TO_ZERO, TO_INFINITY),
    "homogeneous_n_to_zero": lambda: _homogeneous(TO_INFINITY, TO_ZERO),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_input_raises_input_error(call):
    with pytest.raises(InputError):
        call()
