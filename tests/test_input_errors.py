"""Every public input check raises InputError, whichever module it guards."""

import pytest

from torusdet import (TO_INFINITY, TO_ZERO, BasisSpec, DiscreteTorus,
                      Expansion, ExpTerm, HomogeneousFn, InputError, Samples,
                      antiderivative_term, bernoulli_number,
                      corner_term_cancellation, deriv_coefficient_bound_scan,
                      eigenvalue_product_integer, em_sum_1d, logdet_via_regint,
                      periodic_bernoulli, poly_evaluator, resolvent_trace)


def _trace(z, alpha):
    return z ** -2.0


def _homogeneous(z_side, n_side):
    terms = (ExpTerm(-2.0, 0, 1.0),)
    return HomogeneousFn(name="z^-2", evaluator=lambda z, n: z ** -2.0,
                         degree=-2.0, expansion_z=Expansion(z_side, terms),
                         expansion_n=Expansion(n_side, terms))


BAD_CALLS = {
    "trace_alpha_0": lambda: resolvent_trace(DiscreteTorus(2, 8), 1.0, 0),
    "eigenvalue_product_cap": lambda: eigenvalue_product_integer(
        DiscreteTorus(2, 65)),
    "bernoulli_negative": lambda: bernoulli_number(-1),
    "periodic_bernoulli_0": lambda: periodic_bernoulli(0, 0.5),
    "em_sum_1d_n_0": lambda: em_sum_1d(poly_evaluator([1.0]), 0, 1),
    "corner_cancellation_m_0": lambda: corner_term_cancellation(0),
    "bound_scan_ell_too_big": lambda: deriv_coefficient_bound_scan(3, 3),
    "expansion_direction": lambda: Expansion("sideways", ()),
    "basis_negative_log": lambda: BasisSpec(((0.0, -1),)),
    "samples_lengths": lambda: Samples([1.0, 2.0], [1.0]),
    "samples_nonpositive": lambda: Samples([0.0, 1.0], [1.0, 1.0]),
    "samples_not_increasing": lambda: Samples([2.0, 1.0], [1.0, 1.0]),
    "antiderivative_x_0": lambda: antiderivative_term(1.0, 0, 0.0),
    "antiderivative_k_negative": lambda: antiderivative_term(1.0, -1, 1.0),
    "regint_m_0": lambda: logdet_via_regint(_trace, 0, 1),
    "regint_kernel_negative": lambda: logdet_via_regint(_trace, 1, -1),
    "regint_window_end_1": lambda: logdet_via_regint(_trace, 1, 1,
                                                     window_end=1.0),
    "homogeneous_z_to_zero": lambda: _homogeneous(TO_ZERO, TO_INFINITY),
    "homogeneous_n_to_zero": lambda: _homogeneous(TO_INFINITY, TO_ZERO),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_input_raises_input_error(call):
    with pytest.raises(InputError):
        call()
