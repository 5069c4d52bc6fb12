"""Determinantal point process substrate.

Provides the probability product kernel between discrete distributions, the
normalized correlation kernel used by the dHMM transition prior, log-det
scores and gradients, elementary symmetric polynomials, and discrete
(k-)DPP samplers for completeness.
"""

from repro.dpp.kernels import (
    probability_product_kernel,
    normalized_probability_kernel,
    transition_kernel_matrix,
)
from repro.dpp.log_det import (
    log_det_psd,
    dpp_log_prior,
    dpp_log_prior_and_gradient,
    dpp_log_prior_gradient,
)
from repro.dpp.esp import elementary_symmetric_polynomials
from repro.dpp.kdpp import KDPP
from repro.dpp.sampler import sample_dpp, sample_kdpp

__all__ = [
    "probability_product_kernel",
    "normalized_probability_kernel",
    "transition_kernel_matrix",
    "log_det_psd",
    "dpp_log_prior",
    "dpp_log_prior_and_gradient",
    "dpp_log_prior_gradient",
    "elementary_symmetric_polynomials",
    "KDPP",
    "sample_dpp",
    "sample_kdpp",
]
