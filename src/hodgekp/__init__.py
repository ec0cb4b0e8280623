"""Exact-arithmetic engine for the rank-one quantized group action and
the Heisenberg-Virasoro symmetries of the KP hierarchy on truncated
series, with finite-order verification of their identification and of
the KP membership of the derived Hodge-type tau-functions."""

from __future__ import annotations

from .algebra import Fraction, HbarPoly, InvariantViolation, TPoly, ZSeries, rat, rat_str
from .curve import (
    CATALOG,
    CurveParams,
    CurveSeries,
    bernoulli,
    build_curve,
    gaussian_moments,
    givental_v_matrix,
    grunsky_matrix,
    i_series,
    identification_residual,
    perturbed_control_curve,
    shift_data,
    witt_coefficients,
)
from .kp import (
    hirota_full_check,
    hirota_graded_check,
    kdv_reduction_check,
    specialize_hbar,
)
from .operators import (
    exp_apply,
    givental_direct,
    givental_factorized,
    rl_identity_check,
    tqp_forms,
    virasoro_conjugation_check,
    virasoro_factorization_check,
)
from .tau import bgw_tau, hodge_partition, kw_tau, tau_qp_check

__version__ = "0.1.0"
