"""Zeros of reverse generalized Bessel polynomials at large degree.

Two complementary computations: a five-term uniform asymptotic expansion
of each zero (``approx_all``) and a Taylor-transport sweep that walks the
whole upper-half spectrum at machine precision (``sweep``), plus a
brute-force polynomial oracle (``oracle_zeros``) for validation.
"""

from .airy import airy_zero
from .errors import (ApproximationFailures, InvalidDegree,
                     IterationDivergence, NewtonDivergence, NonpositiveIndex,
                     OnBranchCut, OracleNoConvergence, ParameterOutOfRange,
                     RgbpError, StepTooLarge, SweepStalled,
                     TurningPointProximity, ZeroArgument, ZetaVanishes)
from .expansion import ZeroApprox, approx_all, approx_zero, solve_tau0, tau_cascade
from .lg_coeffs import LgTable, build_lg_table
from .mapping import MapState, big_Z, map_point, xi_closed_form, zeta_from_xi
from .params import ProblemParams, make_params
from .phase import PhaseCorrections, phase_corrections
from .polynomials import (PolyCoeffs, exact_coeffs, oracle_zeros, poly_coeffs,
                          relative_residual, theta, theta_laguerre,
                          theta_with_derivative, upper_half, w0_derivable)
from .sweep import Carrier, iterate_T, omega, sweep, taylor_step, taylor_table

__version__ = "0.1.0"

__all__ = [
    "airy_zero", "approx_all", "approx_zero", "big_Z", "build_lg_table",
    "Carrier", "exact_coeffs", "iterate_T", "LgTable", "make_params",
    "map_point", "MapState", "omega", "oracle_zeros", "phase_corrections",
    "PhaseCorrections", "poly_coeffs", "PolyCoeffs", "ProblemParams",
    "relative_residual", "solve_tau0", "sweep", "tau_cascade",
    "taylor_step", "taylor_table", "theta", "theta_laguerre",
    "theta_with_derivative", "upper_half", "w0_derivable", "xi_closed_form",
    "ZeroApprox", "zeta_from_xi",
    "RgbpError", "InvalidDegree", "ParameterOutOfRange", "OnBranchCut",
    "TurningPointProximity", "ZetaVanishes", "NonpositiveIndex",
    "NewtonDivergence", "ZeroArgument", "OracleNoConvergence",
    "StepTooLarge", "IterationDivergence", "SweepStalled",
    "ApproximationFailures",
]
