"""Zeros of reverse generalized Bessel polynomials at large degree.

Two complementary computations: a five-term uniform asymptotic expansion
of each zero (``approx_all``) and a Taylor-transport sweep that walks the
whole upper-half spectrum at machine precision (``sweep``), plus a
brute-force polynomial oracle (``oracle_zeros``) for validation.  Every
other name lives in its submodule.
"""

from .errors import (ApproximationFailures, InvalidDegree,
                     IterationDivergence, NewtonDivergence, NonpositiveIndex,
                     OracleNoConvergence, ParameterOutOfRange, RgbpError,
                     SweepStalled, ZeroArgument, ZetaVanishes)
from .expansion import ZeroApprox, approx_all, approx_zero
from .lg_coeffs import build_lg_table
from .params import ProblemParams, make_params
from .polynomials import oracle_zeros
from .sweep import sweep

__version__ = "0.1.0"

__all__ = [
    "approx_all", "approx_zero", "build_lg_table", "make_params",
    "oracle_zeros", "ProblemParams", "sweep", "ZeroApprox",
    "RgbpError", "InvalidDegree", "ParameterOutOfRange", "ZetaVanishes",
    "NonpositiveIndex", "NewtonDivergence", "ZeroArgument",
    "OracleNoConvergence", "IterationDivergence", "SweepStalled",
    "ApproximationFailures",
]
