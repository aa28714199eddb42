"""Exception types shared across the package."""


class RgbpError(Exception):
    """Base class for all package errors."""


class InvalidDegree(RgbpError):
    """Polynomial degree n is not a positive integer."""


class ParameterOutOfRange(RgbpError):
    """A parameter lies outside its admissible range: a outside the window
    for the degree, or a tolerance eps that is not finite and positive."""


class ZetaVanishes(RgbpError):
    """A correction term is not finite: the Airy variable is too small."""


class NonpositiveIndex(RgbpError):
    """Airy-zero index m must be an integer >= 1 (any integral type but bool)."""


class NewtonDivergence(RgbpError):
    """Newton iteration for the leading zero coefficient did not converge."""


class ZeroArgument(RgbpError):
    """z = 0 is a singular point of the differential equation."""


class OracleNoConvergence(RgbpError):
    """Brute-force root finder failed for some indices."""

    def __init__(self, message, indices=()):
        super().__init__(message)
        self.indices = list(indices)


class IterationDivergence(RgbpError):
    """Fixed-point zero iteration left its convergence basin."""


class SweepStalled(RgbpError):
    """Sweep aborted; carries the zeros accepted before the failure."""

    def __init__(self, message, partial=()):
        super().__init__(message)
        self.partial = list(partial)


class ApproximationFailures(RgbpError):
    """Per-index failures while approximating all zeros.

    ``failures`` is a list of (m, exception); ``results`` holds the
    approximations that did succeed.
    """

    def __init__(self, message, failures, results):
        super().__init__(message)
        self.failures = failures
        self.results = results
