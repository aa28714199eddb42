"""Problem parameters shared by every stage of the zero computation.

For degree ``n`` and real parameter ``a`` the scaled quantities are

    u = n + 1/2,    alpha = (a - 2)/u,    sigma = sqrt(1 + alpha),

and the two turning points of the scaled differential equation sit at
``z = +/- i*sigma - alpha/2``.  Both answer paths take ``a`` inside the
window ``-0.9*n + 3/2 <= a <= 10*n``, where the turning points stay bounded
away from each other and from the origin; ``make_params`` holds its only
definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidDegree, ParameterOutOfRange

@dataclass(frozen=True)
class ProblemParams:
    n: int
    a: float
    u: float
    alpha: float
    sigma: float
    z1: complex
    z2: complex

    @property
    def num_upper_zeros(self) -> int:
        return (self.n + 1) // 2


def make_params(n: int, a: float) -> ProblemParams:
    """Validate (n, a) and derive the fixed per-problem constants.

    Raises InvalidDegree for n < 1 and ParameterOutOfRange when ``a`` falls
    outside the window -0.9n + 3/2 <= a <= 10n.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidDegree(f"degree must be a positive integer, got {n!r}")
    a = float(a)
    lo = -0.9 * n + 1.5
    hi = 10.0 * n
    if not lo <= a <= hi:
        raise ParameterOutOfRange(
            f"a={a} outside admissible range [{lo}, {hi}] for n={n}")
    u = n + 0.5
    alpha = (a - 2.0) / u
    sigma = math.sqrt(1.0 + alpha)
    z1 = complex(-0.5 * alpha, sigma)
    z2 = z1.conjugate()
    return ProblemParams(n=n, a=a, u=u, alpha=alpha, sigma=sigma, z1=z1, z2=z2)
