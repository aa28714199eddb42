"""Conformal map z <-> (Z, phi, xi, zeta) on the left branch.

Every zero lies on the left branch of Z = +-sqrt((z + alpha/2)^2 + 1 + alpha),
the one with Z < 0 for real z < 0.  ``left_Z`` and ``xi_closed_form`` give
Z and the LG phase there; ``solve_tau0`` iterates with them, and the zero
pipeline hands the same Z to ``map_point``.  ``map_point`` decides no
branch: from Z and the pinned xi and zeta at z it returns a ``MapState``,
the jets in z of sin(phi) = sigma/Z, cos(phi) = (z + alpha/2)/Z, xi and
zeta, all through jet arithmetic, with no numerical differentiation.  phi
itself is never formed: the LG coefficients are polynomials in sin, cos.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .airy import AIRY_PHASE, airy_zero
from .errors import ZeroArgument
from .jets import Jet, JetOps
from .params import ProblemParams

_JET_ORDER = len(AIRY_PHASE) + 1  # value + derivatives up to zeta''''


@dataclass
class MapState:
    """Jets in z of the mapped quantities at z; each value is at index 0."""

    z: complex
    Z: complex
    sin: Jet     # sin(phi) = sigma / Z
    cos: Jet     # cos(phi) = (z + alpha/2) / Z
    xi: Jet
    zeta: Jet


def left_Z(params: ProblemParams, z: complex) -> complex:
    """Z = -sqrt((z + alpha/2)^2 + 1 + alpha), the branch of the zeros.

    On the ray where the radicand is negative real it takes the upper-side
    limit, so it is also right slightly below the real axis (where
    approximations of the real zero of odd-degree polynomials can land).
    """
    w = (z + 0.5 * params.alpha) ** 2 + 1.0 + params.alpha
    if w.imag == 0.0 and w.real < 0.0:
        w = complex(w.real, 0.0)  # force the upper-side limit on the ray
    return -cmath.sqrt(w)


def xi_closed_form(params: ProblemParams, z: complex, Z: complex) -> complex:
    """Closed-form LG phase xi at z on the left branch, Z = left_Z(z).

    The second logarithm is rewritten (argument negated, +pi*i
    compensation) so that the principal branch is the correct one there.
    The constant terms are added last, one at a time, which fixes the
    rounding of the tau_0 iteration.
    """
    al = params.alpha
    denom = 4.0 * Z + 2.0 * al * (Z + z + 2.0) + 4.0 + al * al
    xi = (Z + (1.0 + 0.5 * al) * cmath.log(z / denom)
          + 0.5 * al * (cmath.log(-2.0 * Z - 2.0 * z - al) + math.pi * 1j))
    return (xi + 0.5 * cmath.log(1.0 + al) + (2.0 + 0.5 * al) * math.log(2.0)
            - 0.5 * (1.0 + al) * math.pi * 1j)


def zeta_for_airy_zero(params: ProblemParams, m: int):
    """Pinned (zeta, xi) pair for the m-th Airy-zero level set."""
    airy_m = airy_zero(m)
    u = params.u
    zeta = airy_m * u ** (-2.0 / 3.0)
    xi = -2j * abs(airy_m) ** 1.5 / (3.0 * u)
    return complex(zeta), xi


def map_point(params: ProblemParams, z: complex, Z: complex, xi: complex,
              zeta: complex) -> MapState:
    """Jets of sin(phi), cos(phi), xi and zeta at z.

    ``Z`` is the branch-resolved square root at z, and ``xi`` and ``zeta``
    are the values there that the jets start from; the zero pipeline
    passes ``left_Z`` and the pinned Airy-zero level set.  Any z near the
    turning point z1 is mapped; at z1 itself, where no zero lies, Z = 0
    and the jets divide by zero.
    """
    z = complex(z)
    if z == 0:
        raise ZeroArgument("the origin is a singular point of the map")
    al, sg = params.alpha, params.sigma

    J = JetOps(_JET_ORDER)
    zj = J.variable(z)
    zpa = J.add(zj, J.const(0.5 * al))
    wj = J.add(J.mul(zpa, zpa), J.const(1.0 + al))
    Zj = J.sqrt_with_value(wj, Z)
    sin_j = J.div(J.const(sg), Zj)
    cos_j = J.div(zpa, Zj)

    dxi_j = J.div(Zj, zj)          # xi' = f^(1/2) = Z/z
    xi_j = J.integrate_from(dxi_j, xi)

    # zeta' = 2 xi' zeta / (3 xi): propagate through the jet convolution
    ratio = J.div(J.scale(dxi_j, 2.0 / 3.0), xi_j)
    zeta_j: Jet = [0j] * _JET_ORDER
    zeta_j[0] = complex(zeta)
    for i in range(_JET_ORDER - 1):
        s = 0j
        for k in range(i + 1):
            s += ratio[k] * zeta_j[i - k]
        zeta_j[i + 1] = s / (i + 1)
    return MapState(z=z, Z=Z, sin=sin_j, cos=cos_j, xi=xi_j, zeta=zeta_j)
