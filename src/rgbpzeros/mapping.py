"""Conformal map z <-> (Z, phi, xi, zeta) with branch conventions.

Branch rules: Z > 0 for real z > 0, Z < 0 for real z < 0, continuous in the
upper half-plane away from the cut joining the origin to the upper turning
point.  The cut is approximated here by the vertical segment
Re(z + alpha/2) = 0, 0 <= Im z <= sigma (exact for alpha = 0); queries near
it raise OnBranchCut rather than resolving a side.

Points with Re(z + alpha/2) < 0 -- where the whole zero pipeline lives --
use the negated principal square root for Z and the log form whose branch
is correct there.

``map_point`` returns the jets in z of phi, sin(phi), cos(phi), xi and zeta
at one point, all propagated through jet arithmetic; no numerical
differentiation happens in this module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

from .airy import airy_zero
from .errors import OnBranchCut, TurningPointProximity, ZeroArgument
from .jets import Jet, JetOps
from .params import ProblemParams

_TWO_PI_I = 2j * math.pi
_JET_ORDER = 5  # value + derivatives up to zeta''''

# exclusion radius around the turning point, relative to its size
TURNING_POINT_RTOL = 1e-3
CUT_TOL = 1e-8


@dataclass
class MapState:
    """Jets in z of the mapped quantities at z; each value is at index 0."""

    z: complex
    Z: complex
    phi: Jet
    sin: Jet     # sin(phi) = sigma / Z
    cos: Jet     # cos(phi) = (z + alpha/2) / Z
    xi: Jet
    zeta: Jet


def _branch_sign(params: ProblemParams, z: complex) -> int:
    """+1 right of the cut, -1 left; raises near the cut itself."""
    al, sg = params.alpha, params.sigma
    x = z.real + 0.5 * al
    y = z.imag
    if abs(x) <= CUT_TOL * (1.0 + sg) and -CUT_TOL <= y <= sg * (1.0 + CUT_TOL):
        raise OnBranchCut(f"z={z} lies within tolerance of the branch cut")
    if x > 0.0:
        return 1
    if x < 0.0:
        return -1
    return 1  # on the ray above the turning point both sides agree


def _resolve_Z(params: ProblemParams, z: complex, sign: int) -> complex:
    """Z on the side ``sign`` of the cut, without the half-plane guard.

    Also correct slightly below the real axis (where approximations of the
    real zero of odd-degree polynomials can land), by continuation of the
    left/right branch across the axis.
    """
    w = (z + 0.5 * params.alpha) ** 2 + 1.0 + params.alpha
    if w.imag == 0.0 and w.real < 0.0:
        w = complex(w.real, 0.0)  # force the upper-side limit on the ray
    return sign * cmath.sqrt(w)


def big_Z(params: ProblemParams, z: complex) -> complex:
    """Branch-resolved square root of (z - z1)(z - z2)."""
    z = complex(z)
    if z.imag < -CUT_TOL:
        raise ValueError("big_Z is defined on the closed upper half-plane")
    if z == 0:
        raise ZeroArgument("Z is undefined at the origin")
    return _resolve_Z(params, z, _branch_sign(params, z))


def xi_closed_form(params: ProblemParams, z: complex, Z: complex,
                   sign: int) -> complex:
    """Closed-form LG phase xi with principal logarithms.

    Right of the cut the direct form applies; left of the cut the second
    logarithm is rewritten (argument negated, +pi*i compensation) so the
    principal branch is the correct one.  The constant terms are added
    last, one at a time, which fixes the rounding of the tau_0 iteration.
    """
    al = params.alpha
    denom = 4.0 * Z + 2.0 * al * (Z + z + 2.0) + 4.0 + al * al
    if sign > 0:
        xi = (Z - (1.0 + 0.5 * al) * cmath.log(denom / z)
              + 0.5 * al * cmath.log(2.0 * Z + 2.0 * z + al))
    else:
        xi = (Z + (1.0 + 0.5 * al) * cmath.log(z / denom)
              + 0.5 * al * (cmath.log(-2.0 * Z - 2.0 * z - al) + math.pi * 1j))
    return (xi + 0.5 * cmath.log(1.0 + al) + (2.0 + 0.5 * al) * math.log(2.0)
            - 0.5 * (1.0 + al) * math.pi * 1j)


def zeta_from_xi(xi: complex, sign: int) -> complex:
    """Airy variable with (2/3) zeta^(3/2) = xi on the appropriate branch."""
    w = 1.5 * xi
    ln = cmath.log(w)
    if sign < 0 and ln.imag < 0:
        # left of the cut xi is in the lower half; zeta sits near the
        # negative real axis, reached by the shifted branch of the 2/3 power
        ln += _TWO_PI_I
    return cmath.exp((2.0 / 3.0) * ln)


def zeta_for_airy_zero(params: ProblemParams, m: int):
    """Pinned (zeta, xi) pair for the m-th Airy-zero level set."""
    airy_m = airy_zero(m)
    u = params.u
    zeta = airy_m * u ** (-2.0 / 3.0)
    xi = -2j * abs(airy_m) ** 1.5 / (3.0 * u)
    return complex(zeta), xi


def map_point(params: ProblemParams, z: complex, *,
              xi_value: Optional[complex] = None,
              zeta_value: Optional[complex] = None) -> MapState:
    """Jets of phi, sin(phi), cos(phi), xi and zeta at z.

    ``xi_value`` / ``zeta_value`` override the closed forms; the zero
    pipeline pins them to the exact Airy-zero level-set values so no branch
    decision is re-derived at the solved point.
    """
    z = complex(z)
    if z == 0:
        raise ZeroArgument("the origin is a singular point of the map")
    if abs(z - params.z1) < TURNING_POINT_RTOL * (1.0 + abs(params.z1)):
        raise TurningPointProximity(
            f"z={z} within exclusion radius of turning point {params.z1}")
    sign = _branch_sign(params, z)
    al, sg = params.alpha, params.sigma

    J = JetOps(_JET_ORDER)
    zj = J.variable(z)
    zpa = J.add(zj, J.const(0.5 * al))
    wj = J.add(J.mul(zpa, zpa), J.const(1.0 + al))
    Z0 = _resolve_Z(params, z, sign)
    Zj = J.sqrt_with_value(wj, Z0)
    sin_j = J.div(J.const(sg), Zj)
    cos_j = J.div(zpa, Zj)
    # phi from exp(i phi) = cos + i sin; its derivative is -sin^2/sigma
    phi0 = -1j * cmath.log(cos_j[0] + 1j * sin_j[0])
    dphi_j = J.scale(J.mul(sin_j, sin_j), -1.0 / sg)
    phi_j = J.integrate_from(dphi_j, phi0)

    xi0 = xi_value if xi_value is not None else xi_closed_form(params, z, Z0, sign)
    dxi_j = J.div(Zj, zj)          # xi' = f^(1/2) = Z/z
    xi_j = J.integrate_from(dxi_j, xi0)

    zeta0 = zeta_value if zeta_value is not None else zeta_from_xi(xi0, sign)
    # zeta' = 2 xi' zeta / (3 xi): propagate through the jet convolution
    ratio = J.div(J.scale(dxi_j, 2.0 / 3.0), xi_j)
    zeta_j: Jet = [0j] * _JET_ORDER
    zeta_j[0] = complex(zeta0)
    for i in range(_JET_ORDER - 1):
        s = 0j
        for k in range(i + 1):
            s += ratio[k] * zeta_j[i - k]
        zeta_j[i + 1] = s / (i + 1)
    return MapState(z=z, Z=Z0, phi=phi_j, sin=sin_j, cos=cos_j, xi=xi_j,
                    zeta=zeta_j)
