"""Exact mini-algebra over span{phi^k * sin^m(phi) * cos^n(phi)}.

Canonical form keeps the cosine power at most 1 (cos^2 is rewritten as
1 - sin^2) and drops zero coefficients, so equality of series is equality
of their term maps.  The algebra is closed under addition, multiplication,
d/dphi and antidifferentiation from 0, which is exactly what the
coefficient recursion in :mod:`rgbpzeros.lg_coeffs` needs.

phi powers appear because mixed-parity integrands generate secular terms;
they are first-class citizens here.

``evaluate_jet`` is the expansion's per-zero kernel: it groups the terms by
(phi power, cos power) and runs Horner in sin(phi) within each group, so
every E_s costs one jet product per sin degree rather than one per factor
of every monomial.
"""

from __future__ import annotations

import cmath
from typing import Dict, List, Tuple

Term = Tuple[int, int, int]  # (phi power, sin power, cos power)
# (phi power, cos power, dense sin coefficients from the highest power down)
HornerGroup = Tuple[int, int, Tuple[complex, ...]]


def _canon(raw: Dict[Term, complex]) -> Dict[Term, complex]:
    out: Dict[Term, complex] = {}
    stack = list(raw.items())
    while stack:
        (k, m, n), c = stack.pop()
        if c == 0:
            continue
        if n >= 2:
            # cos^2 -> 1 - sin^2
            stack.append(((k, m, n - 2), c))
            stack.append(((k, m + 2, n - 2), -c))
        else:
            out[(k, m, n)] = out.get((k, m, n), 0) + c
    return {t: c for t, c in out.items() if c != 0}


class PhiSeries:
    """Immutable element of the trig-polynomial algebra."""

    __slots__ = ("terms", "_groups")

    def __init__(self, terms: Dict[Term, complex] | None = None):
        object.__setattr__(self, "terms", _canon(dict(terms or {})))
        object.__setattr__(self, "_groups", None)

    def __setattr__(self, *args):
        raise AttributeError("PhiSeries is immutable")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "PhiSeries":
        return PhiSeries({})

    @staticmethod
    def one() -> "PhiSeries":
        return PhiSeries({(0, 0, 0): 1.0})

    @staticmethod
    def phi() -> "PhiSeries":
        return PhiSeries({(1, 0, 0): 1.0})

    @staticmethod
    def sin() -> "PhiSeries":
        return PhiSeries({(0, 1, 0): 1.0})

    @staticmethod
    def cos() -> "PhiSeries":
        return PhiSeries({(0, 0, 1): 1.0})

    # -- ring operations ---------------------------------------------------
    def __add__(self, other: "PhiSeries") -> "PhiSeries":
        r = dict(self.terms)
        for t, c in other.terms.items():
            r[t] = r.get(t, 0) + c
        return PhiSeries(r)

    def __sub__(self, other: "PhiSeries") -> "PhiSeries":
        return self + other.scale(-1.0)

    def __mul__(self, other: "PhiSeries") -> "PhiSeries":
        r: Dict[Term, complex] = {}
        for (k1, m1, n1), c1 in self.terms.items():
            for (k2, m2, n2), c2 in other.terms.items():
                t = (k1 + k2, m1 + m2, n1 + n2)
                r[t] = r.get(t, 0) + c1 * c2
        return PhiSeries(r)

    def scale(self, factor: complex) -> "PhiSeries":
        return PhiSeries({t: c * factor for t, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, PhiSeries) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"PhiSeries({self.terms!r})"

    # -- calculus ----------------------------------------------------------
    def differentiate(self) -> "PhiSeries":
        r: Dict[Term, complex] = {}
        for (k, m, n), c in self.terms.items():
            if k:
                t = (k - 1, m, n)
                r[t] = r.get(t, 0) + c * k
            if m:
                t = (k, m - 1, n + 1)
                r[t] = r.get(t, 0) + c * m
            if n:
                t = (k, m + 1, n - 1)
                r[t] = r.get(t, 0) - c * n
        return PhiSeries(r)

    def integrate(self) -> "PhiSeries":
        """Antiderivative F with F(0) = 0."""
        r: Dict[Term, complex] = {}
        for (k, m, n), c in self.terms.items():
            for t, cc in _int_monomial(k, m, n).items():
                r[t] = r.get(t, 0) + c * cc
        result = PhiSeries(r)
        at_zero = result.evaluate(0.0)
        if at_zero != 0:
            result = result - PhiSeries({(0, 0, 0): at_zero})
        return result

    def evaluate(self, phi: complex) -> complex:
        s = cmath.sin(phi)
        c = cmath.cos(phi)
        total = 0j
        for (k, m, n), coeff in self.terms.items():
            total += coeff * phi**k * s**m * c**n
        return total

    def _horner_groups(self) -> List[HornerGroup]:
        """The terms as polynomials in sin, one per (phi power, cos power).

        Compiled on first use and kept, so a series evaluated at many
        points pays for it once.
        """
        if self._groups is None:
            by_key: Dict[Tuple[int, int], Dict[int, complex]] = {}
            for (k, m, n), c in self.terms.items():
                by_key.setdefault((k, n), {})[m] = c
            groups = [(k, n, tuple(coeffs.get(m, 0.0)
                                   for m in range(max(coeffs), -1, -1)))
                      for (k, n), coeffs in sorted(by_key.items())]
            object.__setattr__(self, "_groups", groups)
        return self._groups

    def evaluate_jet(self, phi_jet, sin_jet, cos_jet, jet_ops):
        """Evaluate on truncated Taylor series (jets of some variable).

        ``jet_ops`` supplies const/mul/add closed over the jet order; the
        jets for phi, sin(phi) and cos(phi) must share a common base point,
        and are read only to that order, so the result of a longer jet is
        its truncation.  Each group of :meth:`_horner_groups` is evaluated by Horner in the
        sin jet, then multiplied by its cos and phi powers.
        """
        total = jet_ops.const(0.0)
        for k, n, coeffs in self._horner_groups():
            acc = jet_ops.const(coeffs[0])
            for c in coeffs[1:]:
                acc = jet_ops.mul(acc, sin_jet)
                acc[0] += c
            for _ in range(n):
                acc = jet_ops.mul(acc, cos_jet)
            for _ in range(k):
                acc = jet_ops.mul(acc, phi_jet)
            total = jet_ops.add(total, acc)
        return total


def _int_monomial(k: int, m: int, n: int) -> Dict[Term, complex]:
    """Raw antiderivative of phi^k sin^m cos^n, n in {0, 1}.

    Odd cos powers integrate by substitution; pure sin powers by the usual
    reduction formula; phi^k factors by repeated integration by parts.  The
    recursion terminates because k strictly decreases.
    """
    if n == 1:
        v = {(0, m + 1, 0): 1.0 / (m + 1)}
    elif m == 0:
        return {(k + 1, 0, 0): 1.0 / (k + 1)}
    elif m == 1:
        v = {(0, 0, 1): -1.0}
    else:
        v = {(0, m - 1, 1): -1.0 / m}
        for t, c in _int_monomial(0, m - 2, 0).items():
            v[t] = v.get(t, 0) + c * (m - 1) / m
    if k == 0:
        return v
    # by parts: int phi^k v' = phi^k v - k int phi^{k-1} v
    out: Dict[Term, complex] = {}
    for (kk, mm, nn), c in v.items():
        out[(kk + k, mm, nn)] = out.get((kk + k, mm, nn), 0) + c
        for t, cc in _int_monomial(kk + k - 1, mm, nn).items():
            out[t] = out.get(t, 0) - k * c * cc
    return out

